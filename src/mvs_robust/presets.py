"""Sweep presets reproducing the base numerical experiments.

Each preset is a full run configuration: the base parameter set (five
years, r = 0.05, mu = 0.15, sigma = 0.25, gamma0 = 2, phi0 = 0.5,
xi = 1, w0 = 4), optional overrides, and a one- or two-parameter sweep
grid.  The drift is lowered to 0.10 for the model-uncertainty loss
studies.  Published axis ranges are only partially stated, so the
grids below use the stated base values plus visually evident ranges
and should be read as approximate reproductions, not pinned data.
Lower bounds for the risk-aversion axes stay above the region where
the coefficient system degenerates (the ratio denominator reaches zero
inside a five-year horizon once gamma0 drops toward 1 at these market
parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import RunConfig, SweepSection


@dataclass(frozen=True)
class FigurePreset:
    name: str
    description: str
    mu: float | None            # base drift override (None keeps 0.15)
    sweep: SweepSection
    delta3_checked: bool        # included in the positivity verification sweep


FIGURE_PRESETS: tuple[FigurePreset, ...] = (
    FigurePreset(
        "fig01", "allocation vs initial wealth and ambiguity aversion",
        None, SweepSection("w0", 2.0, 6.0, 5, "xi", 0.5, 3.0, 11), True,
    ),
    FigurePreset(
        "fig02", "allocation vs drift and risk aversion",
        None, SweepSection("mu", 0.10, 0.20, 6, "gamma0", 1.5, 4.0, 6), True,
    ),
    FigurePreset(
        "fig03", "allocation vs skewness preference and volatility",
        None, SweepSection("phi0", 0.0, 1.0, 5, "sigma", 0.15, 0.35, 9), True,
    ),
    FigurePreset(
        "fig04a", "no-skew allocation vs initial wealth and ambiguity aversion",
        None, SweepSection("w0", 2.0, 6.0, 5, "xi", 0.5, 3.0, 11), True,
    ),
    FigurePreset(
        "fig04b", "no-skew allocation vs drift and risk aversion",
        None, SweepSection("mu", 0.10, 0.20, 6, "gamma0", 1.5, 4.0, 6), True,
    ),
    FigurePreset(
        "fig05a", "allocation gap to the no-skew strategy vs wealth and ambiguity",
        None, SweepSection("w0", 2.0, 6.0, 5, "xi", 1.0, 3.0, 9), True,
    ),
    FigurePreset(
        "fig05b", "allocation gap to the no-skew strategy vs drift and risk aversion",
        None, SweepSection("mu", 0.10, 0.20, 6, "gamma0", 1.5, 4.0, 6), True,
    ),
    FigurePreset(
        "fig06", "skewness utility loss vs initial wealth and ambiguity aversion",
        None, SweepSection("w0", 2.0, 6.0, 5, "xi", 0.5, 3.0, 11), True,
    ),
    FigurePreset(
        "fig07", "skewness utility loss vs drift and risk aversion",
        None, SweepSection("mu", 0.10, 0.20, 6, "gamma0", 1.5, 4.0, 6), True,
    ),
    FigurePreset(
        "fig08", "skewness utility loss vs skewness preference and volatility",
        None, SweepSection("phi0", 0.1, 1.0, 5, "sigma", 0.15, 0.35, 9), True,
    ),
    FigurePreset(
        "fig09", "uncertainty utility loss vs initial wealth and ambiguity aversion",
        0.10, SweepSection("w0", 2.0, 6.0, 5, "xi", 0.5, 3.0, 11), True,
    ),
    FigurePreset(
        "fig10", "uncertainty utility loss vs drift and risk aversion",
        0.10, SweepSection("mu", 0.06, 0.14, 5, "gamma0", 1.5, 4.0, 6), True,
    ),
    FigurePreset(
        "fig11", "uncertainty utility loss vs skewness preference and volatility",
        0.10, SweepSection("phi0", 0.1, 1.0, 5, "sigma", 0.15, 0.35, 9), True,
    ),
    FigurePreset(
        "fig12", "allocation gap to the no-skew strategy across volatilities",
        None, SweepSection("sigma", 0.15, 0.35, 21, "phi0", 0.25, 1.0, 4), False,
    ),
    FigurePreset(
        "fig13", "allocation gap to the basic strategy vs wealth and ambiguity",
        0.10, SweepSection("w0", 2.0, 6.0, 5, "xi", 0.5, 3.0, 11), False,
    ),
    FigurePreset(
        "fig14", "combined utility loss vs initial wealth and ambiguity aversion",
        0.10, SweepSection("w0", 2.0, 6.0, 5, "xi", 0.5, 3.0, 11), False,
    ),
)


def preset_config(preset: FigurePreset, base: RunConfig | None = None) -> RunConfig:
    """Full run configuration for one preset."""
    cfg = base if base is not None else RunConfig()
    if preset.mu is not None:
        cfg = cfg.with_overrides({"mu": preset.mu})
    return replace(cfg, sweep=preset.sweep)

