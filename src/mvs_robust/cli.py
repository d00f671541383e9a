"""Command-line interface.

    mvs-robust solve    --config cfg [--out DIR] [--variants full,noskew]
    mvs-robust sweep    --config cfg [--out DIR]
    mvs-robust check    --config cfg
    mvs-robust simulate --config cfg [--out DIR]
    mvs-robust figures  [--out DIR]

Exit codes: 0 success, 1 check failure, 2 configuration error,
3 numerical/solver error.  All CSV output uses '.' decimals, LF line
endings, and 17 significant digits; a ``run.meta`` file next to the
CSVs records the resolved configuration and tool version.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checks import MC_Z_BOUND, run_checks, solve_full
from .config import RunConfig, _format, _member, load_config
from .errors import ConfigError, MvsRobustError
from .policy import value_bracket
from .presets import FIGURE_PRESETS, preset_config
from .simulate import lognormal_moments, simulate_equilibrium_wealth
from .solver import ModelVariant, solve_system
from .sweep import rows_to_csv, run_sweep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_meta(out_dir: Path, config: RunConfig, argv: list[str]) -> None:
    lines = [
        f"tool = mvs-robust {__version__}",
        "command = " + " ".join(argv),
        "",
        config.to_text(),
    ]
    _write(out_dir / "run.meta", "\n".join(lines))


def cmd_solve(config: RunConfig, out_dir: Path, variants: list[ModelVariant], argv) -> int:
    market = config.market_curves
    grid = market.grid
    # every table is solved before any file is written
    tables = [
        solve_system(market, config.preferences, grid, variant, config.solver.eps_den)
        for variant in variants
    ]
    for variant, table in zip(variants, tables):
        # k1 has h2's equation and terminal value, so its column repeats h2
        rows = (row.tolist() for row in np.column_stack(
            (grid.nodes, table.f, table.h1, table.h2, table.h3, table.g1, table.h2, table.delta3)
        ))
        lines = ["t,f,h1,h2,h3,g1,k1,delta3"] + [",".join(map(_format, row)) for row in rows]
        _write(out_dir / f"coefficients_{variant.value}.csv", "\n".join(lines) + "\n")
    _write_meta(out_dir, config, argv)
    return EXIT_OK


def cmd_sweep(config: RunConfig, out_dir: Path, argv) -> int:
    header, rows = run_sweep(config)
    _write(out_dir / "sweep.csv", rows_to_csv(header, rows))
    _write_meta(out_dir, config, argv)
    return EXIT_OK


def _z_line(name: str, est, analytic: float) -> str:
    """A Monte Carlo estimate against its analytic value, failing outside
    the z band (z is 0 for a zero standard error)."""
    z = est.z_score(analytic)
    flag = "pass" if abs(z) <= MC_Z_BOUND else "fail"
    return ",".join([name, *map(_format, (est.value, est.std_error, analytic, z)), flag])


def cmd_check(config: RunConfig) -> int:
    if config.sweep is not None:
        print("note: check covers the base point only, not the [sweep] cells", file=sys.stderr)
    results = run_checks(config)
    for res in results:
        print(res.summary_line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def cmd_simulate(config: RunConfig, out_dir: Path, argv) -> int:
    table, cfg = solve_full(config), config.simulation
    res = simulate_equilibrium_wealth(table, cfg)

    w0, t0 = cfg.start_wealth, cfg.start_time
    lines = ["quantity,estimate,std_error,analytic,z_score,flag"]
    analytic = lognormal_moments(table, t0, w0, (1, 2, 3, 4), cfg.measure)
    for order, est, moment in zip((1, 2, 3, 4), res.moments, analytic):
        lines.append(_z_line(f"moment_{order}", est, moment))
    m1, m2 = res.moments[0].value, res.moments[1].value
    variance = max(0.0, m2 - m1 * m1)
    lines.append(f"variance,{_format(variance)},,,,")
    lines.append(f"sup_fourth_moment,{_format(res.sup_fourth_moment)},,,,")
    lines.append(f"min_wealth,{_format(res.min_wealth)},,,,")
    if res.penalty is not None:
        lines.append(f"penalty,{_format(res.penalty.value)},{_format(res.penalty.std_error)},,,")
    if res.objective is not None:
        lines.append(_z_line("objective", res.objective, value_bracket(table, t0) * w0))
    _write(out_dir / "simulation.csv", "\n".join(lines) + "\n")
    _write_meta(out_dir, config, argv)
    return EXIT_OK


def cmd_figures(out_dir: Path, argv) -> int:
    base = RunConfig()
    for preset in FIGURE_PRESETS:
        cfg = preset_config(preset, base)
        text = f"# {preset.name}: {preset.description}\n" + cfg.to_text()
        _write(out_dir / f"{preset.name}.cfg", text)
        print(f"{preset.name}: {preset.description}")
    _write(out_dir / "run.meta", f"tool = mvs-robust {__version__}\ncommand = "
           + " ".join(argv) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvs-robust",
        description="Robust time-consistent mean-variance-skewness portfolio solver",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")

    p_solve = sub.add_parser("solve", help="solve coefficient tables, write CSV")
    add_common(p_solve)
    p_solve.add_argument(
        "--variants", default="full",
        help="comma list from: " + ",".join(v.value for v in ModelVariant),
    )
    add_common(sub.add_parser("sweep", help="run a parameter sweep, write CSV"))
    p_check = sub.add_parser("check", help="run verification checks")
    p_check.add_argument("--config", required=True)
    add_common(sub.add_parser("simulate", help="Monte Carlo simulation, write CSV"))
    add_common(sub.add_parser("figures", help="emit figure preset configs"), needs_config=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "figures":
            return cmd_figures(Path(args.out), argv)
        config = load_config(args.config)
        if args.command == "check":
            return cmd_check(config)
        out_dir = Path(args.out)
        if args.command == "solve":
            names = [v.strip() for v in args.variants.split(",") if v.strip()]
            if not names:
                words = sorted(v.value for v in ModelVariant)
                raise ConfigError(f"no variant given; choose from {words}")
            variants = [_member(ModelVariant, "variant", name) for name in names]
            return cmd_solve(config, out_dir, variants, argv)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, argv)
        return cmd_simulate(config, out_dir, argv)
    except ConfigError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MvsRobustError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
