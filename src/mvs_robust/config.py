"""Run configuration: a flat sectioned key-value text file.

Sections appear in square brackets, entries as ``key = value`` lines,
lists comma-separated; a volatility matrix uses semicolons between
rows; a comment takes a whole line.  A section is the ``RunConfig``
field of that name, and its keys are the fields of the section's
dataclass, which declares their order and types once for parsing, the
key check and ``to_text``.  ``[preferences]`` and ``[simulation]`` are
the library's ``Preferences`` and ``SimConfig``, which check their own
values.  A missing key takes its value in ``RunConfig()``, the base
experiment (five-year horizon, one risky asset); only ``[sweep]`` has
required keys.  A field whose value is ``None`` is absent and not
written.  A sweep's second axis (``param2``, ``min2``, ``max2``,
``count2``) is given whole or not at all.  Every number must be finite.
Load builds the market and every sweep cell once (``market_curves``,
``cells``), so every value, in every cell too, is checked at load.

Example::

    [market]
    T = 5.0
    r = 0.05
    mu = 0.15
    sigma = 0.25

    [preferences]
    gamma0 = 2.0
    phi0 = 0.5
    xi = 1.0

    [sweep]
    param = xi
    min = 0.5
    max = 3.0
    count = 11
"""

from __future__ import annotations

import configparser
import enum
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .market import DEFAULT_NUM_STEPS, MarketCurves, Preferences, build_market
from .simulate import Measure, Scheme, SimConfig
from .solver import DEFAULT_EPS_DEN, DEFAULT_PICARD_MAX_ITER, DEFAULT_PICARD_TOL

Matrix = tuple[tuple[float, ...], ...]

# Load's caps on run size, so that a run too large to hold fails at load on every
# machine, before any market is built.  Each keeps its share of the traced peak
# (tracemalloc) under 1 GB, the other keys at their defaults: ``check`` takes 0.43 kB
# a solver step, and a sweep 16 kB a cell with a market of its own at any num_steps
# (equal grids share their nodes, and a constant market, as every config's is, holds
# one row of each curve and of its half-grid rates).  So 2,000 cells take 32 MB.
MAX_SOLVER_STEPS = 500_000
MAX_SWEEP_CELLS = 2_000


@dataclass(frozen=True)
class MarketSection:
    T: float = 5.0
    r: float = 0.05
    mu: tuple[float, ...] = (0.15,)
    sigma: Matrix = ((0.25,),)


@dataclass(frozen=True)
class SolverSection:
    num_steps: int = DEFAULT_NUM_STEPS
    picard_tol: float = DEFAULT_PICARD_TOL
    picard_max_iter: int = DEFAULT_PICARD_MAX_ITER
    eps_den: float = DEFAULT_EPS_DEN


# another name for the ``[simulation]`` section, kept for the benchmark's
# workloads (perfbench/workloads.py), which import it
SimulationSection = SimConfig


@dataclass(frozen=True)
class SweepSection:
    param: str
    min: float
    max: float
    count: int
    param2: str | None = None  # the second axis: all four keys or none
    min2: float | None = None
    max2: float | None = None
    count2: int | None = None


def _member(kind, key: str, word: str):
    """The member of enum ``kind`` whose value is ``word``."""
    try:
        return kind(word)
    except ValueError:
        words = sorted(m.value for m in kind)
        raise ConfigError(f"{key} must be one of {words}, got {word!r}") from None


@dataclass(frozen=True)
class RunConfig:
    market: MarketSection = field(default_factory=MarketSection)
    preferences: Preferences = field(default_factory=lambda: Preferences(2.0, 0.5, 1.0))
    solver: SolverSection = field(default_factory=SolverSection)
    simulation: SimConfig = field(default_factory=lambda: SimConfig(seed=42))
    sweep: SweepSection | None = None

    # -- what load builds, once ------------------------------------------

    @cached_property
    def market_curves(self) -> MarketCurves:
        m = self.market
        sigma = np.asarray(m.sigma, dtype=float)
        if sigma.shape[0] == 1 and sigma.shape[1] == len(m.mu):
            sigma = sigma[0]  # one row of per-asset volatilities = diagonal
        return build_market(
            horizon=m.T,
            risk_free=m.r,
            drift=np.asarray(m.mu, dtype=float),
            volatility=sigma,
            num_steps=self.solver.num_steps,
        )

    @cached_property
    def cells(self) -> tuple[list[MarketCurves], list[SweepCell]]:
        return sweep_cells(self)

    # kept for the benchmark's output checks (perfbench/verify.py), which call it
    def build_preferences(self) -> Preferences:
        return self.preferences

    def validate(self) -> "RunConfig":
        """Check what no section checks alone: the run's size and the sweep's
        axes before any market is built, then the market, the solver settings
        and ``start_time``, and last the sweep cells, so that bad values fail at
        load.  The preferences and the simulation settings checked themselves
        when they were built."""
        if (steps := self.solver.num_steps) > MAX_SOLVER_STEPS:
            raise ConfigError(f"[solver] num_steps must be at most {MAX_SOLVER_STEPS}, "
                              f"got {steps}")
        sw = self.sweep
        if sw is not None:
            if (sw.param2, sw.min2, sw.max2, sw.count2).count(None) not in (0, 4):
                raise ConfigError("[sweep] second axis needs param2, min2, max2 and count2, "
                                  "or none")
            if sw.param2 == sw.param:
                raise ConfigError(f"sweep parameter {sw.param!r} given as both param and param2")
            for name, count in ((sw.param, sw.count), (sw.param2, sw.count2)):
                if name is None:
                    continue
                if name not in SWEEPABLE:
                    raise ConfigError(f"sweep parameter {name!r} not in {SWEEPABLE}")
                if count < 1:
                    raise ConfigError(f"sweep count for {name!r} must be >= 1")
                if name in ("mu", "sigma") and len(self.market.mu) != 1:
                    raise ConfigError(f"sweeping {name!r} requires a single risky asset")
            if (cells := sw.count * (sw.count2 or 1)) > MAX_SWEEP_CELLS:
                raise ConfigError(f"[sweep] count x count2 must be at most {MAX_SWEEP_CELLS}, "
                                  f"got {cells}")
        self.market_curves
        if not self.solver.picard_tol > 0.0:  # NaN fails too
            raise ConfigError(f"picard_tol must be positive, got {self.solver.picard_tol}")
        if self.solver.picard_max_iter < 1:
            raise ConfigError("picard_max_iter must be >= 1")
        if not self.solver.eps_den > 0.0:  # NaN fails too
            raise ConfigError(f"eps_den must be positive, got {self.solver.eps_den}")
        if not 0.0 <= self.simulation.start_time < self.market.T:
            raise ConfigError(
                f"start_time must lie in [0, T) = [0, {self.market.T:g}), "
                f"got {self.simulation.start_time}"
            )
        if sw is not None:
            self.cells
        return self

    def with_overrides(self, values: dict[str, float]) -> "RunConfig":
        """New config with sweepable parameters replaced by ``values``."""
        cfg = self
        for name, v in values.items():
            if name not in _OVERRIDES:
                raise ConfigError(f"unknown override {name!r}")
            section, key, wrap = _OVERRIDES[name]
            cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{key: wrap(v)})})
        return cfg

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Round-trippable config text (used for run.meta)."""
        blocks = []
        for name in _SECTIONS:
            section = getattr(self, name)
            if section is None:
                continue
            values = ((f.name, getattr(section, f.name)) for f in fields(section))
            blocks.append(f"[{name}]\n" + "".join(
                f"{key} = {_format(value)}\n" for key, value in values if value is not None
            ))
        return "\n".join(blocks)


# Sweep parameter -> (section, field, sweep value -> field value).
_OVERRIDES = {
    "w0": ("simulation", "start_wealth", float),
    "xi": ("preferences", "xi", float),
    "gamma0": ("preferences", "gamma0", float),
    "phi0": ("preferences", "phi0", float),
    "mu": ("market", "mu", lambda v: (v,)),
    "sigma": ("market", "sigma", lambda v: ((v,),)),
    "r": ("market", "r", float),
}
SWEEPABLE = tuple(_OVERRIDES)


def sweep_grid(config: RunConfig) -> list[dict[str, float]]:
    """Cell parameter dictionaries in output order (outer x inner)."""
    sw = config.sweep
    if sw is None:
        raise ConfigError("config has no [sweep] section")
    first = np.linspace(sw.min, sw.max, sw.count)
    if sw.param2 is None:
        return [{sw.param: float(v)} for v in first]
    second = np.linspace(sw.min2, sw.max2, sw.count2)
    return [{sw.param: float(a), sw.param2: float(b)} for a in first for b in second]


@dataclass(frozen=True)
class SweepCell:
    """One sweep cell: its parameter values, its market's index in the list
    ``sweep_cells`` returns, its preferences and its start wealth."""

    values: dict[str, float]
    market: int
    prefs: Preferences
    w0: float


def sweep_cells(config: RunConfig) -> tuple[list[MarketCurves], list[SweepCell]]:
    """Each distinct market, built once, and each cell in ``sweep_grid``
    order; a cell on the base market reuses ``config.market_curves``.
    Neither ``T`` nor ``num_steps`` is sweepable, so every market's grid
    equals ``config.market_curves.grid`` and shares its nodes.  A cell
    outside a parameter's domain raises ``ConfigError``, so what passes
    load is what runs."""
    index: dict[MarketSection, int] = {}
    markets, cells = [], []
    for values in sweep_grid(config):
        cfg = config.with_overrides(values)
        if cfg.market not in index:
            index[cfg.market] = len(markets)
            markets.append((config if cfg.market == config.market else cfg).market_curves)
        cells.append(SweepCell(values, index[cfg.market], cfg.preferences,
                               cfg.simulation.start_wealth))
    return markets, cells


def _format(value) -> str:
    """A value as text, in config and every output alike: 17 significant digits for
    floats (tested first: most values are), ``,`` between list items, ``;`` between rows."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        sep = "; " if value and isinstance(value[0], tuple) else ", "
        return sep.join(_format(x) for x in value)
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


# -- parsing ----------------------------------------------------------------

def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(section, key, x.strip()) for x in raw.split(",") if x.strip())


def _parse_matrix(section: str, key: str, raw: str) -> Matrix:
    rows = tuple(_parse_list(section, key, r) for r in raw.split(";") if r.strip())
    if len({len(row) for row in rows}) > 1:
        raise ConfigError(f"[{section}] {key}: matrix rows differ in length, got {raw!r}")
    return rows


_PARSERS = {  # field type -> parser(section, key, raw text)
    float: _parse_float,
    float | None: _parse_float,
    int: _parse_int,
    int | None: _parse_int,
    tuple[float, ...]: _parse_list,
    Matrix: _parse_matrix,
    str: lambda section, key, raw: raw.strip(),
    str | None: lambda section, key, raw: raw.strip() or None,
    Scheme: lambda section, key, raw: _member(Scheme, key, raw.strip()),
    Measure: lambda section, key, raw: _member(Measure, key, raw.strip()),
}

# Section name -> its dataclass (``SweepSection | None`` -> ``SweepSection``).
_SECTIONS = {
    name: next(iter(typing.get_args(hint)), hint)
    for name, hint in typing.get_type_hints(RunConfig).items()
}
# Section name -> ((field, parser), ...) in declaration order.
_SCHEMA = {
    name: tuple(zip(fields(cls), (_PARSERS[t] for t in typing.get_type_hints(cls).values())))
    for name, cls in _SECTIONS.items()
}


_BASE = RunConfig()


def _parse_section(name: str, raw) -> object:
    """One section's object from its ``key -> text`` entries; a missing key
    takes ``RunConfig()``'s value, or is required where that section is ``None``."""
    schema, base = _SCHEMA[name], getattr(_BASE, name)
    for f, _ in schema:
        if base is None and f.default is MISSING and f.name not in raw:
            raise ConfigError(f"[{name}] requires {f.name!r}")
    values = {f.name: parse(name, f.name, raw[f.name]) for f, parse in schema if f.name in raw}
    return _SECTIONS[name](**values) if base is None else replace(base, **values)


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; raises ``ConfigError`` on problems."""
    # no default section: a [DEFAULT] is an unknown section like any other
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(cp[section]) - {f.name for f, _ in _SCHEMA[section]}
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(unknown)}")

    return RunConfig(**{
        name: _parse_section(name, cp[name]) for name in _SCHEMA if cp.has_section(name)
    }).validate()


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
