"""Run configuration: a flat sectioned key-value text file.

Sections appear in square brackets, entries as ``key = value`` lines,
lists comma-separated; a volatility matrix uses semicolons between
rows.  Unknown sections or keys are rejected, every number must be
finite, and every numeric field is validated against the module
preconditions at load time.  Missing keys fall back to the base
experiment defaults (five-year horizon, one risky asset).

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
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .market import MarketCurves, Preferences, TimeGrid, build_market
from .simulate import Measure, Scheme, SimConfig

SWEEPABLE = ("w0", "xi", "gamma0", "phi0", "mu", "sigma", "r")

_SCHEMES = {"exact": Scheme.EXACT_LOGNORMAL, "euler": Scheme.EULER_MARUYAMA}
_MEASURES = {"distorted": Measure.DISTORTED, "reference": Measure.REFERENCE}


@dataclass(frozen=True)
class MarketSection:
    T: float = 5.0
    r: float = 0.05
    mu: tuple[float, ...] = (0.15,)
    sigma: tuple[tuple[float, ...], ...] = ((0.25,),)


@dataclass(frozen=True)
class PreferencesSection:
    gamma0: float = 2.0
    phi0: float = 0.5
    xi: float = 1.0


@dataclass(frozen=True)
class SolverSection:
    num_steps: int = 2000
    picard_tol: float = 1e-10
    picard_max_iter: int = 500
    eps_den: float = 1e-12


@dataclass(frozen=True)
class SimulationSection:
    num_paths: int = 100_000
    seed: int = 42
    scheme: str = "exact"
    measure: str = "distorted"
    start_time: float = 0.0
    start_wealth: float = 4.0
    num_steps: int = 200


@dataclass(frozen=True)
class SweepSection:
    param: str
    min: float
    max: float
    count: int
    param2: str | None = None
    min2: float = 0.0
    max2: float = 0.0
    count2: int = 0


@dataclass(frozen=True)
class RunConfig:
    market: MarketSection = field(default_factory=MarketSection)
    preferences: PreferencesSection = field(default_factory=PreferencesSection)
    solver: SolverSection = field(default_factory=SolverSection)
    simulation: SimulationSection = field(default_factory=SimulationSection)
    sweep: SweepSection | None = None

    # -- object factories ----------------------------------------------

    def build_grid(self) -> TimeGrid:
        return TimeGrid(self.market.T, self.solver.num_steps)

    def build_market(self, grid: TimeGrid | None = None) -> MarketCurves:
        m = self.market
        sigma = np.asarray(m.sigma, dtype=float)
        if sigma.shape == (1, 1):
            sigma = sigma[0, 0]
        elif sigma.shape[0] == 1 and sigma.shape[1] == len(m.mu):
            sigma = sigma[0]  # one row of per-asset volatilities = diagonal
        return build_market(
            horizon=m.T,
            risk_free=m.r,
            drift=np.asarray(m.mu, dtype=float),
            volatility=sigma,
            num_steps=self.solver.num_steps,
            grid=grid,
        )

    def build_preferences(self) -> Preferences:
        p = self.preferences
        return Preferences(gamma0=p.gamma0, phi0=p.phi0, xi=p.xi)

    def build_sim_config(self) -> SimConfig:
        s = self.simulation
        if s.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {sorted(_SCHEMES)}, got {s.scheme!r}")
        if s.measure not in _MEASURES:
            raise ConfigError(f"measure must be one of {sorted(_MEASURES)}, got {s.measure!r}")
        return SimConfig(
            num_paths=s.num_paths,
            seed=s.seed,
            start_time=s.start_time,
            start_wealth=s.start_wealth,
            scheme=_SCHEMES[s.scheme],
            measure=_MEASURES[s.measure],
            num_steps=s.num_steps,
        )

    def validate(self) -> "RunConfig":
        """Instantiate every domain object once so bad values fail at load."""
        grid = self.build_grid()
        self.build_market(grid)
        self.build_preferences()
        self.build_sim_config()
        if self.solver.picard_tol <= 0.0:
            raise ConfigError(f"picard_tol must be positive, got {self.solver.picard_tol}")
        if self.solver.picard_max_iter < 1:
            raise ConfigError("picard_max_iter must be >= 1")
        if self.solver.eps_den <= 0.0:
            raise ConfigError(f"eps_den must be positive, got {self.solver.eps_den}")
        if not 0.0 <= self.simulation.start_time < self.market.T:
            raise ConfigError(
                f"start_time must lie in [0, T) = [0, {self.market.T:g}), "
                f"got {self.simulation.start_time}"
            )
        if self.sweep is not None:
            self._validate_sweep(self.sweep)
        return self

    def _validate_sweep(self, sw: SweepSection) -> None:
        for name, count in ((sw.param, sw.count), (sw.param2, sw.count2)):
            if name is None:
                continue
            if name not in SWEEPABLE:
                raise ConfigError(f"sweep parameter {name!r} not in {SWEEPABLE}")
            if count < 1:
                raise ConfigError(f"sweep count for {name!r} must be >= 1")
            if name in ("mu", "sigma") and len(self.market.mu) != 1:
                raise ConfigError(f"sweeping {name!r} requires a single risky asset")

    def with_overrides(self, values: dict[str, float]) -> "RunConfig":
        """New config with sweepable parameters replaced by ``values``."""
        cfg = self
        for name, v in values.items():
            if name == "w0":
                cfg = replace(cfg, simulation=replace(cfg.simulation, start_wealth=v))
            elif name == "xi":
                cfg = replace(cfg, preferences=replace(cfg.preferences, xi=v))
            elif name == "gamma0":
                cfg = replace(cfg, preferences=replace(cfg.preferences, gamma0=v))
            elif name == "phi0":
                cfg = replace(cfg, preferences=replace(cfg.preferences, phi0=v))
            elif name == "mu":
                cfg = replace(cfg, market=replace(cfg.market, mu=(v,)))
            elif name == "sigma":
                cfg = replace(cfg, market=replace(cfg.market, sigma=((v,),)))
            elif name == "r":
                cfg = replace(cfg, market=replace(cfg.market, r=v))
            else:
                raise ConfigError(f"unknown override {name!r}")
        return cfg

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Round-trippable config text (used for run.meta)."""
        out = io.StringIO()
        m = self.market
        out.write("[market]\n")
        out.write(f"T = {m.T:.17g}\n")
        out.write(f"r = {m.r:.17g}\n")
        out.write("mu = " + ", ".join(f"{x:.17g}" for x in m.mu) + "\n")
        out.write(
            "sigma = "
            + "; ".join(", ".join(f"{x:.17g}" for x in row) for row in m.sigma)
            + "\n\n"
        )
        p = self.preferences
        out.write("[preferences]\n")
        out.write(f"gamma0 = {p.gamma0:.17g}\nphi0 = {p.phi0:.17g}\nxi = {p.xi:.17g}\n\n")
        s = self.solver
        out.write("[solver]\n")
        out.write(f"num_steps = {s.num_steps}\npicard_tol = {s.picard_tol:.17g}\n")
        out.write(f"picard_max_iter = {s.picard_max_iter}\neps_den = {s.eps_den:.17g}\n\n")
        q = self.simulation
        out.write("[simulation]\n")
        out.write(f"num_paths = {q.num_paths}\nseed = {q.seed}\n")
        out.write(f"scheme = {q.scheme}\nmeasure = {q.measure}\n")
        out.write(f"start_time = {q.start_time:.17g}\nstart_wealth = {q.start_wealth:.17g}\n")
        out.write(f"num_steps = {q.num_steps}\n")
        if self.sweep is not None:
            w = self.sweep
            out.write("\n[sweep]\n")
            out.write(f"param = {w.param}\nmin = {w.min:.17g}\nmax = {w.max:.17g}\ncount = {w.count}\n")
            if w.param2 is not None:
                out.write(f"param2 = {w.param2}\nmin2 = {w.min2:.17g}\n")
                out.write(f"max2 = {w.max2:.17g}\ncount2 = {w.count2}\n")
        return out.getvalue()


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


def _parse_matrix(section: str, key: str, raw: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(_parse_list(section, key, r) for r in raw.split(";") if r.strip())
    if len({len(row) for row in rows}) > 1:
        raise ConfigError(f"[{section}] {key}: matrix rows differ in length, got {raw!r}")
    return rows


_SECTION_KEYS = {
    "market": {"T", "r", "mu", "sigma"},
    "preferences": {"gamma0", "phi0", "xi"},
    "solver": {"num_steps", "picard_tol", "picard_max_iter", "eps_den"},
    "simulation": {
        "num_paths", "seed", "scheme", "measure",
        "start_time", "start_wealth", "num_steps",
    },
    "sweep": {"param", "min", "max", "count", "param2", "min2", "max2", "count2"},
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; raises ``ConfigError`` on problems."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(cp[section]) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(unknown)}")

    def get(section, key, default=None):
        if cp.has_section(section) and key in cp[section]:
            return cp[section][key]
        return default

    market = MarketSection(
        T=_parse_float("market", "T", get("market", "T", "5.0")),
        r=_parse_float("market", "r", get("market", "r", "0.05")),
        mu=_parse_list("market", "mu", get("market", "mu", "0.15")),
        sigma=_parse_matrix("market", "sigma", get("market", "sigma", "0.25")),
    )
    prefs = PreferencesSection(
        gamma0=_parse_float("preferences", "gamma0", get("preferences", "gamma0", "2.0")),
        phi0=_parse_float("preferences", "phi0", get("preferences", "phi0", "0.5")),
        xi=_parse_float("preferences", "xi", get("preferences", "xi", "1.0")),
    )
    solver = SolverSection(
        num_steps=_parse_int("solver", "num_steps", get("solver", "num_steps", "2000")),
        picard_tol=_parse_float("solver", "picard_tol", get("solver", "picard_tol", "1e-10")),
        picard_max_iter=_parse_int(
            "solver", "picard_max_iter", get("solver", "picard_max_iter", "500")
        ),
        eps_den=_parse_float("solver", "eps_den", get("solver", "eps_den", "1e-12")),
    )
    sim = SimulationSection(
        num_paths=_parse_int("simulation", "num_paths", get("simulation", "num_paths", "100000")),
        seed=_parse_int("simulation", "seed", get("simulation", "seed", "42")),
        scheme=get("simulation", "scheme", "exact").strip(),
        measure=get("simulation", "measure", "distorted").strip(),
        start_time=_parse_float(
            "simulation", "start_time", get("simulation", "start_time", "0.0")
        ),
        start_wealth=_parse_float(
            "simulation", "start_wealth", get("simulation", "start_wealth", "4.0")
        ),
        num_steps=_parse_int("simulation", "num_steps", get("simulation", "num_steps", "200")),
    )
    sweep = None
    if cp.has_section("sweep"):
        if "param" not in cp["sweep"]:
            raise ConfigError("[sweep] requires 'param'")
        for key in ("min", "max", "count"):
            if key not in cp["sweep"]:
                raise ConfigError(f"[sweep] requires {key!r}")
        has2 = "param2" in cp["sweep"]
        if has2:
            for key in ("min2", "max2", "count2"):
                if key not in cp["sweep"]:
                    raise ConfigError(f"[sweep] with param2 requires {key!r}")
        sweep = SweepSection(
            param=get("sweep", "param").strip(),
            min=_parse_float("sweep", "min", get("sweep", "min")),
            max=_parse_float("sweep", "max", get("sweep", "max")),
            count=_parse_int("sweep", "count", get("sweep", "count")),
            param2=get("sweep", "param2", "").strip() or None if has2 else None,
            min2=_parse_float("sweep", "min2", get("sweep", "min2", "0")),
            max2=_parse_float("sweep", "max2", get("sweep", "max2", "0")),
            count2=_parse_int("sweep", "count2", get("sweep", "count2", "0")),
        )
    return RunConfig(
        market=market, preferences=prefs, solver=solver, simulation=sim, sweep=sweep
    ).validate()


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
