"""Monte Carlo simulation of the equilibrium wealth process and oracles.

Under the worst-case (distorted) measure the equilibrium wealth is an
explicit geometric Brownian motion with deterministic drift
``r + theta f / (xi+1)**2`` and squared volatility
``theta f**2 / (xi+1)**2``, so paths can be generated exactly from
per-step lognormal increments; an Euler-Maruyama scheme is retained
purely as a discretization cross-check.  A misspecified-strategy table
describes the same kind of process, driven by the naive strategy's ratio
(``_curves`` gives both kinds' curves).  Closed-form lognormal moments
provide the independent oracle against the solved coefficient tables:
the order-1..3 moments must reproduce ``g1 w``, ``h2 w**2`` and
``h3 w**3``.

Randomness is counter-based: path ``i`` consumes a fixed block range of
a Philox stream keyed by the seed, so results are bitwise independent
of chunking, execution order, and worker count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, OutOfHorizon, PenaltyUndefined, UnsolvedTable
from .market import MarketCurves
from .policy import value_bracket
from .solver import MispecTable, SolvedTable

_CHUNK = 16384          # paths per accumulation block, fixed for determinism
_MIN_UNIFORM = 5e-324   # keeps ndtri finite if a raw uniform is exactly 0


class Scheme(enum.Enum):
    EXACT_LOGNORMAL = "exact"
    EULER_MARUYAMA = "euler"


class Measure(enum.Enum):
    REFERENCE = "reference"
    DISTORTED = "distorted"


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; paths are a pure function of (seed, index)."""

    num_paths: int = 100_000
    seed: int = 0
    start_time: float = 0.0
    start_wealth: float = 4.0
    scheme: Scheme = Scheme.EXACT_LOGNORMAL
    measure: Measure = Measure.DISTORTED
    num_steps: int = 200

    def __post_init__(self):
        if self.num_paths < 2:
            raise ConfigError(f"num_paths must be >= 2, got {self.num_paths}")
        if self.num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.start_wealth <= 0.0:
            raise ConfigError(f"start_wealth must be positive, got {self.start_wealth}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float


@dataclass(frozen=True)
class SimResult:
    """Path statistics; moments are raw moments of terminal wealth."""

    config: SimConfig
    moments: tuple[MomentEstimate, MomentEstimate, MomentEstimate, MomentEstimate]
    sup_fourth_moment: float
    sup_fourth_time: float
    min_wealth: float
    penalty: MomentEstimate | None
    objective: MomentEstimate | None


class _Curves(NamedTuple):
    """Deterministic curves of one wealth GBM at increasing times."""

    times: np.ndarray
    drift: np.ndarray
    vol2: np.ndarray
    pen_rate: np.ndarray   # penalty integrand per unit wealth


def _check_grids(table: SolvedTable, market: MarketCurves) -> None:
    if not table.grid.same_nodes(market.grid):
        raise UnsolvedTable(
            f"table grid ({table.grid.num_steps} steps over {table.grid.horizon}) "
            f"does not match market grid ({market.grid.num_steps} steps over "
            f"{market.grid.horizon})"
        )


def _curves(
    table: SolvedTable,
    r: np.ndarray,
    th: np.ndarray,
    cols: Sequence[np.ndarray],
    measure: Measure,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(drift, vol2, pen_rate) of the wealth GBM a solved table describes.

    ``r``, ``th`` and the rows of ``cols`` (``table.COLUMNS`` order) are
    the rates and the table's columns at the same times.  The investor
    holds the strategy ratio ``s`` scaled by ``1/d`` (drift
    ``r + theta s / d`` under the reference measure): a coefficient
    table's own ``f`` with ``d = xi + 1``, a misspecified table's naive
    ``driver_f`` with ``d = 1``.  Nature's distortion makes the drift
    ``r + theta s c - xi_a theta s^2 / a`` with ``c = 1/d^2``: a
    coefficient table's worst case is folded into ``c`` (``xi_a = 0``,
    ``a = 1``), a misspecified table's is set by its value system's ratio
    ``a`` (``xi_a = xi``).  Every unused weight is exact, so each kind
    gets bitwise its own formula.
    """
    col = dict(zip(table.COLUMNS, cols))
    xi = table.xi
    if isinstance(table, MispecTable):
        s, d, xi_a, a = col["driver_f"], 1.0, xi, col["a"]
    else:
        s, d, xi_a, a = col["f"], xi + 1.0, 0.0, 1.0
    c = 1.0 / (d * d)
    if measure is Measure.DISTORTED:
        drift = r + th * s * c - xi_a * th * s * s / a
    else:
        drift = r + th * s / d
    vol2 = th * s * s * c
    pen_rate = 0.5 * xi * c * th * s * s * col["delta3"]
    return drift, vol2, pen_rate


def _sim_curves(table: SolvedTable, market: MarketCurves, cfg: SimConfig) -> _Curves:
    """The curves on the simulation grid, interpolated from the table."""
    _check_grids(table, market)
    horizon = table.grid.horizon
    if not 0.0 <= cfg.start_time < horizon:
        raise OutOfHorizon(f"start_time {cfg.start_time} outside [0, {horizon})")
    times = np.linspace(cfg.start_time, horizon, cfg.num_steps + 1)
    r, th = market.risk_free_at(times), market.theta_at(times)
    return _Curves(times, *_curves(table, r, th, table.spline(times).T, cfg.measure))


def _tail_curves(table: SolvedTable, market: MarketCurves, t: float, measure: Measure) -> _Curves:
    """The curves on grid nodes >= t, with t prepended (interpolated) when
    it is not a node."""
    rows = np.array([
        table.grid.nodes, market.risk_free_nodes, market.theta_nodes,
        *(getattr(table, name) for name in table.COLUMNS),
    ])[:, table.grid.nodes >= t]
    if rows[0, 0] > t:
        at_t = [t, float(market.risk_free_at(t)), float(market.theta_at(t)), *table.spline(t)]
        rows = np.column_stack([at_t, rows])
    times, r, th, *cols = rows
    return _Curves(times, *_curves(table, r, th, cols, measure))


def _cumtrapz(g: np.ndarray, times: np.ndarray) -> np.ndarray:
    """out[i] = trapezoid integral of g from times[0] to times[i]."""
    return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(times) * (g[:-1] + g[1:]))])


def _objective(m1, m2, m3, penalty, w: float, gamma0: float, phi0: float):
    """Mean-variance-skewness objective from raw moments of terminal
    wealth, plus the ambiguity penalty, started from wealth w."""
    return (
        m1
        - 0.5 * gamma0 / w * (m2 - m1 * m1)
        + phi0 / (3.0 * w * w) * (m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3)
        + penalty
    )


def _path_normals(seed: int, first_path: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Standard normals, row i belonging to global path ``first_path + i``.

    Each path owns ``ceil(n_steps / 4)`` whole Philox blocks, so the
    draws for a path do not depend on how paths are chunked.
    """
    blocks_per_path = (n_steps + 3) // 4
    bitgen = np.random.Philox(key=seed, counter=first_path * blocks_per_path)
    u = np.random.Generator(bitgen).random(n_paths * blocks_per_path * 4)
    u = u.reshape(n_paths, blocks_per_path * 4)[:, :n_steps]
    return ndtri(np.maximum(u, _MIN_UNIFORM))


def _simulate(table: SolvedTable, curves: _Curves, cfg: SimConfig) -> SimResult:
    times, drift, vol2, pen_rate = curves
    n_steps = cfg.num_steps
    ds = np.diff(times)
    exact = cfg.scheme is Scheme.EXACT_LOGNORMAL
    if exact:
        # per-step trapezoid integrals of the deterministic exponent parts
        m_step = 0.5 * ds * ((drift[:-1] - 0.5 * vol2[:-1]) + (drift[1:] - 0.5 * vol2[1:]))
        s_step = np.sqrt(0.5 * ds * (vol2[:-1] + vol2[1:]))
    else:
        d_step = drift[:-1] * ds
        e_step = np.sqrt(vol2[:-1]) * np.sqrt(ds)

    w0 = cfg.start_wealth
    pow_sums = np.zeros(8)                  # sums of W_T ** (1..8)
    node4 = np.zeros(n_steps + 1)           # sums of W_s ** 4 per node
    vec_sum = np.zeros(4)                   # (W_T, W_T^2, W_T^3, penalty)
    vec_outer = np.zeros((4, 4))
    min_w = w0

    for first in range(0, cfg.num_paths, _CHUNK):
        n = min(_CHUNK, cfg.num_paths - first)
        z = _path_normals(cfg.seed, first, n, n_steps)
        pen = np.zeros(n)
        logw = np.full(n, np.log(w0))
        w = np.full(n, w0)
        node4[0] += n * w0 ** 4
        for k in range(n_steps):
            w_prev = w
            if exact:
                logw = logw + m_step[k] + s_step[k] * z[:, k]
                w = np.exp(logw)
            else:
                w = w * (1.0 + d_step[k] + e_step[k] * z[:, k])
            pen += 0.5 * ds[k] * (pen_rate[k] * w_prev + pen_rate[k + 1] * w)
            node4[k + 1] += float(np.sum(w ** 4))
            min_w = min(min_w, float(np.min(w)))
        for p in range(1, 9):
            pow_sums[p - 1] += float(np.sum(w ** p))
        x = np.stack([w, w * w, w ** 3, pen])
        vec_sum += x.sum(axis=1)
        vec_outer += x @ x.T

    npaths = cfg.num_paths
    raw = pow_sums / npaths
    bessel = npaths / (npaths - 1.0)

    def estimate(k: int) -> MomentEstimate:
        var = max(0.0, (raw[2 * k - 1] - raw[k - 1] ** 2) * bessel)
        return MomentEstimate(value=raw[k - 1], std_error=float(np.sqrt(var / npaths)))

    moments = tuple(estimate(k) for k in range(1, 5))

    mean4 = vec_sum / npaths
    cov = (vec_outer / npaths - np.outer(mean4, mean4)) * bessel

    sup_idx = int(np.argmax(node4))
    result_penalty = result_objective = None
    if cfg.measure is Measure.DISTORTED:
        result_penalty = MomentEstimate(
            value=float(mean4[3]),
            std_error=float(np.sqrt(max(0.0, cov[3, 3]) / npaths)),
        )
        m1, m2, m3, mp = mean4
        g0, p0 = table.gamma0, table.phi0
        obj = _objective(m1, m2, m3, mp, w0, g0, p0)
        grad = np.array([
            1.0 + g0 * m1 / w0 + p0 / (w0 * w0) * (2.0 * m1 * m1 - m2),
            -0.5 * g0 / w0 - p0 * m1 / (w0 * w0),
            p0 / (3.0 * w0 * w0),
            1.0,
        ])
        obj_var = max(0.0, float(grad @ cov @ grad))
        result_objective = MomentEstimate(
            value=float(obj), std_error=float(np.sqrt(obj_var / npaths))
        )

    return SimResult(
        config=cfg,
        moments=moments,
        sup_fourth_moment=float(node4[sup_idx] / npaths),
        sup_fourth_time=float(times[sup_idx]),
        min_wealth=float(min_w),
        penalty=result_penalty,
        objective=result_objective,
    )


def simulate_equilibrium_wealth(
    table: SolvedTable,
    market: MarketCurves,
    cfg: SimConfig,
) -> SimResult:
    """Simulate the equilibrium wealth GBM described by a solved table."""
    return _simulate(table, _sim_curves(table, market, cfg), cfg)


def lognormal_moments(
    table: SolvedTable,
    market: MarketCurves,
    t: float,
    w: float,
    order: int,
    measure: Measure = Measure.DISTORTED,
) -> float:
    """Exact GBM moment ``E[W_T ** order]`` started from (t, w).

    Computed as ``w**n * exp(integral of n*drift + n(n-1)/2 * vol2)``
    with trapezoid quadrature on the solver grid; orders 1..3 must
    reproduce the solved ``g1 w``, ``h2 w**2``, ``h3 w**3``.
    """
    if order not in (1, 2, 3, 4):
        raise ConfigError(f"order must be 1..4, got {order}")
    _check_grids(table, market)
    horizon = table.grid.horizon
    if not 0.0 <= t <= horizon:
        raise OutOfHorizon(f"time {t} outside [0, {horizon}]")
    times, drift, vol2, _ = _tail_curves(table, market, t, measure)
    integrand = order * drift + 0.5 * order * (order - 1) * vol2
    return w ** order * float(np.exp(np.trapezoid(integrand, times)))


@dataclass(frozen=True)
class ValueCheck:
    """Objective reassembly compared against the solved value function."""

    time: float
    wealth: float
    value: float
    analytic_objective: float
    analytic_rel_err: float
    mc_objective: MomentEstimate
    mc_z: float
    sim: SimResult


def verify_value(
    table: SolvedTable,
    market: MarketCurves,
    t: float,
    w: float,
    cfg: SimConfig,
) -> ValueCheck:
    """Reassemble the objective from moments plus the penalty quadrature.

    The analytic route uses exact lognormal moments and a trapezoid
    penalty integral along the expected wealth curve; the Monte Carlo
    route assembles the same objective from sample moments.  Both are
    compared against the value function implied by the solved table,
    a coefficient table or a misspecified-strategy one, simulated under
    the distorted dynamics that table describes.
    """
    if t == table.grid.horizon:
        # degenerate terminal distribution: value equals wealth, no penalty
        est = MomentEstimate(value=w, std_error=0.0)
        sim = SimResult(
            config=replace(cfg, start_time=t, start_wealth=w),
            moments=tuple(MomentEstimate(w ** n, 0.0) for n in (1, 2, 3, 4)),
            sup_fourth_moment=w ** 4, sup_fourth_time=t, min_wealth=w,
            penalty=MomentEstimate(0.0, 0.0), objective=est,
        )
        return ValueCheck(
            time=t, wealth=w, value=w, analytic_objective=w,
            analytic_rel_err=0.0, mc_objective=est, mc_z=0.0, sim=sim,
        )

    cfg = replace(cfg, start_time=t, start_wealth=w, measure=Measure.DISTORTED)
    paths = _sim_curves(table, market, cfg)
    d3_floor = float(table.delta3[table.grid.nodes >= t].min())
    if d3_floor <= 0.0 and (paths.pen_rate != 0.0).any():
        raise PenaltyUndefined(
            f"ambiguity preference scale nonpositive on the horizon "
            f"(min delta3 = {d3_floor:g})"
        )

    m1, m2, m3 = (lognormal_moments(table, market, t, w, n) for n in (1, 2, 3))
    times, drift, _, pen_rate = _tail_curves(table, market, t, Measure.DISTORTED)
    expected_w = w * np.exp(_cumtrapz(drift, times))
    penalty = float(np.trapezoid(pen_rate * expected_w, times))
    analytic = _objective(m1, m2, m3, penalty, w, table.gamma0, table.phi0)

    value = value_bracket(table, t) * w
    rel_err = abs(analytic - value) / abs(value)

    sim = _simulate(table, paths, cfg)
    mc = sim.objective
    z = (mc.value - value) / mc.std_error if mc.std_error > 0.0 else 0.0

    return ValueCheck(
        time=t, wealth=w, value=value,
        analytic_objective=float(analytic), analytic_rel_err=float(rel_err),
        mc_objective=mc, mc_z=float(z), sim=sim,
    )


@dataclass(frozen=True)
class MomentBound:
    """Finiteness check of the running fourth moment of wealth."""

    analytic_sup: float
    analytic_argmax_time: float
    mc_sup: float
    ratio: float
    finite: bool
    consistent: bool


def moment_bound_check(
    table: SolvedTable,
    market: MarketCurves,
    cfg: SimConfig,
    ratio_band: tuple[float, float] = (0.8, 1.25),
) -> MomentBound:
    """Compare the analytic running fourth moment with the sampled one.

    The analytic curve is ``w**4 * exp(integral of 4*drift + 6*vol2)``
    accumulated forward from the start node; the Monte Carlo figure is
    the maximum over sim nodes of the sample fourth moment.
    """
    paths = _sim_curves(table, market, cfg)
    grow = _cumtrapz(4.0 * paths.drift + 6.0 * paths.vol2, paths.times)
    curve = cfg.start_wealth ** 4 * np.exp(grow)
    idx = int(np.argmax(curve))
    analytic_sup = float(curve[idx])

    sim = _simulate(table, paths, cfg)
    ratio = sim.sup_fourth_moment / analytic_sup
    return MomentBound(
        analytic_sup=analytic_sup,
        analytic_argmax_time=float(paths.times[idx]),
        mc_sup=sim.sup_fourth_moment,
        ratio=float(ratio),
        finite=bool(np.isfinite(analytic_sup) and np.isfinite(sim.sup_fourth_moment)),
        consistent=bool(ratio_band[0] <= ratio <= ratio_band[1]),
    )
