"""Monte Carlo simulation of the equilibrium wealth process and oracles.

Under the worst-case (distorted) measure the equilibrium wealth is an
explicit geometric Brownian motion with deterministic drift
``r + theta f / (xi+1)**2`` and squared volatility
``theta f**2 / (xi+1)**2``, so paths can be generated exactly from
per-step lognormal increments; an Euler-Maruyama scheme is retained
purely as a discretization cross-check.  A misspecified-strategy table
describes the same kind of process, driven by the naive strategy's ratio.
``_curves`` builds both kinds' curves at any times from ``risk_free_at``,
``theta_at`` and ``columns_at``.  Closed-form lognormal moments are the
independent oracle against the solved tables: orders 1..3 must reproduce
``g1 w``, ``h2 w**2`` and ``h3 w**3``, and the sampled running fourth
moment must stay within ``FOURTH_MOMENT_BAND`` of its closed form.  Each
oracle integral, the penalty's too, is Simpson's rule (``_tail_integrals``).

Randomness is counter-based: path ``i`` consumes a fixed block range of
a Philox stream keyed by the seed.  Each chunk's normals are filled in
place, in row slices on up to four threads, and accumulated on
the calling thread in chunk order: estimates as plain sums, standard
errors from one centred comoment matrix (``_merge``).  So results are
bitwise independent of the worker count.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, OutOfHorizon, PenaltyUndefined, UnsolvedTable
from .market import MarketCurves
from .policy import value_bracket
from .solver import MispecTable, SolvedTable

_CHUNK = 16384          # paths per accumulation block, fixed for determinism
_MIN_UNIFORM = 5e-324   # keeps ndtri finite if a raw uniform is exactly 0
FOURTH_MOMENT_BAND = (0.8, 1.25)  # sampled / analytic running fourth moment


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

    def z_score(self, target: float) -> float:
        """``(value - target) / std_error``, or 0 for a zero standard error."""
        return float((self.value - target) / self.std_error) if self.std_error > 0.0 else 0.0


@dataclass(frozen=True)
class SimResult:
    """Path statistics; moments are raw moments of terminal wealth."""

    config: SimConfig
    moments: tuple[MomentEstimate, MomentEstimate, MomentEstimate, MomentEstimate]
    sup_fourth_moment: float
    min_wealth: float
    penalty: MomentEstimate | None
    objective: MomentEstimate | None


class _Curves(NamedTuple):
    """Deterministic curves of one wealth GBM at increasing times."""

    times: np.ndarray
    drift: np.ndarray
    vol2: np.ndarray
    pen_rate: np.ndarray   # penalty integrand per unit wealth


def _curves(
    table: SolvedTable, market: MarketCurves, times: np.ndarray, measure: Measure
) -> _Curves:
    """The curves of the wealth GBM a solved table describes, at ``times``.

    The rates come from ``risk_free_at`` and ``theta_at`` and the table's
    columns from ``columns_at``, each exact at the nodes.  The investor
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
    if not table.grid.same_nodes(market.grid):
        raise UnsolvedTable(
            f"table grid ({table.grid.num_steps} steps over {table.grid.horizon}) "
            f"does not match market grid ({market.grid.num_steps} steps over "
            f"{market.grid.horizon})"
        )
    r, th = market.risk_free_at(times), market.theta_at(times)
    col = dict(zip(table.COLUMNS, table.columns_at(times).T))
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
    return _Curves(times, drift, vol2, pen_rate)


def _sim_curves(table: SolvedTable, market: MarketCurves, cfg: SimConfig) -> _Curves:
    """The curves on the simulation grid."""
    horizon = table.grid.horizon
    if not 0.0 <= cfg.start_time < horizon:
        raise OutOfHorizon(f"start_time {cfg.start_time} outside [0, {horizon})")
    times = np.linspace(cfg.start_time, horizon, cfg.num_steps + 1)
    return _curves(table, market, times, cfg.measure)


def _tail_times(table: SolvedTable, t: float) -> np.ndarray:
    """t and the grid nodes after it."""
    return np.concatenate([[t], table.grid.nodes[table.grid.nodes > t]])


def _cumtrapz(g: np.ndarray, times: np.ndarray) -> np.ndarray:
    """out[..., i] = trapezoid integral of each row of g from times[0] to times[i]."""
    steps = np.cumsum(0.5 * np.diff(times) * (g[..., :-1] + g[..., 1:]), axis=-1)
    return np.concatenate([np.zeros(g.shape[:-1] + (1,)), steps], axis=-1)


def _tail_integrals(table: SolvedTable, market: MarketCurves, times: np.ndarray,
                    measure: Measure, integrand) -> np.ndarray:
    """Integrals of each row of ``integrand(curves)`` from each of ``times`` to the last, as
    ``(4 R_half - R) / 3`` (Simpson's rule per step): ``R`` the trapezoid rule on ``times``,
    ``R_half`` on their steps halved.  The curves are built once, at ``times`` and each
    step's midpoint; ``integrand`` may hold a trapezoid rule on the grid it is given."""
    fine = np.empty(2 * times.size - 1)
    fine[::2], fine[1::2] = times, 0.5 * (times[:-1] + times[1:])
    curves = _curves(table, market, fine, measure)
    half, plain = integrand(curves), integrand(_Curves(*(c[::2] for c in curves)))
    return -(4.0 * _cumtrapz(half[..., ::-1], fine[::-1])[..., ::2]
             - _cumtrapz(plain[..., ::-1], times[::-1]))[..., ::-1] / 3.0


def _objective(m1, m2, m3, penalty, w: float, gamma0: float, phi0: float):
    """Mean-variance-skewness objective from raw moments of terminal
    wealth, plus the ambiguity penalty, started from wealth w."""
    return (
        m1
        - 0.5 * gamma0 / w * (m2 - m1 * m1)
        + phi0 / (3.0 * w * w) * (m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3)
        + penalty
    )


def _normal_workers() -> int:
    """Threads that fill the normals: the CPUs this process may use, at most 4."""
    return min(4, len(os.sched_getaffinity(0)))


def _path_normals(seed: int, first_path: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Standard normals, row i belonging to global path ``first_path + i``.

    Each path owns ``ceil(n_steps / 4)`` whole Philox blocks, so the
    draws for a path do not depend on how paths are chunked, nor on
    which thread fills the row slice they fall in.
    """
    from scipy.special import ndtri  # imported here: only simulating pays scipy's start-up
    blocks_per_path = (n_steps + 3) // 4
    z = np.empty((n_paths, blocks_per_path * 4))

    def fill(lo: int, hi: int) -> None:
        rows = z[lo:hi]
        bitgen = np.random.Philox(key=seed, counter=(first_path + lo) * blocks_per_path)
        np.random.Generator(bitgen).random(out=rows)
        np.maximum(rows, _MIN_UNIFORM, out=rows)
        ndtri(rows, out=rows)

    from concurrent.futures import ThreadPoolExecutor  # no thread until a simulation
    workers = _normal_workers()
    bounds = [n_paths * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, bounds[:-1], bounds[1:]))
    return z[:, :n_steps]


def _merge(sums, centre, comoments, count: int, x: np.ndarray) -> None:
    """Add paths ``x``, a row per quantity, to the plain ``sums``, the mean ``centre``
    and the centred ``comoments`` of ``count`` earlier paths, in place (Chan, Golub &
    LeVeque, 1983).  Centring on the first path plus the mean offset zeroes a constant row."""
    n = x.shape[1]
    chunk_mean = x[:, 0] + (x - x[:, :1]).sum(axis=1) / n
    centred = x - chunk_mean[:, None]
    delta = chunk_mean - centre
    comoments += centred @ centred.T + np.outer(delta, delta) * (count * n / (count + n))
    centre += delta * (n / (count + n))
    sums += x.sum(axis=1)


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
    node4 = np.zeros(n_steps + 1)           # sums of W_s ** 4 per node
    sums = np.zeros(5)                      # of (W_T, W_T^2, W_T^3, W_T^4, penalty)
    centre = np.zeros(5)                    # their mean, merged chunk by chunk
    comoments = np.zeros((5, 5))            # sums of (x - centre)(x - centre)'
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
        _merge(sums, centre, comoments, first, np.stack([w, w * w, w ** 3, w ** 4, pen]))

    npaths = cfg.num_paths
    mean = sums / npaths
    cov = comoments / (npaths - 1.0)
    se = np.sqrt(np.diag(cov) / npaths)
    moments = tuple(MomentEstimate(value=mean[k], std_error=float(se[k])) for k in range(4))

    result_penalty = result_objective = None
    if cfg.measure is Measure.DISTORTED:
        result_penalty = MomentEstimate(value=float(mean[4]), std_error=float(se[4]))
        m1, m2, m3, _, mp = mean
        g0, p0 = table.gamma0, table.phi0
        obj = _objective(m1, m2, m3, mp, w0, g0, p0)
        grad = np.array([
            1.0 + g0 * m1 / w0 + p0 / (w0 * w0) * (2.0 * m1 * m1 - m2),
            -0.5 * g0 / w0 - p0 * m1 / (w0 * w0),
            p0 / (3.0 * w0 * w0),
            1.0,
        ])
        block = cov[np.ix_((0, 1, 2, 4), (0, 1, 2, 4))]
        obj_var = max(0.0, float(grad @ block @ grad))
        result_objective = MomentEstimate(
            value=float(obj), std_error=float(np.sqrt(obj_var / npaths))
        )

    return SimResult(
        config=cfg,
        moments=moments,
        sup_fourth_moment=float(node4.max() / npaths),
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


def log_moment_growth(table: SolvedTable, market: MarketCurves, t: float, orders: tuple[int, ...],
                      measure: Measure = Measure.DISTORTED) -> np.ndarray:
    """``log(E[W_T ** n] / w ** n)`` from t and each node after it, a row per
    order ``n``: ``n*drift + n(n-1)/2 * vol2`` integrated to the horizon."""
    return _tail_integrals(table, market, _tail_times(table, t), measure, lambda c: np.array(
        [n * c.drift + 0.5 * n * (n - 1) * c.vol2 for n in orders]))


def lognormal_moments(
    table: SolvedTable,
    market: MarketCurves,
    t: float,
    w: float,
    order: int,
    measure: Measure = Measure.DISTORTED,
) -> float:
    """Exact GBM moment ``E[W_T ** order]`` started from (t, w), as
    ``w**order * exp(log_moment_growth)``; orders 1..3 must reproduce
    the solved ``g1 w``, ``h2 w**2``, ``h3 w**3``.
    """
    if order not in (1, 2, 3, 4):
        raise ConfigError(f"order must be 1..4, got {order}")
    return w ** order * float(np.exp(log_moment_growth(table, market, t, (order,), measure)[0, 0]))


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
    sim: SimResult | None = None,
) -> ValueCheck:
    """Reassemble the objective from moments plus the penalty quadrature.

    The analytic route integrates the moments and the penalty along the
    expected wealth curve by ``_tail_integrals``; the Monte Carlo route
    assembles the same objective from sample moments.  Both are
    compared against the value function implied by the solved table,
    a coefficient table or a misspecified-strategy one, simulated under
    the distorted dynamics that table describes.  A given ``sim`` is
    reused when it ran ``cfg`` from (t, w) under the distorted measure.
    """
    if t == table.grid.horizon:
        # degenerate terminal distribution: value equals wealth, no penalty
        est = MomentEstimate(value=w, std_error=0.0)
        sim = SimResult(
            config=replace(cfg, start_time=t, start_wealth=w),
            moments=tuple(MomentEstimate(w ** n, 0.0) for n in (1, 2, 3, 4)),
            sup_fourth_moment=w ** 4, min_wealth=w,
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

    m1, m2, m3 = w ** np.arange(1, 4) * np.exp(log_moment_growth(table, market, t, (1, 2, 3))[:, 0])
    penalty = _tail_integrals(table, market, _tail_times(table, t), Measure.DISTORTED,
                              lambda c: c.pen_rate * np.exp(_cumtrapz(c.drift, c.times)))[0]
    analytic = _objective(m1, m2, m3, w * penalty, w, table.gamma0, table.phi0)

    value = value_bracket(table, t) * w
    rel_err = abs(analytic - value) / abs(value)

    if sim is None or sim.config != cfg:
        sim = _simulate(table, paths, cfg)
    mc = sim.objective
    return ValueCheck(
        time=t, wealth=w, value=value,
        analytic_objective=float(analytic), analytic_rel_err=float(rel_err),
        mc_objective=mc, mc_z=mc.z_score(value), sim=sim,
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
    table: SolvedTable, market: MarketCurves, cfg: SimConfig, sim: SimResult | None = None,
) -> MomentBound:
    """Compare the analytic running fourth moment with the sampled one.

    The analytic curve is ``w**4 * exp(integral of 4*drift + 6*vol2)``
    from the start to each sim node, by ``_tail_integrals``; the Monte
    Carlo figure is the maximum over sim nodes of the sample fourth moment.
    They are consistent when their ratio lies in ``FOURTH_MOMENT_BAND``.
    A given ``sim`` run with ``cfg`` is reused.
    """
    paths = _sim_curves(table, market, cfg)
    tail = _tail_integrals(table, market, paths.times, cfg.measure,
                           lambda c: 4.0 * c.drift + 6.0 * c.vol2)
    curve = cfg.start_wealth ** 4 * np.exp(tail[0] - tail)
    idx = int(np.argmax(curve))
    analytic_sup = float(curve[idx])

    if sim is None or sim.config != cfg:
        sim = _simulate(table, paths, cfg)
    ratio = sim.sup_fourth_moment / analytic_sup
    return MomentBound(
        analytic_sup=analytic_sup,
        analytic_argmax_time=float(paths.times[idx]),
        mc_sup=sim.sup_fourth_moment,
        ratio=float(ratio),
        finite=bool(np.isfinite(analytic_sup) and np.isfinite(sim.sup_fourth_moment)),
        consistent=bool(FOURTH_MOMENT_BAND[0] <= ratio <= FOURTH_MOMENT_BAND[1]),
    )
