"""Monte Carlo simulation of the equilibrium wealth process and oracles.

Under the worst-case (distorted) measure the equilibrium wealth is an
explicit geometric Brownian motion with deterministic drift
``r + theta f / (xi+1)**2`` and squared volatility
``theta f**2 / (xi+1)**2``, so paths can be generated exactly from
per-step lognormal increments; an Euler-Maruyama scheme is retained
purely as a discretization cross-check.  A misspecified-strategy table
describes the same kind of process, driven by the naive strategy's ratio.
``_curves`` builds both kinds' curves at any times from the market the
table carries (``risk_free_at``, ``theta_at``) and its ``columns_at``.
Closed-form lognormal moments are the independent oracle against the
solved tables: orders 1..3 must reproduce ``g1 w``, ``h2 w**2`` and
``h3 w**3``, and the sampled running fourth moment must stay within
``FOURTH_MOMENT_BAND`` of its closed form.  Each oracle integral, the
penalty's too, is Simpson's rule (``_tail_integrals``).
Overflow fails a band without a warning: ``_simulate``, its pool task
``march`` (for itself: a pool thread starts from numpy's default error
state) and ``moment_bound_check`` ignore numpy's floating-point errors,
and a non-finite standard error gives a z-score of NaN, failing every band.

Randomness is counter-based: path ``i`` consumes a fixed block range of
a Philox stream keyed by the seed.  Paths are accumulated on the calling
thread in chunks, in order: estimates as plain sums, standard errors
from one centred comoment matrix (``_merge``).  A chunk marches in
leaves split where numpy's pairwise sum splits it (``_leaves``), so its
per-step sums rebuilt from the leaves are bitwise whole-chunk sums.  A
leaf marches ``_STEP_BLOCK`` steps per numpy call, a row per step; only
the wealth recursion and the penalty sum take a call per step, and each
value gets the same operands in the same order as a step-by-step march.
Each leaf is one task on a pool of up to four threads: it fills its own
normals into a buffer of its own and marches them.  The calling thread
folds the leaves' results in ``_leaves`` order with at most one leaf per
thread in flight past the one it folds, so at most one buffer per thread
is alive, and results are bitwise independent of the worker count.
"""

from __future__ import annotations

import enum
import os
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, OutOfHorizon, PenaltyUndefined
from .policy import value_bracket
from .solver import MispecTable, SolvedTable

_CHUNK = 16384          # paths per accumulation block, fixed for determinism
_LEAF = 1024            # most paths marched and filled at once; only memory depends on it
_STEP_BLOCK = 25        # steps marched per numpy call on a leaf; only speed depends on it
_MIN_UNIFORM = 5e-324   # keeps ndtri finite if a raw uniform is exactly 0
_MAX_WEALTH = float(np.finfo(float).max) ** 0.25  # a start wealth's w ** 4 overflows from here
FOURTH_MOMENT_BAND = (0.8, 1.25)  # sampled / analytic running fourth moment
# Caps on a simulation's size, each keeping its share of the traced peak under 1 GB:
MAX_PATHS = 5_000_000_000  # 0.114 bytes a path, the queue of leaves
MAX_STEPS = 20_000         # 33 kB a step, four workers' normals in flight


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
    scheme: Scheme = Scheme.EXACT_LOGNORMAL
    measure: Measure = Measure.DISTORTED
    start_time: float = 0.0
    start_wealth: float = 4.0
    num_steps: int = 200

    def __post_init__(self):
        if not 2 <= self.num_paths <= MAX_PATHS:
            raise ConfigError(f"num_paths must be in [2, {MAX_PATHS}], got {self.num_paths}")
        if not 1 <= self.num_steps <= MAX_STEPS:
            raise ConfigError(f"num_steps must be in [1, {MAX_STEPS}], got {self.num_steps}")
        if not 0.0 < self.start_wealth < _MAX_WEALTH:  # NaN fails too
            raise ConfigError(f"start_wealth must be positive and below {_MAX_WEALTH:.5g}, "
                              f"got {self.start_wealth}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float

    def z_score(self, target: float) -> float:
        """``(value - target) / std_error``: 0 if std_error is 0, NaN if it is not finite."""
        if not np.isfinite(self.std_error):
            return np.nan
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


def _curves(table: SolvedTable, times: np.ndarray, measure: Measure) -> _Curves:
    """The curves of the wealth GBM a solved table describes, at ``times``.

    The rates come from the table's market (``risk_free_at``, ``theta_at``) and
    its columns from ``columns_at``, each exact at the nodes.  The investor
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
    r, th = table.market.risk_free_at(times), table.market.theta_at(times)
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


def _sim_curves(table: SolvedTable, cfg: SimConfig) -> _Curves:
    """The curves on ``num_steps`` equal steps from the start time to the horizon."""
    horizon = table.grid.horizon
    if not 0.0 <= cfg.start_time < horizon:
        raise OutOfHorizon(f"start_time {cfg.start_time} outside [0, {horizon})")
    return _curves(table, np.linspace(cfg.start_time, horizon, cfg.num_steps + 1), cfg.measure)


def _tail_times(table: SolvedTable, t: float) -> np.ndarray:
    """t and the grid nodes after it."""
    return np.concatenate([[t], table.grid.nodes[table.grid.nodes > t]])


def _cumtrapz(g: np.ndarray, times: np.ndarray) -> np.ndarray:
    """out[..., i] = trapezoid integral of each row of g from times[0] to times[i]."""
    steps = np.cumsum(0.5 * np.diff(times) * (g[..., :-1] + g[..., 1:]), axis=-1)
    return np.concatenate([np.zeros(g.shape[:-1] + (1,)), steps], axis=-1)


def _reverse_cumtrapz(g: np.ndarray, dt) -> np.ndarray:
    """out[..., i] = trapezoid integral of each row of g from node i to the
    last node; ``dt`` holds each step's width."""
    inc = 0.5 * dt * (g[..., :-1] + g[..., 1:])
    out = np.empty_like(g)
    out[..., -1] = 0.0
    out[..., :-1] = np.cumsum(inc[..., ::-1], axis=-1)[..., ::-1]
    return out


def _tail_integrals(table: SolvedTable, times: np.ndarray, measure: Measure, integrand,
                    plain: _Curves | None = None) -> np.ndarray:
    """Integrals of each row of ``integrand(curves)`` from each of ``times`` to the last, as
    ``(4 R_half - R) / 3`` (Simpson's rule per step): ``R`` is ``_reverse_cumtrapz`` on
    ``times``, ``R_half`` on their steps halved.  The curves are built once, at ``times`` and
    each step's midpoint, or only at the midpoints when ``plain`` holds those at ``times``;
    ``integrand`` may hold a trapezoid rule of its own."""
    mid, at = 0.5 * (times[:-1] + times[1:]), np.arange(1, times.size)
    if plain is None:
        fine = _curves(table, np.insert(times, at, mid), measure)
        plain = _Curves(*(c[::2] for c in fine))
    else:
        fine = _Curves(*(np.insert(p, at, m) for p, m in zip(plain, _curves(table, mid, measure))))
    return (4.0 * _reverse_cumtrapz(integrand(fine), np.diff(fine.times))[..., ::2]
            - _reverse_cumtrapz(integrand(plain), np.diff(times))) / 3.0


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
    """Threads that fill and march the leaves: the CPUs this process may use, at most 4."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return min(4, len(affinity(0)) if affinity else os.cpu_count() or 1)


def _fill_normals(seed: int, first_path: int, z: np.ndarray) -> None:
    """Fill ``z`` with standard normals on the calling thread, row i belonging to global
    path ``first_path + i``.  Each path owns ``z.shape[1] / 4`` whole Philox blocks, so its
    draws depend neither on how paths are chunked nor on which thread fills them."""
    from scipy.special import ndtri  # imported here: only simulating pays scipy's start-up
    bitgen = np.random.Philox(key=seed, counter=first_path * (z.shape[1] // 4))
    np.random.Generator(bitgen).random(out=z)
    np.maximum(z, _MIN_UNIFORM, out=z)
    ndtri(z, out=z)


def _leaves(first: int, n: int) -> list[tuple[int, int]]:
    """First path and size of each leaf of paths ``first .. first + n``, in order: numpy's
    pairwise sum of ``n`` contiguous float64s halves them at ``_half(n)`` until at most
    ``_LEAF`` are left (``pairwise_sum`` in numpy's ``loops_utils.h.src``)."""
    if n <= _LEAF:
        return [(first, n)]
    h = _half(n)
    return _leaves(first, h) + _leaves(first + h, n - h)


def _half(n: int) -> int:
    """Where numpy's pairwise sum splits ``n`` values: half, rounded down to a multiple of 8."""
    return n // 2 - (n // 2) % 8


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


@np.errstate(all="ignore")
def _simulate(table: SolvedTable, curves: _Curves, cfg: SimConfig) -> SimResult:
    from concurrent.futures import ThreadPoolExecutor  # no thread until a simulation
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

    @np.errstate(all="ignore")  # not inherited: a pool thread has its own error state
    def march(first: int, n: int):
        """Fill and march the leaf of paths ``first .. first + n``: their final wealth and
        penalty, and their per-step ``np.sum(W ** 4)`` and ``np.min(W)``."""
        z = np.empty((n, (n_steps + 3) // 4 * 4))
        _fill_normals(cfg.seed, first, z)
        s4, low = np.empty(n_steps), np.empty(n_steps)
        pen = np.zeros(n)
        logw = np.full(n, np.log(w0))
        w = np.full(n, w0)
        pen_w = pen_rate[0] * w
        blocks = np.empty((2, min(_STEP_BLOCK, n_steps), n))
        for k0 in range(0, n_steps, _STEP_BLOCK):
            steps = slice(k0, min(k0 + _STEP_BLOCK, n_steps))
            # a row per step; logw, w and pen_w carry over as copies, for W and P are reused
            W, P = blocks[:, :steps.stop - k0]
            if exact:
                np.multiply(s_step[steps, None], z[:, steps].T, out=W)
                for j, m in enumerate(m_step[steps]):
                    np.add(W[j - 1] if j else logw, m, out=P[j])
                    W[j] += P[j]
                logw[:] = W[-1]
                np.exp(W, out=W)
            else:
                np.multiply(e_step[steps, None], z[:, steps].T, out=W)
                W += 1.0 + d_step[steps, None]
                for j in range(len(W)):
                    W[j] *= W[j - 1] if j else w
            w[:] = W[-1]
            s4[steps] = np.power(W, 4, out=P).sum(axis=1)
            low[steps] = W.min(axis=1)
            np.multiply(pen_rate[k0 + 1:steps.stop + 1, None], W, out=P)
            np.add(P[:-1], P[1:], out=W[1:])
            np.add(pen_w, P[0], out=W[0])
            pen_w[:] = P[-1]
            W *= 0.5 * ds[steps, None]
            for inc in W:  # in step order
                pen += inc
        return w, pen, s4, low

    def fold(w_out: np.ndarray, pen_out: np.ndarray):
        """Take the next ``len(w_out)`` paths' results, leaf by leaf, into ``w_out`` and
        ``pen_out``; their per-step sums and minima, added in numpy's pairwise order."""
        n = len(w_out)
        if n > _LEAF:
            h = _half(n)
            (s4, low), (s4_right, low_right) = (fold(w_out[:h], pen_out[:h]),
                                                fold(w_out[h:], pen_out[h:]))
            return s4 + s4_right, np.minimum(low, low_right)
        while leaves and len(marched) <= workers:  # keeps ``workers`` in flight past this one
            marched.append(pool.submit(march, *leaves.popleft()))
        w_out[:], pen_out[:], s4, low = marched.popleft().result()  # raises what march raised
        return s4, low

    workers = _normal_workers()
    leaves = deque(leaf for first in range(0, cfg.num_paths, _CHUNK)
                   for leaf in _leaves(first, min(_CHUNK, cfg.num_paths - first)))
    marched = deque()
    with ThreadPoolExecutor(workers) as pool:
        for first in range(0, cfg.num_paths, _CHUNK):
            n = min(_CHUNK, cfg.num_paths - first)
            w, pen = np.empty(n), np.empty(n)
            s4, low = fold(w, pen)
            node4[0] += n * w0 ** 4
            node4[1:] += s4
            min_w = min(min_w, *low.tolist())
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
        obj_var = float(grad @ block @ grad)
        if obj_var <= 0.0:  # rounding below zero; a NaN stays, to fail the band
            obj_var = 0.0
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


def simulate_equilibrium_wealth(table: SolvedTable, cfg: SimConfig) -> SimResult:
    """Simulate the equilibrium wealth GBM described by a solved table."""
    return _simulate(table, _sim_curves(table, cfg), cfg)


def _growth_rates(c: _Curves, orders: tuple[int, ...]) -> list[np.ndarray]:
    """``n*drift + n(n-1)/2 * vol2``, the rate of ``log E[W ** n]``, for each order ``n``."""
    return [n * c.drift + 0.5 * n * (n - 1) * c.vol2 for n in orders]


def log_moment_growth(table: SolvedTable, t: float, orders: tuple[int, ...],
                      measure: Measure = Measure.DISTORTED) -> np.ndarray:
    """``log(E[W_T ** n] / w ** n)`` from t and each node after it, a row per order ``n``."""
    return _tail_integrals(table, _tail_times(table, t), measure,
                           lambda c: np.array(_growth_rates(c, orders)))


def lognormal_moments(
    table: SolvedTable,
    t: float,
    w: float,
    orders: tuple[int, ...],
    measure: Measure = Measure.DISTORTED,
) -> tuple[float, ...]:
    """Exact GBM moments ``E[W_T ** n]`` started from (t, w), one per order
    ``n`` in ``orders``, as ``w**n * exp(log_moment_growth)`` from one build of
    the tail curves; orders 1..3 must reproduce the solved ``g1 w``,
    ``h2 w**2``, ``h3 w**3``.
    """
    if not orders or any(n not in (1, 2, 3, 4) for n in orders):
        raise ConfigError(f"orders must be in 1..4, got {orders}")
    growth = log_moment_growth(table, t, orders, measure)[:, 0]
    return tuple(w ** n * float(np.exp(g)) for n, g in zip(orders, growth))


@dataclass(frozen=True)
class ValueCheck:
    """Objective reassembly compared against the solved value function."""

    value: float
    analytic_rel_err: float
    mc_z: float
    sim: SimResult


def verify_value(
    table: SolvedTable,
    t: float,
    w: float,
    cfg: SimConfig,
    sim: SimResult | None = None,
) -> ValueCheck:
    """Reassemble the objective from moments plus the penalty quadrature.

    The analytic route integrates the moments of orders 1..3 and the penalty
    along the expected wealth curve in one ``_tail_integrals`` call; the
    Monte Carlo route assembles the same objective from sample moments.
    Both are compared against the value function implied by the solved
    table, a coefficient table or a misspecified-strategy one, simulated
    under the distorted dynamics that table describes.  A given ``sim`` is
    reused when it ran ``cfg`` from (t, w) under the distorted measure.
    A ``t`` outside ``[0, T)`` raises ``OutOfHorizon``.
    """
    cfg = replace(cfg, start_time=t, start_wealth=w, measure=Measure.DISTORTED)
    paths = _sim_curves(table, cfg)
    d3_floor = float(table.delta3[table.grid.nodes >= t].min())
    if d3_floor <= 0.0 and (paths.pen_rate != 0.0).any():
        raise PenaltyUndefined(
            f"ambiguity preference scale nonpositive on the horizon "
            f"(min delta3 = {d3_floor:g})"
        )

    tails = _tail_integrals(table, _tail_times(table, t), Measure.DISTORTED, lambda c: np.array(
        [*_growth_rates(c, (1, 2, 3)), c.pen_rate * np.exp(_cumtrapz(c.drift, c.times))]))[:, 0]
    m1, m2, m3 = (w ** n * float(np.exp(g)) for n, g in zip((1, 2, 3), tails))
    analytic = _objective(m1, m2, m3, w * tails[3], w, table.gamma0, table.phi0)

    value = value_bracket(table, t) * w
    rel_err = abs(analytic - value) / abs(value)

    if sim is None or sim.config != cfg:
        sim = _simulate(table, paths, cfg)
    return ValueCheck(value, float(rel_err), sim.objective.z_score(value), sim)


@dataclass(frozen=True)
class MomentBound:
    """Finiteness check of the running fourth moment of wealth."""

    analytic_sup: float
    analytic_argmax_time: float
    mc_sup: float
    ratio: float
    finite: bool
    consistent: bool


@np.errstate(all="ignore")
def moment_bound_check(
    table: SolvedTable, cfg: SimConfig, sim: SimResult | None = None,
) -> MomentBound:
    """Compare the analytic running fourth moment with the sampled one.

    The analytic curve is ``w**4 * exp(integral of 4*drift + 6*vol2)``
    from the start to each sim node, by ``_tail_integrals``; the Monte
    Carlo figure is the maximum over sim nodes of the sample fourth moment.
    They are consistent when their ratio lies in ``FOURTH_MOMENT_BAND``.
    A given ``sim`` run with ``cfg`` is reused.
    """
    paths = _sim_curves(table, cfg)
    tail = _tail_integrals(table, paths.times, cfg.measure,
                           lambda c: 4.0 * c.drift + 6.0 * c.vol2, plain=paths)
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
