"""Backward coefficient systems and their fixed-point oracle.

Everything the policy, value, and simulation layers consume is a table
of time functions solved backward from the horizon:

* ``solve_system`` integrates the differential-algebraic system for
  ``(h1, h2, h3, g1)`` with classical RK4, evaluating the ratio
  function ``f`` algebraically from the state inside every stage.
  ``k1`` has the same equation and terminal value as ``h2``, so it is
  not integrated: its column is ``h2``.  The
  four model variants (full robust, ambiguity-neutral, no-skewness,
  basic) are exact termwise reductions of one another obtained by
  zeroing the ambiguity weight and/or the skewness weight, so a single
  integrator serves all of them.

* ``solve_f_picard`` solves the equivalent integral equation for ``f``
  by damped fixed-point iteration on the same grid (trapezoid
  quadrature), backed by a backward-continuation fallback for
  parameter sets where the plain iteration is not contractive.  It is
  an independent numerical route to the same unique solution and is
  used as an oracle for ``solve_system``.

* ``solve_mispec_system`` solves the analogous backward system for the
  value of an investor who follows a pre-specified naive strategy
  (ignoring model uncertainty, or both uncertainty and skewness) while
  nature still distorts the measure.

Every backward system is one *lane* of ``integrate_lanes``, a single
RK4 over a lane axis: a sweep integrates all of its distinct systems in
one call, and a misspecified-value lane reads, at every RK4 stage, the
ratio of the coefficient lane that drives it.  A batch marches as lane
arrays when it is large or holds a misspecified lane; a small batch of
coefficient lanes marches each lane on Python floats.

The denominator of the algebraic ratio equals ``gamma0`` at the
terminal time and must stay positive for the backward solution to
exist; a lane fails with ``DegenerateDenominator`` as soon as it falls
below the guard ``eps_den``, which includes the genuine blow-up case
where it would cross zero inside the horizon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    ConfigError,
    DegenerateDenominator,
    MvsRobustError,
    NoConvergence,
    NonFiniteState,
    UnsolvedTable,
)
from .market import MarketCurves, Preferences, TimeGrid

DEFAULT_EPS_DEN = 1e-12
DEFAULT_PICARD_TOL = 1e-10
DEFAULT_PICARD_MAX_ITER = 500

# Batches of fewer coefficient lanes run each lane on Python floats.
# numpy's fixed cost per array operation (about 1 us) puts one step over
# lane arrays at 0.13-0.16 ms whatever the lane count, against about
# 11 us per lane-step on floats.  Measured on a 2-core x86 machine
# (Python 3.11, numpy 2.4) at 2,000 steps: 14 lanes take 0.20 s on
# floats and 0.26 s as arrays, 18 lanes 0.25 s and 0.28 s, 24 lanes
# 0.42 s and 0.31 s.
SCALAR_LANE_LIMIT = 20


class ModelVariant(enum.Enum):
    """Which reduction of the full robust model a table solves."""

    FULL = "full"
    AMBIGUITY_NEUTRAL = "neutral"
    NO_SKEW = "noskew"
    BASIC = "basic"

    def effective(self, prefs: Preferences) -> tuple[float, float, float]:
        """(gamma0, phi0, xi) actually used by this variant."""
        phi0 = 0.0 if self in (ModelVariant.NO_SKEW, ModelVariant.BASIC) else prefs.phi0
        xi = 0.0 if self in (ModelVariant.AMBIGUITY_NEUTRAL, ModelVariant.BASIC) else prefs.xi
        return prefs.gamma0, phi0, xi


class MispecKind(enum.Enum):
    """Which naive strategy drives a misspecified-value system."""

    IGNORE_UNCERTAINTY = "ignore_uncertainty"
    IGNORE_BOTH = "ignore_both"

    @property
    def driver_variant(self) -> ModelVariant:
        if self is MispecKind.IGNORE_UNCERTAINTY:
            return ModelVariant.AMBIGUITY_NEUTRAL
        return ModelVariant.BASIC

    def effective(self, prefs: Preferences) -> tuple[float, float, float]:
        """(gamma0, phi0, xi) of the value system: the true ambiguity
        weight always enters, the skewness weight only if the naive
        strategy keeps it."""
        phi0 = prefs.phi0 if self is MispecKind.IGNORE_UNCERTAINTY else 0.0
        return prefs.gamma0, phi0, prefs.xi


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


class SolvedTable:
    """What both table kinds share: frozen node columns and one interpolant.

    ``COLUMNS`` lists a kind's columns in lane order: the lane's own ratio,
    its state ``y1 .. y4``, ``y2`` again (``k1`` or ``c1``: the same
    equation and terminal value as ``y2``), ``delta3`` and, for a
    misspecified table, the driver's ratio.
    """

    COLUMNS: ClassVar[tuple[str, ...]]

    def __post_init__(self):
        for name in self.COLUMNS:
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    @cached_property
    def spline(self) -> CubicSpline:
        """Cubic spline of every column (``COLUMNS`` order on the last
        axis), built on first use and then kept."""
        return CubicSpline(
            self.grid.nodes, np.column_stack([getattr(self, name) for name in self.COLUMNS])
        )


@dataclass(frozen=True)
class CoefficientTable(SolvedTable):
    """Solved grid functions for one model variant.

    ``gamma0``, ``phi0``, ``xi`` are the variant's effective values
    (zeroed where the variant demands it), so every downstream formula
    can be written once against the full model.  ``k1`` is ``h2`` by
    construction and is stored for the identity check.
    """

    COLUMNS = ("f", "h1", "h2", "h3", "g1", "k1", "delta3")

    variant: ModelVariant
    grid: TimeGrid
    gamma0: float
    phi0: float
    xi: float
    f: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    g1: np.ndarray
    k1: np.ndarray
    delta3: np.ndarray


@dataclass(frozen=True)
class MispecTable(SolvedTable):
    """Solved grid functions for a misspecified-strategy value system.

    ``a`` is the value system's ratio and ``driver_f`` the naive
    strategy's; ``delta3`` is the value system's denominator.
    """

    COLUMNS = ("a", "a1", "a2", "a3", "b1", "c1", "delta3", "driver_f")

    kind: MispecKind
    grid: TimeGrid
    gamma0: float
    phi0: float
    xi: float
    driver_f: np.ndarray
    a: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b1: np.ndarray
    c1: np.ndarray
    delta3: np.ndarray


# ---------------------------------------------------------------------------
# Lane-batched backward RK4
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lane:
    """One backward system of a batch.

    ``market`` is the lane's index into the batch's markets, and
    ``gamma0``, ``phi0``, ``xi`` are its effective weights.  A
    coefficient lane has ``driver=None``.  A misspecified-value lane
    names the coefficient lane (an index into the same batch) whose
    ratio ``f`` is its strategy.
    """

    market: int
    gamma0: float
    phi0: float
    xi: float
    driver: int | None = None


@dataclass(frozen=True)
class LaneResult:
    """Outcome of one lane.

    ``error`` is the class of the lane's failure, ``message`` its text and
    ``node`` the grid node where it occurred.  On success, ``ratio0`` and
    ``state0`` are the ratio and ``(y1, y2, y3, y4)`` at node 0, and
    ``den_min`` is the smallest denominator over the nodes.  ``ratio``
    ``(N+1,)``, ``state`` ``(4, N+1)`` and ``den`` ``(N+1,)``, the
    denominator (a table's ``delta3``), are the full paths when kept.
    """

    error: type[MvsRobustError] | None = None
    message: str = ""
    node: int | None = None
    ratio0: float = math.nan
    state0: tuple[float, ...] = ()
    den_min: float = math.nan
    ratio: np.ndarray | None = None
    state: np.ndarray | None = None
    den: np.ndarray | None = None

    def check(self) -> "LaneResult":
        """This result, or raise its failure."""
        if self.error is not None:
            raise self.error(self.message)
        return self


class LanePlan:
    """A batch of distinct lanes: adding a lane twice returns its first index."""

    def __init__(self) -> None:
        self.lanes: list[Lane] = []
        self._index: dict[Lane, int] = {}

    def add(self, lane: Lane) -> int:
        if lane not in self._index:
            self._index[lane] = len(self.lanes)
            self.lanes.append(lane)
        return self._index[lane]

    def add_variant(self, market: int, prefs: Preferences, variant: ModelVariant) -> int:
        return self.add(Lane(market, *variant.effective(prefs)))

    def add_mispec(self, market: int, prefs: Preferences, kind: MispecKind) -> int:
        driver = self.add_variant(market, prefs, kind.driver_variant)
        return self.add(Lane(market, *kind.effective(prefs), driver=driver))

    def add_model(self, market: int, prefs: Preferences) -> tuple[int, ...]:
        """Lanes of the six tables of a ``SolvedModel``, in its field order."""
        return tuple(self.add_variant(market, prefs, v) for v in ModelVariant) + tuple(
            self.add_mispec(market, prefs, k) for k in MispecKind
        )


class _Group:
    """Per-lane constants of one group of lanes: floats for one lane, arrays for many.

    One formula serves both kinds of lane.  A coefficient lane's strategy
    is its own ratio, weighted by ``c = 1/(xi+1)^2``.  A misspecified-value
    lane's strategy is its driver's ratio, unweighted, and its drift
    carries the correction ``xi * v2 / ratio``; its ratio is guarded
    (``ratio_guard``) as well as its denominator.
    ``drv`` holds each lane's driver position in the group (its own for a
    coefficient lane), ``own`` maps the group's ratios to its strategies,
    and ``rates[j]`` gives ``(r, theta)`` at half-grid index ``j``.
    """

    def __init__(self, lanes: list[Lane], vec, rates, drv, own, eps_den: float) -> None:
        mis = [lane.driver is not None for lane in lanes]
        xi = vec([lane.xi for lane in lanes])
        self.g0 = vec([lane.gamma0 for lane in lanes])
        self.p0 = vec([lane.phi0 for lane in lanes])
        self.p2 = 2.0 * self.p0
        self.hxi = 0.5 * xi
        self.c = vec([1.0 if m else 1.0 / ((lane.xi + 1.0) * (lane.xi + 1.0))
                      for m, lane in zip(mis, lanes)])
        self.xi_mis = vec([lane.xi if m else 0.0 for m, lane in zip(mis, lanes)])
        self.is_mis = vec([1.0 if m else 0.0 for m in mis])
        self.is_coef = vec([0.0 if m else 1.0 for m in mis])
        self.ratio_guard = vec([eps_den if m else 0.0 for m in mis])
        self.rates = rates
        self.drv = drv
        self.own = own


class _Columns:
    """Half-grid rates of a lane group, gathered per index, never stored whole."""

    def __init__(self, rates: np.ndarray, cols: list[int]) -> None:
        self.rates = rates
        self.cols = np.asarray(cols, dtype=np.intp)

    def __getitem__(self, j: int) -> np.ndarray:
        return self.rates[j][:, self.cols]


class _Floats:
    """One lane per group as Python floats; a state is a 4-tuple."""

    any = bool
    minimum = min

    @staticmethod
    def flags(n):
        return True

    @staticmethod
    def vec(xs):
        return xs[0]

    @staticmethod
    def pack(*g):
        return g

    @staticmethod
    def axpy(y, s, g):
        return (y[0] + s * g[0], y[1] + s * g[1], y[2] + s * g[2], y[3] + s * g[3])

    @staticmethod
    def rk4(y, s, g1, g2, g3, g4):
        return (
            y[0] + s * (g1[0] + 2.0 * (g2[0] + g3[0]) + g4[0]),
            y[1] + s * (g1[1] + 2.0 * (g2[1] + g3[1]) + g4[1]),
            y[2] + s * (g1[2] + 2.0 * (g2[2] + g3[2]) + g4[2]),
            y[3] + s * (g1[3] + 2.0 * (g2[3] + g3[3]) + g4[3]),
        )

    @staticmethod
    def nonfinite(y):
        return not all(map(math.isfinite, y))

    @staticmethod
    def group(batch, rates, eps_den):
        col = rates[:, :, batch[0].market].tolist()
        return _Group(batch, _Floats.vec, col, [0], lambda ratio: ratio, eps_den)


class _Arrays:
    """Many lanes per group as arrays over the lane axis; a state is ``(4, L)``."""

    minimum = np.minimum

    @staticmethod
    def any(a):
        return a.any()

    @staticmethod
    def flags(n):
        return np.ones(n, bool)

    @staticmethod
    def vec(xs):
        return np.array(xs, dtype=float)

    @staticmethod
    def pack(*g):
        return np.array(g)

    @staticmethod
    def axpy(y, s, g):
        return y + s * g

    @staticmethod
    def rk4(y, s, g1, g2, g3, g4):
        return y + s * (g1 + 2.0 * (g2 + g3) + g4)

    @staticmethod
    def nonfinite(y):
        return ~np.isfinite(y).all(axis=0)

    @staticmethod
    def group(batch, rates, eps_den):
        drv = np.array([p if lane.driver is None else lane.driver for p, lane in enumerate(batch)],
                       dtype=np.intp)
        cols = _Columns(rates, [lane.market for lane in batch])
        return _Group(batch, _Arrays.vec, cols, drv, lambda ratio: ratio[drv], eps_den)


def _rhs(ops, y, par: _Group, rates):
    """Right-hand side ``G`` (``dy/dt = -G``), ratio and denominator.

    Written with ``+ - * /`` only, so it gives bitwise the same numbers
    on Python floats and on lane arrays.  ``par.own`` picks each lane's
    strategy from the group's ratios at the same stage: a coefficient
    lane's own, a misspecified lane's driver's.
    """
    r, th = rates
    y1, y2, y3, y4 = y
    q, w = y4 * y4, y4 * y2
    den = par.g0 * y2 + par.p2 * (w - y3)
    ratio = (y1 + par.g0 * (q - y2) + par.p0 * (y3 + 2.0 * q * y4 - 3.0 * w)) / den
    s = par.own(ratio)
    tf = th * s
    v2 = tf * s * par.c
    # the correction divides by the ratio of misspecified lanes only
    a = r + tf * par.c - par.xi_mis * v2 / (ratio * par.is_mis + par.is_coef)
    b = 2.0 * a + v2
    pen = par.hxi * v2 * den
    return ops.pack(a * y1 + pen, b * y2, 3.0 * (a + v2) * y3, a * y4), ratio, den


def _march(batch, rates, grid, eps_den, keep, ops):
    """Backward RK4 of every lane of ``batch``; returns its ``LaneResult`` list.

    Every guard is per lane and per stage.  A failing lane keeps its
    node and error class and is left out of every result; a lane whose
    driver fails fails with it; every other lane goes on.  On floats
    (``ops`` is ``_Floats``, one coefficient lane) an exactly zero
    divisor raises ``ZeroDivisionError``, and the caller reruns the lane
    as arrays.
    """
    n, dt = grid.num_steps, grid.dt
    hh, h6 = 0.5 * dt, dt / 6.0
    par = ops.group(batch, rates, eps_den)
    errors: dict[int, LaneResult] = {}

    def stage(y, rt):
        g, ratio, den = _rhs(ops, y, par, rt)
        return g, ratio, den, (den < eps_den) | (abs(ratio) < par.ratio_guard)

    def fail(alive, newly, degenerate, k):
        """Record the lanes ``newly`` failed in the step from node ``k``,
        then fail the living lanes whose driver has failed."""
        degenerate = np.broadcast_to(degenerate, np.shape(newly)).reshape(-1)
        for p in np.flatnonzero(newly):
            coef = batch[p].driver is None
            if degenerate[p]:
                what = "coefficient denominator" if coef else "value-system denominator or ratio"
                errors[p] = LaneResult(DegenerateDenominator, f"{what} below guard "
                                       f"{eps_den:g} at node {k} (t = {grid.nodes[k]:g})", k)
            else:
                what = "coefficient" if coef else "value-system"
                errors[p] = LaneResult(
                    NonFiniteState, f"{what} state non-finite at node {k - 1}", k - 1
                )
        alive = alive & np.logical_not(newly)
        orphans = alive & np.logical_not(par.own(alive))
        for p in np.flatnonzero(orphans):
            driver = errors[par.drv[p]]
            errors[p] = LaneResult(driver.error, f"driver lane failed: {driver.message}",
                                   driver.node)
        return alive & np.logical_not(orphans)

    ones = ops.vec([1.0] * len(batch))
    y = ops.pack(ones, ones, ones, ones)
    alive = ops.flags(len(batch))
    lo = math.inf
    # rows (ratio, y1, ..., y4, den) per node; lanes on a trailing axis as arrays
    path = np.empty((n + 1, 6) + np.shape(ones)) if keep else None
    rt = par.rates[2 * n]
    for k in range(n, 0, -1):
        rt_mid, rt_next = par.rates[2 * k - 1], par.rates[2 * k - 2]
        g1, ratio, den, b1 = stage(y, rt)
        lo = ops.minimum(lo, den)
        if keep:
            path[k] = ratio, *y, den
        g2, _, _, b2 = stage(ops.axpy(y, hh, g1), rt_mid)
        g3, _, _, b3 = stage(ops.axpy(y, hh, g2), rt_mid)
        g4, _, _, b4 = stage(ops.axpy(y, dt, g3), rt_next)
        y = ops.rk4(y, h6, g1, g2, g3, g4)
        bad = b1 | b2 | b3 | b4
        newly = alive & (bad | ops.nonfinite(y))
        if ops.any(newly):
            alive = fail(alive, newly, bad, k)
            if not ops.any(alive):
                break
        rt = rt_next
    else:
        # node 0 closes the paths: its ratio and denominator
        _, ratio, den, bad = stage(y, rt)
        lo = ops.minimum(lo, den)
        newly = alive & bad
        if ops.any(newly):
            alive = fail(alive, newly, bad, 0)
        if keep:
            path[0] = ratio, *y, den

    out = []
    rows = path.reshape(n + 1, 6, -1) if keep else None
    for p in range(len(batch)):
        if p in errors:
            out.append(errors[p])
            continue
        out.append(LaneResult(
            ratio0=float(np.reshape(ratio, -1)[p]),
            state0=tuple(float(v) for v in np.reshape(np.asarray(y), (4, -1))[:, p]),
            den_min=float(np.reshape(lo, -1)[p]),
            ratio=rows[:, 0, p].copy() if keep else None,
            state=rows[:, 1:5, p].T.copy() if keep else None,
            den=rows[:, 5, p].copy() if keep else None,
        ))
    return out


def _half_grid_rates(markets: Sequence[MarketCurves], grid: TimeGrid) -> np.ndarray:
    """``(2N+1, 2, n_markets)``: risk-free rate and theta at nodes and midpoints."""
    times = grid.half_times()
    return np.stack([
        np.column_stack([np.asarray(m.risk_free_at(times), dtype=float) for m in markets]),
        np.column_stack([np.asarray(m.theta_at(times), dtype=float) for m in markets]),
    ], axis=1)


def integrate_lanes(
    lanes: Sequence[Lane],
    markets: Sequence[MarketCurves],
    grid: TimeGrid,
    eps_den: float = DEFAULT_EPS_DEN,
    keep_paths: bool = False,
) -> list[LaneResult]:
    """Backward RK4 of every lane on one grid, in one pass over the nodes.

    Each RK4 stage evaluates the ratio of every lane algebraically from
    its state; a misspecified-value lane reads its driver's ratio at the
    same stage.  A node's ratio is stage 1 of the step that leaves it,
    so a step costs four right-hand sides.  Failures are returned per
    lane (``LaneResult.error``), never raised.

    A batch of ``SCALAR_LANE_LIMIT`` lanes or more, or one holding a
    misspecified lane, marches once as arrays.  Any other batch marches
    each lane alone on floats, and a lane that divides by exactly zero
    there is marched again alone as arrays.
    """
    lanes = list(lanes)
    if not lanes:
        return []
    for lane in lanes:
        if not 0 <= lane.market < len(markets):
            raise ValueError(f"lane {lane} names no market of the batch")
        if lane.driver is not None and not (
            0 <= lane.driver < len(lanes) and lanes[lane.driver].driver is None
        ):
            raise ValueError(f"lane {lane} is not driven by a coefficient lane")
    rates = _half_grid_rates(markets, grid)
    with np.errstate(all="ignore"):
        if len(lanes) >= SCALAR_LANE_LIMIT or any(lane.driver is not None for lane in lanes):
            return _march(lanes, rates, grid, eps_den, keep_paths, _Arrays)
        out = []
        for lane in lanes:
            try:
                out += _march([lane], rates, grid, eps_den, keep_paths, _Floats)
            except ZeroDivisionError:
                out += _march([lane], rates, grid, eps_den, keep_paths, _Arrays)
        return out


def _table(cls, kind, grid, lane: Lane, res: LaneResult, *driver: LaneResult):
    """A ``cls`` table from a lane's full paths, laid out as ``cls.COLUMNS``:
    ratio, state, ``y2`` again as ``k1`` or ``c1``, the denominator
    ``delta3`` and, for a misspecified lane, its driver's ratio."""
    y1, y2, y3, y4 = res.check().state
    columns = (res.ratio, y1, y2, y3, y4, y2, res.den, *(d.ratio for d in driver))
    return cls(kind, grid, lane.gamma0, lane.phi0, lane.xi, **dict(zip(cls.COLUMNS, columns)))


def solve_tables(
    market: MarketCurves,
    prefs: Preferences,
    grid: TimeGrid,
    variants: Sequence[ModelVariant],
    eps_den: float = DEFAULT_EPS_DEN,
) -> list[CoefficientTable]:
    """Solve several model variants in one batch; raises the first failure
    in ``variants`` order."""
    plan = LanePlan()
    idx = [plan.add_variant(0, prefs, v) for v in variants]
    res = integrate_lanes(plan.lanes, [market], grid, eps_den, keep_paths=True)
    return [
        _table(CoefficientTable, v, grid, plan.lanes[i], res[i]) for v, i in zip(variants, idx)
    ]


def solve_system(
    market: MarketCurves,
    prefs: Preferences,
    grid: TimeGrid,
    variant: ModelVariant = ModelVariant.FULL,
    eps_den: float = DEFAULT_EPS_DEN,
) -> CoefficientTable:
    """Solve the backward coefficient system for one model variant.

    Terminal conditions are exact: ``h1``, ``h2``, ``h3``, ``g1`` (and so
    ``k1 = h2``) equal 1 and ``f`` equals ``1 / gamma0`` at the horizon.
    """
    return solve_tables(market, prefs, grid, (variant,), eps_den)[0]


# ---------------------------------------------------------------------------
# Fixed-point route for f
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardInfo:
    iterations: int
    mode: str  # "global" or "continuation"


def reverse_cumtrapz(g: np.ndarray, dt: float) -> np.ndarray:
    """out[i] = trapezoid integral of g from node i to the last node."""
    inc = 0.5 * dt * (g[:-1] + g[1:])
    out = np.empty_like(g)
    out[-1] = 0.0
    out[:-1] = np.cumsum(inc[::-1])[::-1]
    return out


def solve_f_picard(
    market: MarketCurves,
    prefs: Preferences,
    grid: TimeGrid,
    tol: float = DEFAULT_PICARD_TOL,
    max_iter: int = DEFAULT_PICARD_MAX_ITER,
    eps_den: float = DEFAULT_EPS_DEN,
    f0: np.ndarray | None = None,
    full_output: bool = False,
):
    """Solve the integral equation for ``f`` by damped fixed-point iteration.

    The map rebuilds the exponential coefficient representations from
    the current iterate with trapezoid quadrature on the grid and
    returns the implied ratio function.  Iteration starts from the
    constant terminal value ``1 / gamma0`` (or ``f0``), halving the
    step weight whenever the sup-norm residual grows.  If the global
    iteration stalls, the solver falls back to backward continuation:
    the map only propagates information backward in time, so the fixed
    point is converged tail-segment by tail-segment, which succeeds
    whenever the solution exists on the grid.
    """
    if tol <= 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    gamma0, phi0, xi = prefs.gamma0, prefs.phi0, prefs.xi
    n = grid.num_steps
    dt = grid.dt
    c = 1.0 / ((xi + 1.0) * (xi + 1.0))
    nodes = grid.nodes
    rr = np.asarray(market.risk_free_at(nodes), dtype=float)
    th = np.asarray(market.theta_at(nodes), dtype=float)
    f_init = (
        np.full(n + 1, 1.0 / gamma0) if f0 is None
        else np.asarray(f0, dtype=float).copy()
    )
    if f_init.shape != (n + 1,):
        raise ConfigError(f"f0 must have shape {(n + 1,)}, got {f_init.shape}")
    f_cap = max(6.0, 4.0 / gamma0)

    def apply_map(fa: np.ndarray, j: int) -> tuple[np.ndarray | None, bool]:
        """One sweep of the map on nodes j..N.

        Returns (new tail, degenerate flag); the tail is None when the
        iterate left the valid set, with the flag marking a denominator
        below the guard (as opposed to a plain overflow).
        """
        fc = np.clip(fa, -f_cap, f_cap)
        thj, rrj = th[j:], rr[j:]
        rate_g = rrj + thj * fc * c
        rate_h2 = 2.0 * rrj + (2.0 * thj * fc + thj * fc * fc) * c
        rate_h3 = 3.0 * (rrj + (thj * fc + thj * fc * fc) * c)
        g1 = np.exp(reverse_cumtrapz(rate_g, dt))
        h2 = np.exp(reverse_cumtrapz(rate_h2, dt))
        h3 = np.exp(reverse_cumtrapz(rate_h3, dt))
        den = gamma0 * h2 + 2.0 * phi0 * (g1 * h2 - h3)
        if not np.all(np.isfinite(den)):
            return None, False
        if np.min(den) < eps_den:
            return None, True
        q = 0.5 * xi * c * thj * fc * fc * den
        h1 = g1 * (1.0 + reverse_cumtrapz(q / g1, dt))
        fn = (
            h1 + gamma0 * (g1 * g1 - h2)
            + phi0 * (h3 + 2.0 * g1 ** 3 - 3.0 * g1 * h2)
        ) / den
        return (fn, False) if np.all(np.isfinite(fn)) else (None, False)

    total = 0  # map evaluations across both phases, capped by max_iter

    # Global damped iteration; sufficient for all but strongly
    # non-contractive parameter sets.
    f = f_init.copy()
    lam = 1.0
    prev_res = np.inf
    budget_global = max(1, max_iter // 2) if max_iter > 1 else max_iter
    while total < budget_global:
        fn, _ = apply_map(f, 0)
        total += 1
        if fn is None:
            break
        res = float(np.max(np.abs(fn - f)))
        if res < tol and np.max(np.abs(fn)) < 0.99 * f_cap:
            return (fn, PicardInfo(total, "global")) if full_output else fn
        if res > prev_res:
            lam = max(0.5 * lam, 2.0 ** -6)
        f = f + lam * (fn - f)
        prev_res = res
        if total > 60 and lam <= 2.0 ** -6:
            break

    # Backward continuation: converge the fixed point on growing tail
    # segments [t_j, T]; values on an already-converged tail are fixed
    # points of the restricted map and do not move.
    f = f_init.copy()
    i = n
    seg = max(1, n // 20)
    while i > 0:
        j = max(0, i - seg)
        tail = f[j:].copy()
        converged = False
        degenerate = False
        stage_evals = 0
        while stage_evals < 80 and total < max_iter:
            fn, degenerate = apply_map(tail, j)
            total += 1
            stage_evals += 1
            if fn is None:
                break
            res = float(np.max(np.abs(fn - tail)))
            tail = fn
            if res < tol:
                converged = True
                break
        if converged:
            f[j:] = tail
            i = j
        elif seg == 1 and degenerate:
            # the tail beyond this node is converged, so the map itself
            # degenerates here: no valid solution extends past t_j
            raise DegenerateDenominator(
                f"fixed-point denominator below guard {eps_den:g} extending "
                f"to node {j} (t = {nodes[j]:g})"
            )
        elif seg > 1 and total < max_iter:
            seg = max(1, seg // 2)
        else:
            raise NoConvergence(
                f"fixed-point iteration stalled at node {i} "
                f"(t = {nodes[i]:g}) after {total} map evaluations"
            )
    return (f, PicardInfo(total, "continuation")) if full_output else f


# ---------------------------------------------------------------------------
# Misspecified-strategy value systems
# ---------------------------------------------------------------------------

def solve_mispec_system(
    market: MarketCurves,
    prefs: Preferences,
    grid: TimeGrid,
    kind: MispecKind,
    eps_den: float = DEFAULT_EPS_DEN,
    driver: CoefficientTable | None = None,
) -> MispecTable:
    """Solve the backward value system under a pre-specified naive strategy.

    The driver is the naive strategy's own ratio function (from the
    ambiguity-neutral table for ``IGNORE_UNCERTAINTY``, from the basic
    table for ``IGNORE_BOTH``).  The value system reads the driver's
    ratio at every RK4 stage, so it is exact there; a ``driver`` table,
    if given, must be that same table.  The investor's true
    ambiguity weight ``xi`` enters the distorted dynamics; the skewness
    weight is kept for ``IGNORE_UNCERTAINTY`` and dropped for
    ``IGNORE_BOTH``.
    """
    want = kind.driver_variant
    if driver is not None and (
        driver.variant is not want
        or (driver.gamma0, driver.phi0, driver.xi) != want.effective(prefs)
        or not driver.grid.same_nodes(grid)
    ):
        raise UnsolvedTable(
            f"driver table ({driver.variant}, gamma0={driver.gamma0}, "
            f"phi0={driver.phi0}, xi={driver.xi}) does not drive {kind}"
        )
    plan = LanePlan()
    lane = plan.add_mispec(0, prefs, kind)
    res = integrate_lanes(plan.lanes, [market], grid, eps_den, keep_paths=True)
    drv = plan.lanes[lane].driver
    return _table(MispecTable, kind, grid, plan.lanes[lane], res[lane], res[drv].check())


# ---------------------------------------------------------------------------
# Convenience container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolvedModel:
    """All tables needed to evaluate values and losses at one parameter set."""

    prefs: Preferences
    grid: TimeGrid
    full: CoefficientTable
    neutral: CoefficientTable
    noskew: CoefficientTable
    basic: CoefficientTable
    mispec_u: MispecTable
    mispec_both: MispecTable


def solve_all(
    market: MarketCurves,
    prefs: Preferences,
    grid: TimeGrid,
    eps_den: float = DEFAULT_EPS_DEN,
) -> SolvedModel:
    """Solve every variant and both misspecified-value systems in one batch.

    Raises the first failure in field order (full, neutral, noskew,
    basic, mispec_u, mispec_both).
    """
    plan = LanePlan()
    idx = plan.add_model(0, prefs)
    res = integrate_lanes(plan.lanes, [market], grid, eps_den, keep_paths=True)
    tables = [
        _table(CoefficientTable, v, grid, plan.lanes[i], res[i]) for v, i in zip(ModelVariant, idx)
    ]
    for kind, i in zip(MispecKind, idx[4:]):
        lane = plan.lanes[i]
        tables.append(_table(MispecTable, kind, grid, lane, res[i], res[lane.driver]))
    return SolvedModel(prefs, grid, *tables)
