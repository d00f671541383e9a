"""Backward coefficient systems and their fixed-point oracle.

Everything the policy, value, and simulation layers consume is a table
of time functions solved backward from the horizon:

* ``solve_system`` integrates the differential-algebraic system for
  ``(h1, h2, h3, g1)`` with classical RK4, evaluating the ratio
  function ``f`` algebraically from the state inside every stage.  The
  four model variants (full robust, ambiguity-neutral, no-skewness,
  basic) are exact termwise reductions of one another obtained by
  zeroing the ambiguity weight and/or the skewness weight, so a single
  integrator serves all of them.

* ``solve_f_picard`` solves the equivalent integral equation for ``f``
  on the same grid (trapezoid rule) by a backward march over the nodes:
  at each node, fixed-point iteration of one scalar map given the nodes
  above it.  It is an independent numerical route to the same unique
  solution and is used as an oracle for ``solve_system``.

* ``solve_mispec_system`` solves the analogous backward system for the
  value of an investor who follows a pre-specified naive strategy
  (ignoring model uncertainty, or both uncertainty and skewness) while
  nature still distorts the measure.

Every backward system is one *lane* of ``integrate_lanes``, a single
RK4 over a lane axis: a sweep integrates all of its distinct systems in
one call, and a misspecified-value lane reads, at every RK4 stage, the
ratio of the coefficient lane that drives it.  A lone lane marches on
Python floats (``_march_lone``); a batch of two or more lanes marches
once as lane arrays (``_march``), in one step loop whose stages and
guards write into buffers it allocates once per batch.  The three table
builders add their kinds to one plan and march it once (``_tables``).

The denominator of the algebraic ratio equals ``gamma0`` at the
terminal time and must stay positive for the backward solution to
exist; a lane fails with ``DegenerateDenominator`` as soon as it falls
below the guard ``eps_den``, which includes the genuine blow-up case
where it would cross zero inside the horizon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import ClassVar, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDenominator,
    MvsRobustError,
    NoConvergence,
    NonFiniteState,
)
from .market import MarketCurves, Preferences, TimeGrid

DEFAULT_EPS_DEN = 1e-12
DEFAULT_PICARD_TOL = 1e-10
DEFAULT_PICARD_MAX_ITER = 500


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


class SolvedTable:
    """What both table kinds share: frozen node columns and their values
    between nodes.

    ``COLUMNS`` lists a kind's columns in the order of its lane's path
    rows: the lane's own ratio, its state ``y1 .. y4`` and its denominator
    ``delta3``, then, for a misspecified table, the driver's ratio.  Each
    table carries the ``market`` it was solved on.
    """

    COLUMNS: ClassVar[tuple[str, ...]]

    def __post_init__(self):
        for name in self.COLUMNS:
            column = np.ascontiguousarray(getattr(self, name), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def columns_at(self, t) -> np.ndarray:
        """Every column (``COLUMNS`` order on the last axis) at the time or
        times ``t``: the polynomial through the ``min(4, num_steps + 1)``
        nearest nodes, the first or last four at the ends.  It is a local
        cubic, fourth order like the integrator, and exact at the nodes."""
        nodes = self.grid.nodes
        m = min(4, nodes.size)
        j, u = self.grid.locate(t)
        first = np.clip(j - 1, 0, nodes.size - m)
        k = np.arange(m)
        steps = (u + (j - first))[..., None] - k
        off = k[:, None] != k  # Lagrange weight k multiplies the factors l != k
        den = np.prod(np.where(off, k[:, None] - k, 1), axis=-1)
        w = np.prod(np.where(off, steps[..., None, :], 1.0), axis=-1) / den
        vals = np.stack([getattr(self, c)[first[..., None] + k] for c in self.COLUMNS], axis=-1)
        return (w[..., None] * vals).sum(axis=-2)


@dataclass(frozen=True)
class CoefficientTable(SolvedTable):
    """Solved grid functions for one model variant.

    ``gamma0``, ``phi0``, ``xi`` are the variant's effective values
    (zeroed where the variant demands it), so every downstream formula
    can be written once against the full model.
    """

    COLUMNS = ("f", "h1", "h2", "h3", "g1", "delta3")

    grid: TimeGrid
    market: MarketCurves
    gamma0: float
    phi0: float
    xi: float
    f: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    g1: np.ndarray
    delta3: np.ndarray


@dataclass(frozen=True)
class MispecTable(SolvedTable):
    """Solved grid functions for a misspecified-strategy value system.

    ``a`` is the value system's ratio and ``driver_f`` the naive
    strategy's; ``delta3`` is the value system's denominator.
    """

    COLUMNS = ("a", "a1", "a2", "a3", "b1", "delta3", "driver_f")

    grid: TimeGrid
    market: MarketCurves
    gamma0: float
    phi0: float
    xi: float
    driver_f: np.ndarray
    a: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b1: np.ndarray
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
    ``den_min`` is the smallest denominator over the nodes.  ``path``,
    when kept, is ``(6, N+1)``: the rows ratio, ``y1 .. y4`` and the
    denominator over the nodes, a table's ``COLUMNS`` order.
    """

    error: type[MvsRobustError] | None = None
    message: str = ""
    node: int | None = None
    ratio0: float = math.nan
    state0: tuple[float, ...] = ()
    den_min: float = math.nan
    path: np.ndarray | None = None

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


# Steps whose half-grid rates a march gathers at once: a block holds
# (2 * _BLOCK + 1) x 2 rates per lane, 114 kB for fig02's 216 lanes (446 kB
# at 64 steps).  Gathering fig02's 2,000 steps costs 2.3 ms at 16 or 64 steps
# a block and 3.0 ms at 8 (fastest of 200 alternating runs, 2-core Xeon).
_BLOCK = 16


def _rhs(y, par, rates):
    """Right-hand side ``G`` (``dy/dt = -G``), ratio and denominator of one
    coefficient lane on Python floats, whose constants ``par`` are
    ``(gamma0, phi0, 2 phi0, c, xi/2)``; ``_march`` gives every coefficient
    lane of a batch the same operations in the same order."""
    g0, p0, p2, c, hxi = par
    r, th = rates[0], rates[1]
    y1, y2, y3, y4 = y
    q, w = y4 * y4, y4 * y2
    den = g0 * y2 + p2 * (w - y3)
    ratio = (y1 + g0 * (q - y2) + p0 * (y3 + 2.0 * q * y4 - 3.0 * w)) / den
    tf = th * ratio
    v2 = tf * ratio * c
    a = r + tf * c
    pen = hxi * v2 * den
    return (a * y1 + pen, (2.0 * a + v2) * y2, 3.0 * (a + v2) * y3, a * y4), ratio, den


def _steps(rates, n: int):
    """``(k, rates at node k, the midpoint below and node k - 1)`` for ``k = n .. 0``
    (none below node 0), gathering the half-grid rates ``_BLOCK`` steps at a time."""
    for top in range(n, 0, -_BLOCK):
        bottom = max(top - _BLOCK, 0)
        rows = rates(2 * bottom, 2 * top + 1)
        for k in range(top, bottom, -1):
            j = 2 * (k - bottom)
            yield k, rows[j], rows[j - 1], rows[j - 2]
    yield 0, rows[0], None, None


def _failure(lane: Lane, degenerate, k: int, grid: TimeGrid, eps_den: float) -> LaneResult:
    """``lane``'s failure in the step from node ``k``: a denominator (or a
    misspecified lane's ratio) below the guard, else a non-finite state."""
    coef = lane.driver is None
    if degenerate:
        what = "coefficient denominator" if coef else "value-system denominator or ratio"
        return LaneResult(DegenerateDenominator, f"{what} below guard "
                          f"{eps_den:g} at node {k} (t = {grid.nodes[k]:g})", k)
    what = "coefficient" if coef else "value-system"
    return LaneResult(NonFiniteState, f"{what} state non-finite at node {k - 1}", k - 1)


def _march_lone(lane: Lane, rates, grid: TimeGrid, eps_den: float, keep: bool) -> LaneResult:
    """Backward RK4 of one coefficient lane on Python floats.

    It fails at the first step with a denominator below ``eps_den`` in any
    stage or a non-finite state.  An exactly zero denominator, on which a
    float division raises, is below the positive guard, so it fails the
    lane at that node as well.
    """
    n, h = grid.num_steps, grid.dt
    hh, h6 = 0.5 * h, h / 6.0
    col = rates[:, :, lane.market].tolist()
    c = 1.0 / ((lane.xi + 1.0) * (lane.xi + 1.0))
    par = (lane.gamma0, lane.phi0, 2.0 * lane.phi0, c, 0.5 * lane.xi)
    y = (1.0, 1.0, 1.0, 1.0)
    lo = math.inf
    path = np.empty((6, n + 1)) if keep else None  # rows (ratio, y1, ..., y4, den) over the nodes
    for k, rt, rt_mid, rt_next in _steps(lambda i, j: col[i:j], n):
        try:
            g1, ratio, den = _rhs(y, par, rt)
            lo = min(lo, den)
            if keep:
                path[:, k] = ratio, *y, den
            if k:  # node 0 closes the path; its test sees the last step's d2 .. d4 again
                g2, _, d2 = _rhs((y[0] + hh * g1[0], y[1] + hh * g1[1], y[2] + hh * g1[2],
                                  y[3] + hh * g1[3]), par, rt_mid)
                g3, _, d3 = _rhs((y[0] + hh * g2[0], y[1] + hh * g2[1], y[2] + hh * g2[2],
                                  y[3] + hh * g2[3]), par, rt_mid)
                g4, _, d4 = _rhs((y[0] + h * g3[0], y[1] + h * g3[1], y[2] + h * g3[2],
                                  y[3] + h * g3[3]), par, rt_next)
                y = (
                    y[0] + h6 * (g1[0] + 2.0 * (g2[0] + g3[0]) + g4[0]),
                    y[1] + h6 * (g1[1] + 2.0 * (g2[1] + g3[1]) + g4[1]),
                    y[2] + h6 * (g1[2] + 2.0 * (g2[2] + g3[2]) + g4[2]),
                    y[3] + h6 * (g1[3] + 2.0 * (g2[3] + g3[3]) + g4[3]),
                )
        except ZeroDivisionError:
            return _failure(lane, True, k, grid, eps_den)
        bad = den < eps_den or d2 < eps_den or d3 < eps_den or d4 < eps_den
        if bad or not all(map(math.isfinite, y)):
            return _failure(lane, bad, k, grid, eps_den)
    return LaneResult(ratio0=ratio, state0=y, den_min=lo, path=path)


def _march(batch: list[Lane], rates, grid: TimeGrid, eps_den: float, keep: bool):
    """Backward RK4 of every lane of ``batch`` as lane arrays; returns its
    ``LaneResult`` list.

    One formula serves both kinds of lane: coefficient lanes, then
    misspecified-value lanes from position ``mis``.  A coefficient lane's
    strategy is its own ratio, weighted by ``c = 1/(xi+1)^2``.  A
    misspecified-value lane's strategy is its driver's ratio, unweighted,
    and ``xi * v2 / ratio`` is subtracted from its drift.  A batch without
    misspecified lanes takes the same steps on empty slices.  ``drv`` holds
    each lane's driver position (its own for a coefficient lane).

    Every buffer is allocated here, once per batch, and every ufunc writes
    into one through its positional ``out``: in a batch of a few hundred
    lanes numpy's fixed cost per call, not arithmetic, sets the speed.  A
    coefficient lane gets ``_rhs``'s operations on the same operands in the
    same order, so its numbers are bitwise those of the lane marched alone
    on floats.

    Every guard is per lane and per stage.  Stage ``s`` leaves its ratios
    in row ``s`` of ``ratios`` and its denominators in row ``s`` of
    ``guard``, whose rows 4-7 take the ratios' magnitudes after each step;
    one comparison with ``bounds`` tests all eight rows.  The bound is
    ``eps_den`` for every denominator and for a misspecified lane's ratio,
    and 0, which no magnitude falls below, for a coefficient lane's.  When
    a guard trips or the count of finite state entries falls, each living
    lane that tripped one or holds a non-finite entry fails at that step
    with its node and error class, and is left out of every result; a lane
    whose driver fails fails with it; every other lane goes on.  A failed
    lane's bounds become ``-inf``, so only living lanes trip a guard.
    """
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    n, size, h = grid.num_steps, len(batch), grid.dt
    mis = sum(lane.driver is None for lane in batch)
    xi, g0, p0 = np.array([(ln.xi, ln.gamma0, ln.phi0) for ln in batch], dtype=float).T.copy()
    p2, hxi = 2.0 * p0, 0.5 * xi
    c = np.array([1.0 if lane.driver is not None else
                  1.0 / ((lane.xi + 1.0) * (lane.xi + 1.0)) for lane in batch])
    drv = np.array([p if lane.driver is None else lane.driver
                    for p, lane in enumerate(batch)], dtype=np.intp)
    cols = np.array([lane.market for lane in batch], dtype=np.intp)
    # numpy multiplies two arrays faster than an array and a Python float
    two, three = np.full(size, 2.0), np.full(size, 3.0)
    hh, dt, h6, two4 = (np.full((4, size), x) for x in (0.5 * h, h, h / 6.0, 2.0))
    guard = np.full((8, size), math.nan)  # the stages' denominators, then |ratios|
    dens, mags, ratios = guard[:4], guard[4:], np.full((4, size), math.nan)
    bounds = np.full((8, size), eps_den)
    bounds[4:, :mis] = 0.0
    low, fin = np.empty((8, size), bool), np.empty((4, size), bool)
    den_rows, ratio_rows = list(dens), list(ratios)
    q, w, t, num, b, tf, v2, pen = np.empty((8, size))
    ys, u, fac = np.empty((3, 4, size))  # a stage's state; h * G, then the RK4 sum; G's factors
    gs, ys_rows = list(np.empty((4, 4, size))), tuple(ys)  # the stages' G; rows of ys
    a, k1, k2, k3 = fac  # G = fac * y + (pen, 0, 0, 0) and fac = (a, 2a + v2, 3(a + v2), a)
    ratios_m, xi_m, v2_m, a_m, t_m = ([r[mis:] for r in ratio_rows], xi[mis:], v2[mis:],
                                      a[mis:], t[mis:])

    def stage(s, y, y1, y2, y3, y4, rt):
        ratio, den, g = ratio_rows[s], den_rows[s], gs[s]
        r, th = rt[0], rt[1]
        # ``_rhs`` in its order of operations: q and w, den, the ratio, v2 and a, pen, G
        mul(y4, y4, q), mul(y4, y2, w)
        mul(g0, y2, den), sub(w, y3, t), mul(p2, t, t), add(den, t, den)
        sub(q, y2, num), mul(g0, num, num), add(y1, num, num)
        mul(two, q, b), mul(b, y4, b), add(y3, b, b), mul(three, w, t), sub(b, t, b)
        mul(p0, b, b), add(num, b, num), div(num, den, ratio)
        own = ratio[drv]
        mul(th, own, tf), mul(tf, own, v2), mul(v2, c, v2), mul(tf, c, a), add(r, a, a)
        mul(xi_m, v2_m, t_m), div(t_m, ratios_m[s], t_m), sub(a_m, t_m, a_m)
        mul(hxi, v2, pen), mul(pen, den, pen)
        mul(two, a, k1), add(k1, v2, k1), add(a, v2, k2), mul(three, k2, k2)
        k3[...] = a
        mul(fac, y, g), add(g[0], pen, g[0])

    errors: dict[int, LaneResult] = {}
    finite = 4 * size  # finite state entries at the last test
    y = np.ones((4, size))
    y_rows = tuple(y)
    alive = np.ones(size, bool)
    lo = np.full(size, math.inf)
    path = np.empty((6, n + 1, size)) if keep else None  # ``_march_lone``'s rows, lanes last
    for k, rt, rt_mid, rt_next in _steps(lambda i, j: rates[i:j, :, cols], n):
        stage(0, y, *y_rows, rt)
        np.minimum(lo, den_rows[0], out=lo)
        if keep:
            path[:, k] = ratio_rows[0], *y_rows, den_rows[0]
        if k:  # node 0 closes the paths; rows 1-3 keep stages every living lane passed
            for s, step, rs in ((1, hh, rt_mid), (2, hh, rt_mid), (3, dt, rt_next)):
                mul(step, gs[s - 1], u), add(y, u, ys)
                stage(s, ys, *ys_rows, rs)
            add(gs[1], gs[2], u), mul(two4, u, u), add(gs[0], u, u), add(u, gs[3], u)
            mul(h6, u, u), add(y, u, y)
        np.abs(ratios, out=mags), np.less(guard, bounds, out=low), np.isfinite(y, out=fin)
        if not np.count_nonzero(low) and np.count_nonzero(fin) == finite:
            continue
        finite = np.count_nonzero(fin)
        bad = low.any(axis=0)
        newly = alive & (bad | ~fin.all(axis=0))
        for p in np.flatnonzero(newly):
            errors[p] = _failure(batch[p], bad[p], k, grid, eps_den)
        alive &= ~newly
        orphans = alive & ~alive[drv]
        for p in np.flatnonzero(orphans):
            driver = errors[drv[p]]
            errors[p] = replace(driver, message=f"driver lane failed: {driver.message}")
        alive &= ~orphans
        bounds[:, ~alive] = -np.inf
        if not alive.any():
            break

    return [errors[p] if p in errors else LaneResult(
        ratio0=float(ratios[0, p]),
        state0=tuple(float(v) for v in y[:, p]),
        den_min=float(lo[p]),
        path=path[..., p].copy() if keep else None,
    ) for p in range(size)]


def _half_grid_rates(markets: Sequence[MarketCurves], grid: TimeGrid) -> np.ndarray:
    """``(2N+1, 2, n_markets)``: risk-free rate and theta at nodes and midpoints.
    When every market of the batch is ``constant_in_time`` they are read at
    time 0 alone, and that row is repeated as a read-only view (stride 0 on
    the time axis)."""
    times = grid.half_times()
    rows = 1 if all(m.constant_in_time for m in markets) else times.size
    rates = np.empty((rows, 2, len(markets)))
    for i, m in enumerate(markets):
        rates[:, 0, i] = m.risk_free_at(times[:rows])
        rates[:, 1, i] = m.theta_at(times[:rows])
    return np.broadcast_to(rates, (times.size, 2, len(markets)))


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

    A lone lane (necessarily a coefficient lane) marches on floats
    (``_march_lone``); a batch of two or more lanes marches once as lane
    arrays (``_march``).  Both give a lane bitwise the same result.
    """
    lanes = list(lanes)
    if not eps_den > 0.0:
        raise ValueError(f"eps_den must be positive, got {eps_den}")
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
    # numpy's fixed cost per array operation makes a lone lane far slower
    # as arrays: at 2,000 steps it takes 7-14 ms on floats and 0.15-0.24 s
    # as arrays (best of 5, six runs; shared 2-core Xeon, Python 3.11,
    # numpy 2.4).
    if len(lanes) == 1:
        return [_march_lone(lanes[0], rates, grid, eps_den, keep_paths)]
    # coefficient lanes first, each kind in the caller's order
    order = sorted(range(len(lanes)), key=lambda p: lanes[p].driver is not None)
    at = {p: i for i, p in enumerate(order)}
    batch = [replace(lanes[p], driver=at.get(lanes[p].driver)) for p in order]
    with np.errstate(all="ignore"):
        res = _march(batch, rates, grid, eps_den, keep_paths)
    return [res[at[p]] for p in range(len(lanes))]


def _tables(market: MarketCurves, prefs: Preferences, grid: TimeGrid, eps_den: float,
            kinds: Sequence[ModelVariant | MispecKind]) -> list[SolvedTable]:
    """A table per kind (model variant or misspecified kind) from one batch, of
    the kind's class but not labelled with it: its lane's weights and path rows
    and a misspecified kind's driver's ratio row.  Raises the first failure in
    ``kinds`` order, a misspecified kind's driver's first."""
    plan = LanePlan()
    ids = [plan.add_mispec(0, prefs, kind) if isinstance(kind, MispecKind)
           else plan.add_variant(0, prefs, kind) for kind in kinds]
    res = integrate_lanes(plan.lanes, [market], grid, eps_den, keep_paths=True)
    tables = []
    for kind, i in zip(kinds, ids):
        lane, cls, rows = plan.lanes[i], CoefficientTable, ()
        if isinstance(kind, MispecKind):
            cls, rows = MispecTable, (res[lane.driver].check().path[0],)
        columns = dict(zip(cls.COLUMNS, (*res[i].check().path, *rows)))
        tables.append(cls(grid, market, lane.gamma0, lane.phi0, lane.xi, **columns))
    return tables


def solve_system(
    market: MarketCurves,
    prefs: Preferences,
    grid: TimeGrid,
    variant: ModelVariant = ModelVariant.FULL,
    eps_den: float = DEFAULT_EPS_DEN,
) -> CoefficientTable:
    """Solve the backward coefficient system for one model variant.

    Terminal conditions are exact: ``h1``, ``h2``, ``h3``, ``g1`` equal 1
    and ``f`` equals ``1 / gamma0`` at the horizon.
    """
    return _tables(market, prefs, grid, eps_den, [variant])[0]


# ---------------------------------------------------------------------------
# Fixed-point route for f
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardInfo:
    iterations: int  # map evaluations over every node


def solve_f_picard(
    market: MarketCurves,
    prefs: Preferences,
    grid: TimeGrid,
    tol: float = DEFAULT_PICARD_TOL,
    max_iter: int = DEFAULT_PICARD_MAX_ITER,
    eps_den: float = DEFAULT_EPS_DEN,
    full_output: bool = False,
):
    """Solve the integral equation for ``f`` by a backward march over the nodes.

    The equation gives ``f`` at a node from the exponential coefficients
    ``g1``, ``h2``, ``h3`` and ``h1``, whose rates depend on ``f`` and are
    integrated from the node to the horizon by the trapezoid rule on the
    grid.  At node ``j`` those integrals hold ``f[j]`` only in their last
    half-step, so the discrete fixed point is found one node at a time from
    the horizon down: ``f[N] = 1 / gamma0``, and ``f[j]`` is the fixed point
    of a scalar map given ``f[j+1..N]``.  Each node applies the map from
    ``f[j+1]`` until a value changes by less than ``tol``, and keeps that
    value and its integrals, running sums on Python floats, for the node
    below.  ``PicardInfo.iterations`` counts the map evaluations.

    Raises ``NoConvergence`` when a node's value changes by ``tol`` or more
    in each of ``max_iter`` evaluations, and ``DegenerateDenominator`` when a
    denominator falls below ``eps_den``; NaN and an overflowing exponential
    fall below it too.
    """
    if not tol > 0.0:  # NaN fails too
        raise ConfigError(f"tol must be positive, got {tol}")
    gamma0, phi0, xi = prefs.gamma0, prefs.phi0, prefs.xi
    n, nodes = grid.num_steps, grid.nodes
    hdt = 0.5 * grid.dt
    c = 1.0 / ((xi + 1.0) * (xi + 1.0))
    hxc = 0.5 * xi * c
    rr = np.asarray(market.risk_free_at(nodes), dtype=float).tolist()
    th = np.asarray(market.theta_at(nodes), dtype=float).tolist()
    f = [1.0 / gamma0] * (n + 1)
    # the rates of g1, h2, h3 and h1 / g1 at node j + 1, and their integrals from it
    r, x = rr[n], f[n]
    tx = th[n] * x
    rg, r2, r3, r1 = (r + tx * c, 2.0 * r + (2.0 * tx + tx * x) * c,
                      3.0 * (r + (tx + tx * x) * c), hxc * tx * x * gamma0)
    sg = s2 = s3 = s1 = 0.0
    total = 0
    for j in range(n - 1, -1, -1):
        r, t, x, evals = rr[j], th[j], f[j + 1], 0
        while True:  # the integrals at f[j] = x, then the map's value there
            tx = t * x
            ag, a2, a3 = (r + tx * c, 2.0 * r + (2.0 * tx + tx * x) * c,
                          3.0 * (r + (tx + tx * x) * c))
            ig, i2, i3 = sg + hdt * (ag + rg), s2 + hdt * (a2 + r2), s3 + hdt * (a3 + r3)
            try:
                g1, h2, h3 = math.exp(ig), math.exp(i2), math.exp(i3)
            except OverflowError:  # where numpy gives inf: no finite denominator
                g1 = h2 = h3 = math.nan
            den = gamma0 * h2 + 2.0 * phi0 * (g1 * h2 - h3)
            if not (den >= eps_den and g1 > 0.0):  # NaN too; g1 = 0 would divide by zero
                raise DegenerateDenominator(f"fixed-point denominator below guard {eps_den:g} "
                                            f"at node {j} (t = {nodes[j]:g})")
            a1 = hxc * tx * x * den / g1
            i1 = s1 + hdt * (a1 + r1)
            if evals and abs(x - last) < tol:
                break
            if evals == max_iter:
                raise NoConvergence(f"fixed-point iteration at node {j} (t = {nodes[j]:g}) "
                                    f"changed by {tol:g} or more in each of {max_iter} "
                                    "map evaluations")
            last, evals = x, evals + 1
            x = (g1 * (1.0 + i1) + gamma0 * (g1 * g1 - h2)
                 + phi0 * (h3 + 2.0 * g1 * g1 * g1 - 3.0 * g1 * h2)) / den
        total += evals
        f[j], rg, r2, r3, r1, sg, s2, s3, s1 = x, ag, a2, a3, a1, ig, i2, i3, i1
    f = np.array(f)
    return (f, PicardInfo(total)) if full_output else f


# ---------------------------------------------------------------------------
# Misspecified-strategy value systems
# ---------------------------------------------------------------------------

def solve_mispec_system(
    market: MarketCurves,
    prefs: Preferences,
    grid: TimeGrid,
    kind: MispecKind,
    eps_den: float = DEFAULT_EPS_DEN,
) -> MispecTable:
    """Solve the backward value system under a pre-specified naive strategy.

    The driver is the naive strategy's own ratio function (from the
    ambiguity-neutral table for ``IGNORE_UNCERTAINTY``, from the basic
    table for ``IGNORE_BOTH``).  The value system reads the driver's
    ratio at every RK4 stage, so it is exact there; both are integrated
    in one batch.  The investor's true ambiguity weight ``xi`` enters the
    distorted dynamics; the skewness weight is kept for
    ``IGNORE_UNCERTAINTY`` and dropped for ``IGNORE_BOTH``.
    """
    return _tables(market, prefs, grid, eps_den, [kind])[0]


# ---------------------------------------------------------------------------
# Convenience container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolvedModel:
    """The six tables of one parameter set, in the order every reader takes
    them (``value_at``, ``LanePlan.add_model``).  Each carries its grid and
    market; FULL's effective weights are the preferences solved at."""

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
    return SolvedModel(*_tables(market, prefs, grid, eps_den, [*ModelVariant, *MispecKind]))
