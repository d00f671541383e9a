"""Market primitives: deterministic coefficient curves and preferences.

The market consists of one risk-free asset with rate ``r(t)`` and ``M``
risky assets with drift vector ``mu(t)`` and volatility matrix
``sigma(t)``, whose column ``i`` holds asset ``i``'s loadings on the
Brownian motions.  Curves are either constants or piecewise-linear
tables over a uniform time grid; evaluation between nodes interpolates
linearly.  A constant ``r`` or ``sigma`` is stored once, as a read-only
view that repeats it at every node, not copied to each node.  Every
reader between nodes goes through ``TimeGrid.locate``, which raises
``OutOfHorizon`` for a time outside ``[0, horizon]``.

Derived quantities cached at every grid node, each finite:

* excess return ``beta = mu - r * 1``
* Gram matrix ``Sigma = sigma' sigma``, the assets' return covariance
  (must be symmetric positive definite)
* squared market price of risk ``theta = beta' Sigma^{-1} beta``, by the
  formula (``_theta``) that ``theta_at`` applies between nodes

A market constant in time (constant ``mu``, ``sigma`` and ``r``, the only
market a config can give) derives them at node 0 alone and stores each
once, like its inputs; a row is derived by the same operations either way,
so the values are bitwise those of per-node tables of equal rows.  Equal
grids share one nodes array, so such a market holds nothing per node.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    NonPositiveHorizon,
    OutOfHorizon,
    SingularGram,
)

DEFAULT_NUM_STEPS = 2000

_NODES = weakref.WeakValueDictionary()  # (horizon, num_steps) -> live grids' nodes


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``num_steps + 1`` nodes spanning ``[0, horizon]``;
    equal grids share one read-only ``nodes`` array while any of them lives."""

    horizon: float
    num_steps: int = DEFAULT_NUM_STEPS
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise NonPositiveHorizon(f"horizon must be positive, got {self.horizon}")
        if self.num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {self.num_steps}")
        key = (float(self.horizon), operator.index(self.num_steps))  # no float num_steps
        if (nodes := _NODES.get(key)) is None:
            nodes = _NODES[key] = np.linspace(0.0, key[0], self.num_steps + 1)
            nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def dt(self) -> float:
        return self.horizon / self.num_steps

    def locate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Each time's segment start node ``j`` (the last node is its own
        segment) and offset ``(t - nodes[j]) / dt``, exactly 0 at a node;
        ``OutOfHorizon`` for a time outside ``[0, horizon]``."""
        t = np.asarray(t, dtype=float)
        if not np.all((0.0 <= t) & (t <= self.horizon)):  # NaN fails too
            raise OutOfHorizon(f"time {t} outside [0, {self.horizon}]")
        j = np.searchsorted(self.nodes, t, side="right") - 1
        return j, (t - self.nodes[j]) / self.dt

    def half_times(self) -> np.ndarray:
        """Nodes plus midpoints: ``2 * num_steps + 1`` points."""
        return np.linspace(0.0, self.horizon, 2 * self.num_steps + 1)


@dataclass(frozen=True)
class Preferences:
    """Risk aversion, skewness preference, and ambiguity aversion.

    The induced wealth-dependent coefficients are ``gamma0 / w`` for
    risk aversion and ``phi0 / w**2`` for skewness preference, both
    positive and decreasing in wealth.
    """

    gamma0: float
    phi0: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.gamma0) or self.gamma0 <= 0.0:
            raise ConfigError(f"gamma0 must be positive, got {self.gamma0}")
        if not np.isfinite(self.phi0) or self.phi0 < 0.0:
            raise ConfigError(f"phi0 must be nonnegative, got {self.phi0}")
        if not np.isfinite(self.xi) or self.xi < 0.0:
            raise ConfigError(f"xi must be nonnegative, got {self.xi}")


def _as_node_curve(value, grid: TimeGrid, shape: tuple, name: str) -> np.ndarray:
    """A constant or per-node table as shape (N+1, *shape): a constant is
    stored once, as a read-only view that repeats it on the node axis (stride
    0), and a per-node table as its own copy."""
    n = grid.num_steps + 1
    arr = np.array(value, dtype=float)  # a copy: the caller's array may change
    if arr.shape not in (shape, (n, *shape)):
        raise ConfigError(
            f"{name} must have shape {shape} (constant) or {(n, *shape)} "
            f"(per-node table), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite values")
    return np.broadcast_to(arr, (n, *shape)) if arr.shape == shape else arr


@dataclass(frozen=True)
class MarketCurves:
    """Validated market curves with derived quantities cached per node.

    Construct through :func:`build_market`; the constructor assumes the
    node arrays are already consistent.
    """

    num_assets: int
    grid: TimeGrid
    risk_free_nodes: np.ndarray    # (N+1,)
    volatility_nodes: np.ndarray   # (N+1, M, M)
    excess_nodes: np.ndarray       # (N+1, M)
    gram_nodes: np.ndarray         # (N+1, M, M)
    theta_nodes: np.ndarray        # (N+1,)

    def __post_init__(self):
        for name in (
            "risk_free_nodes", "volatility_nodes",
            "excess_nodes", "gram_nodes", "theta_nodes",
        ):
            getattr(self, name).flags.writeable = False

    @property
    def constant_in_time(self) -> bool:
        """Whether every curve is stored once (``build_market`` of constants)."""
        return self.theta_nodes.strides[0] == 0

    # -- interpolation ------------------------------------------------

    def _interp(self, t, nodes: np.ndarray) -> np.ndarray:
        """Linear interpolation of a per-node array at a time or an array of
        times: exact at the nodes and on a constant curve."""
        j, w = self.grid.locate(t)
        a, b = nodes[j], nodes[np.minimum(j + 1, self.grid.num_steps)]
        return a + w.reshape(w.shape + (1,) * (nodes.ndim - 1)) * (b - a)

    def risk_free_at(self, t):
        return self._interp(t, self.risk_free_nodes)

    def volatility_at(self, t: float) -> np.ndarray:
        return self._interp(t, self.volatility_nodes)

    def excess_at(self, t: float) -> np.ndarray:
        return self._interp(t, self.excess_nodes)

    def gram_at(self, t: float) -> np.ndarray:
        return self._interp(t, self.gram_nodes)

    def gram_solve(self, t: float, rhs: np.ndarray) -> np.ndarray:
        """Solve ``Sigma(t) x = rhs`` at interpolated Sigma."""
        return np.linalg.solve(self.gram_at(t), rhs)

    def theta_at(self, t):
        """``theta`` at interpolated curves, at a time or an array of times;
        bitwise ``theta_nodes`` at the nodes."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = _theta(self._interp(ts, self.excess_nodes), self._interp(ts, self.gram_nodes))
        return float(out[0]) if np.ndim(t) == 0 else out


def _theta(beta: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """``beta' Sigma^{-1} beta`` at each of ``(T, M)`` excess returns and
    ``(T, M, M)`` Gram matrices; one asset divides instead of solving."""
    if beta.shape[-1] == 1:
        return beta[:, 0] * beta[:, 0] / gram[:, 0, 0]
    x = np.linalg.solve(gram, beta[..., None])[..., 0]
    return np.einsum("ti,ti->t", beta, x)


def _checked_theta(beta: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """``_theta`` at every node; ``LinAlgError`` unless every ``Sigma``
    factors by Cholesky and is nonsingular: Cholesky alone passes some
    numerically singular matrices, which ``_theta``'s solve rejects."""
    np.linalg.cholesky(gram)
    return _theta(beta, gram)


def build_market(
    horizon: float,
    risk_free,
    drift,
    volatility,
    num_steps: int = DEFAULT_NUM_STEPS,
) -> MarketCurves:
    """Validate inputs, derive cached quantities, and return the market on
    ``TimeGrid(horizon, num_steps)``, its ``grid``.

    ``drift`` may be a scalar (one asset), an ``(M,)`` vector, or an
    ``(N+1, M)`` table.  ``volatility`` may be a scalar, an ``(M,)``
    vector of per-asset volatilities (diagonal matrix), an ``(M, M)``
    matrix, or an ``(N+1, M, M)`` table.

    When ``drift``, ``volatility`` and ``risk_free`` are all constant, the
    excess return, Gram matrix and theta are derived at node 0 and stored
    once, as read-only views that repeat that row at every node.

    Raises ``NonPositiveHorizon`` for ``horizon <= 0``, ``SingularGram``
    if ``sigma' sigma`` fails a Cholesky factorization at any node, and
    ``ConfigError`` naming the first node where the excess return, Gram
    matrix or theta is not finite (an overflow).
    """
    grid = TimeGrid(horizon, num_steps)
    n = grid.num_steps + 1

    mu = np.asarray(drift, dtype=float)
    if mu.ndim == 0:
        mu = mu.reshape(1)
    # A 1-D drift is a constant M-vector; per-node tables must be (N+1, M).
    num_assets = mu.shape[-1]
    if num_assets == 0:
        raise ConfigError("drift has no asset: give at least one risky asset's drift")
    mu_nodes = _as_node_curve(mu, grid, (num_assets,), "drift")

    sig = np.asarray(volatility, dtype=float)
    if sig.ndim == 0:
        if num_assets != 1:
            raise ConfigError("scalar volatility requires a single asset")
        sig = sig.reshape(1, 1)
    elif sig.ndim == 1:
        if sig.shape[0] != num_assets:
            raise ConfigError(
                f"volatility vector length {sig.shape[0]} != num_assets {num_assets}"
            )
        sig = np.diag(sig)
    vol_nodes = _as_node_curve(sig, grid, (num_assets, num_assets), "volatility")

    r_nodes = _as_node_curve(risk_free, grid, (), "risk_free")

    # a market constant in time derives its curves at node 0 alone
    rows = 1 if all(a.strides[0] == 0 for a in (mu_nodes, vol_nodes, r_nodes)) else n
    with np.errstate(all="ignore"):  # an overflow is refused below, by node
        excess = mu_nodes[:rows] - r_nodes[:rows, None]
        gram = np.einsum("tji,tjk->tik", vol_nodes[:rows], vol_nodes[:rows])
        gram = 0.5 * (gram + np.transpose(gram, (0, 2, 1)))  # enforce exact symmetry
        try:
            theta = _checked_theta(excess, gram)
        except np.linalg.LinAlgError:
            for bad in range(rows):  # the first node whose Sigma fails alone
                try:
                    _checked_theta(excess[bad:bad + 1], gram[bad:bad + 1])
                except np.linalg.LinAlgError:
                    raise SingularGram(
                        f"Gram matrix singular or not positive definite at node {bad} "
                        f"(t = {grid.nodes[bad]:g})"
                    ) from None
    finite = np.isfinite(excess).all(1) & np.isfinite(gram).all((1, 2)) & np.isfinite(theta)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ConfigError(f"excess return, Gram matrix or theta not finite at node {bad} "
                          f"(t = {grid.nodes[bad]:g})")

    return MarketCurves(
        num_assets=num_assets,
        grid=grid,
        risk_free_nodes=r_nodes,
        volatility_nodes=vol_nodes,
        excess_nodes=np.broadcast_to(excess, (n, num_assets)),
        gram_nodes=np.broadcast_to(gram, vol_nodes.shape),
        theta_nodes=np.broadcast_to(theta, (n,)),
    )
