"""Strategies, distortions, value functions, and utility losses.

All quantities here are assembled from solved coefficient tables.  The
equilibrium allocation is linear in wealth, the Girsanov distortion is
wealth-free, and every value function is a time coefficient times
wealth, so the three utility-loss ratios are wealth-independent.

Coefficient values between grid nodes come from each table's stacked
cubic spline, matching the integrator's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveWealth, OutOfHorizon, ZeroDenominatorValue
from .market import MarketCurves
from .solver import CoefficientTable, SolvedModel, SolvedTable


def _columns_at(table: SolvedTable, t: float) -> list[float]:
    """Every column of a table (``table.COLUMNS`` order) interpolated at t."""
    if not 0.0 <= t <= table.grid.horizon:  # NaN fails too
        raise OutOfHorizon(f"time {t} outside [0, {table.grid.horizon}]")
    return table.spline(t).tolist()


def coefficients_at(table: CoefficientTable, t: float) -> tuple[float, ...]:
    """(f, h1, h2, h3, g1, k1) interpolated at time t."""
    return tuple(_columns_at(table, t)[:6])


@dataclass(frozen=True)
class PolicyPoint:
    """Equilibrium strategy and sensitivity aggregates at one (t, w)."""

    time: float
    wealth: float
    allocation: np.ndarray   # money in each risky asset
    distortion: np.ndarray   # Girsanov drift adjustment, wealth-free
    delta1: float
    delta2: float
    delta3: float
    ambiguity_pref: float    # -delta2 / delta1**2


def equilibrium_policy(
    table: CoefficientTable,
    market: MarketCurves,
    t: float,
    w: float,
) -> PolicyPoint:
    """Evaluate the equilibrium control-measure pair at (t, w).

    The allocation is ``w / (xi + 1) * Sigma^{-1} beta * f(t)`` and the
    distortion is ``-xi / (xi + 1) * sigma Sigma^{-1} beta``: with
    ``Sigma = sigma' sigma`` the columns of ``sigma`` are the assets'
    loadings, so ``|q|^2 = (xi / (xi + 1))^2 theta``.  The
    sensitivity aggregates are assembled term by term from the solved
    coefficients (not through ``f``), so the identities
    ``delta1 = f * delta3`` and ``delta3 = -w * delta2`` are genuine
    cross-checks of the solution rather than restatements.
    """
    return policy_point(
        market, t, w, table.gamma0, table.phi0, table.xi, coefficients_at(table, t)
    )


def policy_point(
    market: MarketCurves,
    t: float,
    w: float,
    gamma0: float,
    phi0: float,
    xi: float,
    coefficients: tuple[float, ...],
) -> PolicyPoint:
    """``equilibrium_policy`` from the coefficients ``(f, h1, h2, h3, g1, k1)`` at t."""
    if w <= 0.0:
        raise NonPositiveWealth(f"wealth must be positive, got {w}")
    f, h1, h2, h3, g1, k1 = coefficients
    g0, p0 = gamma0, phi0

    beta = market.excess_at(t)
    sig = market.volatility_at(t)
    gram_inv_beta = market.gram_solve(t, beta)
    allocation = (w / (xi + 1.0)) * gram_inv_beta * f
    distortion = -(xi / (xi + 1.0)) * (sig @ gram_inv_beta)

    delta1 = (
        h1 - g0 * h2 + p0 * h3
        + (g0 * g1 + 2.0 * p0 * g1 * g1) * g1
        - p0 * k1 * g1
        - 2.0 * p0 * g1 * k1
    )
    delta2 = (-g0 * h2 + 2.0 * p0 * h3) / w - 2.0 * p0 * g1 * k1 / w
    delta3 = g0 * h2 + 2.0 * p0 * (g1 * k1 - h3)
    ambiguity_pref = -delta2 / (delta1 * delta1)

    return PolicyPoint(
        time=t, wealth=w, allocation=allocation, distortion=distortion,
        delta1=delta1, delta2=delta2, delta3=delta3,
        ambiguity_pref=ambiguity_pref,
    )


def bracket(gamma0: float, phi0: float, h1: float, h2: float, h3: float, g1: float) -> float:
    """Coefficient multiplying wealth in a value function; a
    misspecified-strategy table passes ``(a1, a2, a3, b1)``."""
    return (
        h1 - 0.5 * gamma0 * (h2 - g1 * g1)
        + phi0 / 3.0 * (2.0 * g1 ** 3 - 3.0 * g1 * h2 + h3)
    )


def value_bracket(table: SolvedTable, t: float) -> float:
    """Coefficient multiplying wealth in the value function of either
    table kind: ``(h1, h2, h3, g1)`` or ``(a1, a2, a3, b1)`` at t."""
    return bracket(table.gamma0, table.phi0, *_columns_at(table, t)[1:5])


@dataclass(frozen=True)
class ValueReport:
    """All six value functions and the three loss ratios at one (t, w)."""

    time: float
    wealth: float
    value_full: float
    value_neutral: float
    value_noskew: float
    value_basic: float
    value_mispec_u: float
    value_mispec_both: float
    loss_skew: float          # 1 - value_noskew / value_full
    loss_uncertainty: float   # 1 - value_mispec_u / value_full
    loss_both: float          # 1 - value_mispec_both / value_full


def value_at(model: SolvedModel, t: float, w: float) -> ValueReport:
    """Assemble every value function and loss ratio at (t, w).

    Losses are formed from the wealth-free brackets, so they are
    independent of ``w`` by construction.
    """
    return value_report(t, w, (
        value_bracket(model.full, t),
        value_bracket(model.neutral, t),
        value_bracket(model.noskew, t),
        value_bracket(model.basic, t),
        value_bracket(model.mispec_u, t),
        value_bracket(model.mispec_both, t),
    ))


def value_report(t: float, w: float, brackets: tuple[float, ...]) -> ValueReport:
    """``value_at`` from the six brackets, in ``SolvedModel`` field order."""
    if w <= 0.0:
        raise NonPositiveWealth(f"wealth must be positive, got {w}")
    b_full, b_neutral, b_noskew, b_basic, b_mu, b_mb = brackets
    if b_full == 0.0:
        raise ZeroDenominatorValue(f"value function vanishes at t = {t}")
    return ValueReport(
        time=t, wealth=w,
        value_full=b_full * w,
        value_neutral=b_neutral * w,
        value_noskew=b_noskew * w,
        value_basic=b_basic * w,
        value_mispec_u=b_mu * w,
        value_mispec_both=b_mb * w,
        loss_skew=1.0 - b_noskew / b_full,
        loss_uncertainty=1.0 - b_mu / b_full,
        loss_both=1.0 - b_mb / b_full,
    )


@dataclass(frozen=True)
class Delta3Report:
    """Grid minimum of the positivity quantity delta3."""

    min_value: float
    argmin_time: float
    all_positive: bool


def delta3_scan(table: CoefficientTable) -> Delta3Report:
    """Report the grid minimum of delta3 and whether it stays positive."""
    idx = int(np.argmin(table.delta3))
    mn = float(table.delta3[idx])
    return Delta3Report(
        min_value=mn,
        argmin_time=float(table.grid.nodes[idx]),
        all_positive=bool(mn > 0.0),
    )
