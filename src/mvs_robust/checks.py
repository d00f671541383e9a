"""Named verification checks bundled behind the ``check`` command.

Every check runs at the configuration's own parameters with pinned
tolerances and returns a machine-readable result.  The checks share one
solved FULL table (``CheckContext``).  The same bounds are asserted by
the acceptance test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import MvsRobustError
from .market import MarketCurves, Preferences, TimeGrid
from .policy import coefficients_at, delta3_scan
from .simulate import (
    lognormal_moments,
    moment_bound_check,
    simulate_equilibrium_wealth,
    verify_value,
)
from .solver import (
    CoefficientTable,
    ModelVariant,
    reverse_cumtrapz,
    solve_f_picard,
    solve_system,
)

ORACLE_SUP_TOL = 1e-6          # RK4 vs fixed-point route, sup norm on f
CLOSED_FORM_REL_TOL = 1e-7     # quadrature reconstruction of h2, h3, g1
MOMENT_REL_TOL = 1e-7          # lognormal moments vs solved coefficients
VALUE_REL_TOL = 1e-6           # analytic objective reassembly vs value
MC_Z_BOUND = 3.0               # Monte Carlo bands, in standard errors
FOURTH_MOMENT_BAND = (0.8, 1.25)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    metrics: dict[str, float] = field(default_factory=dict)
    message: str = ""

    def summary_line(self) -> str:
        parts = [f"check={self.name}", f"status={'pass' if self.passed else 'fail'}"]
        parts += [f"{k}={v:.6g}" for k, v in self.metrics.items()]
        if self.message:
            parts.append(f"note={self.message}")
        return " ".join(parts)


@dataclass(frozen=True)
class CheckContext:
    """A configuration with its grid, market, preferences and FULL table."""

    config: RunConfig
    grid: TimeGrid
    market: MarketCurves
    prefs: Preferences
    table: CoefficientTable


def solve_context(config: RunConfig) -> CheckContext:
    grid = config.build_grid()
    market = config.build_market(grid)
    prefs = config.build_preferences()
    table = solve_system(
        market, prefs, grid, ModelVariant.FULL, config.solver.eps_den
    )
    return CheckContext(config, grid, market, prefs, table)


def check_terminal_conditions(ctx: CheckContext) -> CheckResult:
    """Terminal nodes carry the exact boundary values."""
    table = ctx.table
    errs = [
        abs(table.f[-1] - 1.0 / ctx.prefs.gamma0),
        abs(table.h1[-1] - 1.0), abs(table.h2[-1] - 1.0),
        abs(table.h3[-1] - 1.0), abs(table.g1[-1] - 1.0), abs(table.k1[-1] - 1.0),
    ]
    worst = max(errs)
    return CheckResult("terminal_conditions", worst == 0.0, {"max_abs_err": worst})


def check_oracle_equivalence(ctx: CheckContext) -> CheckResult:
    """RK4 route and integral-equation route agree on f."""
    solver = ctx.config.solver
    f_pic = solve_f_picard(
        ctx.market, ctx.prefs, ctx.grid,
        tol=solver.picard_tol,
        max_iter=solver.picard_max_iter,
        eps_den=solver.eps_den,
    )
    sup = float(np.max(np.abs(ctx.table.f - f_pic)))
    return CheckResult(
        "oracle_equivalence", sup < ORACLE_SUP_TOL,
        {"sup_diff": sup, "tol": ORACLE_SUP_TOL},
    )


def check_closed_form_consistency(ctx: CheckContext) -> CheckResult:
    """Exponential reconstructions from the solved f match the ODE output."""
    table = ctx.table
    dt = ctx.grid.dt
    nodes = ctx.grid.nodes
    r = np.asarray(ctx.market.risk_free_at(nodes), dtype=float)
    th = np.asarray(ctx.market.theta_at(nodes), dtype=float)
    c = 1.0 / ((table.xi + 1.0) ** 2)
    f = table.f
    g1 = np.exp(reverse_cumtrapz(r + th * f * c, dt))
    h2 = np.exp(reverse_cumtrapz(2 * r + (2 * th * f + th * f * f) * c, dt))
    h3 = np.exp(reverse_cumtrapz(3 * (r + (th * f + th * f * f) * c), dt))
    rel = max(
        float(np.max(np.abs(g1 / table.g1 - 1.0))),
        float(np.max(np.abs(h2 / table.h2 - 1.0))),
        float(np.max(np.abs(h3 / table.h3 - 1.0))),
    )
    return CheckResult(
        "closed_form_consistency", rel < CLOSED_FORM_REL_TOL,
        {"max_rel_err": rel, "tol": CLOSED_FORM_REL_TOL},
    )


def check_h2_equals_k1(ctx: CheckContext) -> CheckResult:
    table = ctx.table
    same = bool(np.array_equal(table.h2, table.k1))
    return CheckResult("h2_equals_k1", same, {"max_abs_diff": float(np.max(np.abs(table.h2 - table.k1)))})


def check_lognormal_moments(ctx: CheckContext) -> CheckResult:
    """Orders 1..3 of the wealth GBM reproduce g1 w, h2 w^2, h3 w^3 at the
    start time, with the coefficients interpolated there."""
    w = ctx.config.simulation.start_wealth
    t = ctx.config.simulation.start_time
    _, _, h2, h3, g1, _ = coefficients_at(ctx.table, t)
    targets = (g1 * w, h2 * w ** 2, h3 * w ** 3)
    rels = [
        abs(lognormal_moments(ctx.table, ctx.market, t, w, n) / targets[n - 1] - 1.0)
        for n in (1, 2, 3)
    ]
    worst = max(rels)
    return CheckResult(
        "lognormal_moments", worst < MOMENT_REL_TOL,
        {"max_rel_err": worst, "tol": MOMENT_REL_TOL},
    )


def check_value_verification(ctx: CheckContext) -> CheckResult:
    """Analytic and Monte Carlo objective reassembly hit the value function."""
    sim = ctx.config.simulation
    res = verify_value(
        ctx.table, ctx.market, sim.start_time, sim.start_wealth, ctx.config.build_sim_config(),
    )
    ok = res.analytic_rel_err < VALUE_REL_TOL and abs(res.mc_z) <= MC_Z_BOUND
    return CheckResult(
        "value_verification", ok,
        {
            "analytic_rel_err": res.analytic_rel_err,
            "mc_z": res.mc_z,
            "value": res.value,
        },
    )


def check_delta3_positivity(ctx: CheckContext) -> CheckResult:
    scan = delta3_scan(ctx.table)
    return CheckResult(
        "delta3_positivity", scan.all_positive,
        {"min_delta3": scan.min_value, "argmin_time": scan.argmin_time},
    )


def check_moment_bound(ctx: CheckContext) -> CheckResult:
    cfg = ctx.config.build_sim_config()
    res = moment_bound_check(ctx.table, ctx.market, cfg, FOURTH_MOMENT_BAND)
    return CheckResult(
        "moment_bound", res.finite and res.consistent,
        {
            "analytic_sup": res.analytic_sup,
            "mc_sup": res.mc_sup,
            "ratio": res.ratio,
        },
    )


def check_determinism(ctx: CheckContext) -> CheckResult:
    """Two identical simulation runs agree bitwise."""
    cfg = ctx.config.build_sim_config()
    a = simulate_equilibrium_wealth(ctx.table, ctx.market, cfg)
    b = simulate_equilibrium_wealth(ctx.table, ctx.market, cfg)
    same = all(
        a.moments[i].value == b.moments[i].value
        and a.moments[i].std_error == b.moments[i].std_error
        for i in range(4)
    ) and a.sup_fourth_moment == b.sup_fourth_moment
    return CheckResult("determinism", bool(same))


ALL_CHECKS = (
    check_terminal_conditions,
    check_oracle_equivalence,
    check_closed_form_consistency,
    check_h2_equals_k1,
    check_lognormal_moments,
    check_value_verification,
    check_delta3_positivity,
    check_moment_bound,
    check_determinism,
)


def run_checks(config: RunConfig) -> list[CheckResult]:
    """Every check on one shared solve; a failed solve fails every check."""
    names = [fn.__name__.removeprefix("check_") for fn in ALL_CHECKS]
    try:
        ctx = solve_context(config)
    except MvsRobustError as exc:
        return [CheckResult(name, False, message=_failure(exc)) for name in names]
    results = []
    for name, fn in zip(names, ALL_CHECKS):
        try:
            results.append(fn(ctx))
        except MvsRobustError as exc:
            results.append(CheckResult(name, False, message=_failure(exc)))
    return results


def _failure(exc: MvsRobustError) -> str:
    return f"{type(exc).__name__}: {exc}"
