"""Named verification checks bundled behind the ``check`` command.

Every check runs at the configuration's own parameters with pinned
tolerances and returns a machine-readable result.  A check is a function
of one solved table of either kind, on the market it carries, the loaded
config and the table's shared Monte Carlo run, which only the three checks
that simulate read.  ``run_checks`` solves the FULL table once
(``solve_full``, the one reader of ``config.market_curves``, which
``simulate`` uses too) and runs that simulation once.  The same bounds
are asserted by the acceptance test suite.  ``oracle_equivalence``
extrapolates Picard; every other oracle integral (moments, penalty,
running fourth moment) is ``simulate``'s one extrapolated rule.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import MvsRobustError
from .market import Preferences, TimeGrid
from .policy import coefficients_at, delta3_scan
from .simulate import (
    SimResult,
    log_moment_growth,
    lognormal_moments,
    moment_bound_check,
    simulate_equilibrium_wealth,
    verify_value,
)
from .solver import CoefficientTable, ModelVariant, SolvedTable, solve_f_picard, solve_system

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


def solve_full(config: RunConfig) -> CoefficientTable:
    """The config's FULL table: the one ``check`` verifies and ``simulate`` runs."""
    market = config.market_curves
    return solve_system(market, config.preferences, market.grid, ModelVariant.FULL,
                        config.solver.eps_den)


def check_terminal_conditions(table: SolvedTable, config: RunConfig,
                             sim: SimResult | None) -> CheckResult:
    """Terminal nodes carry the exact boundary values: the ratio ``1/gamma0``
    and ``y1..y4`` one, read by position in ``COLUMNS`` from either table kind."""
    ratio, *ys = (getattr(table, name) for name in table.COLUMNS[:5])
    worst = max(abs(ratio[-1] - 1.0 / table.gamma0), *(abs(y[-1] - 1.0) for y in ys))
    return CheckResult("terminal_conditions", worst == 0.0, {"max_abs_err": worst})


def check_oracle_equivalence(table: CoefficientTable, config: RunConfig,
                             sim: SimResult | None) -> CheckResult:
    """RK4 route and integral-equation route agree on f, at the table's effective
    weights.  Picard's trapezoid rule is second order, so the oracle is
    ``(4 P(2N)[::2] - P(N)) / 3``."""
    solver, grid = config.solver, table.grid
    prefs = Preferences(table.gamma0, table.phi0, table.xi)
    f_n, f_2n = (
        solve_f_picard(table.market, prefs, g, tol=solver.picard_tol,
                       max_iter=solver.picard_max_iter, eps_den=solver.eps_den)
        for g in (grid, TimeGrid(grid.horizon, 2 * grid.num_steps))
    )
    sup = float(np.max(np.abs(table.f - (4.0 * f_2n[::2] - f_n) / 3.0)))
    return CheckResult(
        "oracle_equivalence", sup < ORACLE_SUP_TOL,
        {"sup_diff": sup, "tol": ORACLE_SUP_TOL},
    )


def check_closed_form_consistency(table: SolvedTable, config: RunConfig,
                                  sim: SimResult | None) -> CheckResult:
    """g1, h2, h3 (b1, a2, a3 of a misspecified table) at every node are the
    lognormal moment growths of orders 1..3, the exponentials of their rates
    integrated to the horizon."""
    _, _, y2, y3, y4 = (getattr(table, name) for name in table.COLUMNS[:5])
    growth = np.exp(log_moment_growth(table, 0.0, (1, 2, 3)))
    rel = float(np.max(np.abs(growth / np.array([y4, y2, y3]) - 1.0)))
    return CheckResult(
        "closed_form_consistency", rel < CLOSED_FORM_REL_TOL,
        {"max_rel_err": rel, "tol": CLOSED_FORM_REL_TOL},
    )


def check_h2_equals_k1(table: SolvedTable, config: RunConfig,
                      sim: SimResult | None) -> CheckResult:
    """Kept for readers of ``check``'s output: ``k1`` has ``h2``'s equation and
    terminal value, so a table stores ``h2`` once and ``solve`` writes it twice."""
    return CheckResult("h2_equals_k1", True, {"max_abs_diff": 0.0})


def check_lognormal_moments(table: SolvedTable, config: RunConfig,
                           sim: SimResult | None) -> CheckResult:
    """Orders 1..3 of the wealth GBM reproduce g1 w, h2 w^2, h3 w^3 at the
    start time, with the coefficients interpolated there."""
    w = config.simulation.start_wealth
    t = config.simulation.start_time
    _, _, h2, h3, g1 = coefficients_at(table, t)
    targets = (g1 * w, h2 * w ** 2, h3 * w ** 3)
    moments = lognormal_moments(table, t, w, (1, 2, 3))
    worst = max(abs(m / target - 1.0) for m, target in zip(moments, targets))
    return CheckResult(
        "lognormal_moments", worst < MOMENT_REL_TOL,
        {"max_rel_err": worst, "tol": MOMENT_REL_TOL},
    )


def check_value_verification(table: SolvedTable, config: RunConfig,
                             sim: SimResult) -> CheckResult:
    """Analytic and Monte Carlo objective reassembly hit the value function."""
    s = config.simulation
    res = verify_value(table, s.start_time, s.start_wealth, s, sim=sim)
    ok = res.analytic_rel_err < VALUE_REL_TOL and abs(res.mc_z) <= MC_Z_BOUND
    return CheckResult(
        "value_verification", ok,
        {
            "analytic_rel_err": res.analytic_rel_err,
            "mc_z": res.mc_z,
            "value": res.value,
        },
    )


def check_delta3_positivity(table: SolvedTable, config: RunConfig,
                           sim: SimResult | None) -> CheckResult:
    scan = delta3_scan(table)
    return CheckResult(
        "delta3_positivity", scan.all_positive,
        {"min_delta3": scan.min_value, "argmin_time": scan.argmin_time},
    )


def check_moment_bound(table: SolvedTable, config: RunConfig, sim: SimResult) -> CheckResult:
    res = moment_bound_check(table, config.simulation, sim=sim)
    return CheckResult(
        "moment_bound", res.finite and res.consistent,
        {
            "analytic_sup": res.analytic_sup,
            "mc_sup": res.mc_sup,
            "ratio": res.ratio,
        },
    )


def check_determinism(table: SolvedTable, config: RunConfig, sim: SimResult) -> CheckResult:
    """A second run of ``sim`` agrees bit for bit, every field, as pickles:
    a NaN matches a NaN and ``-0.0`` differs from ``0.0``."""
    again = simulate_equilibrium_wealth(table, config.simulation)
    return CheckResult("determinism", pickle.dumps(sim) == pickle.dumps(again))


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
    """Every check on the FULL table and one shared run of it; a failed solve
    fails every check.  Validates the whole config first, so a config built in
    code raises the ``ConfigError`` that load would."""
    config.validate()
    names = [fn.__name__.removeprefix("check_") for fn in ALL_CHECKS]
    try:
        table = solve_full(config)
        sim = simulate_equilibrium_wealth(table, config.simulation)
    except MvsRobustError as exc:
        return [CheckResult(name, False, message=_failure(exc)) for name in names]
    results = []
    for name, fn in zip(names, ALL_CHECKS):
        try:
            results.append(fn(table, config, sim))
        except MvsRobustError as exc:
            results.append(CheckResult(name, False, message=_failure(exc)))
    return results


def _failure(exc: MvsRobustError) -> str:
    return f"{type(exc).__name__}: {exc}"
