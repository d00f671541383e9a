import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mvs_robust import (
    ConfigError,
    DegenerateDenominator,
    MispecKind,
    ModelVariant,
    NoConvergence,
    NonFiniteState,
    Preferences,
    TimeGrid,
    build_market,
    solve_f_picard,
    solve_mispec_system,
    solve_system,
)
from mvs_robust import solver
from mvs_robust.config import parse_config
from mvs_robust.policy import value_bracket
from mvs_robust.presets import FIGURE_PRESETS, preset_config
from mvs_robust.solver import Lane, LanePlan, PicardInfo, integrate_lanes, solve_all
from mvs_robust.sweep import run_sweep

from conftest import BASE, make_market


class TestTerminalConditions:
    def test_base(self, base_table):
        t = base_table
        assert t.f[-1] == 1.0 / BASE["gamma0"]
        for arr in (t.h1, t.h2, t.h3, t.g1):
            assert arr[-1] == 1.0

    @pytest.mark.parametrize("gamma0,phi0,xi", [(3.7, 0.2, 0.8), (0.9, 0.0, 2.5), (5.0, 1.0, 0.0)])
    def test_random_parameters(self, base_market, base_grid, gamma0, phi0, xi):
        prefs = Preferences(gamma0, phi0, xi)
        t = solve_system(base_market, prefs, base_grid)
        assert t.f[-1] == 1.0 / gamma0
        assert all(arr[-1] == 1.0 for arr in (t.h1, t.h2, t.h3, t.g1))


class TestSystemStructure:
    def test_positive_exponential_coefficients(self, base_table):
        for arr in (base_table.h2, base_table.h3, base_table.g1):
            assert np.all(arr > 0.0)

    def test_full_reduces_to_noskew_when_phi0_zero(self, base_market, base_grid):
        prefs = Preferences(gamma0=2.0, phi0=0.0, xi=1.0)
        full = solve_system(base_market, prefs, base_grid, ModelVariant.FULL)
        hat = solve_system(base_market, prefs, base_grid, ModelVariant.NO_SKEW)
        assert np.array_equal(full.f, hat.f)
        assert np.array_equal(full.h1, hat.h1)

    def test_neutral_h1_equals_g1(self, base_model):
        # with no ambiguity the first-moment and penalty-bearing
        # coefficients satisfy the same equation
        t = base_model.neutral
        assert np.array_equal(t.h1, t.g1)

    def test_degenerate_market_closed_form(self, base_grid):
        m = make_market(mu=BASE["r"])
        prefs = Preferences(2.0, 0.5, 1.0)
        t = solve_system(m, prefs, base_grid)
        exact = np.exp(-BASE["r"] * (BASE["T"] - base_grid.nodes)) / 2.0
        assert np.max(np.abs(t.f - exact)) < 1e-8
        assert t.f[0] == pytest.approx(np.exp(-0.25) / 2.0, abs=1e-10)

    def test_low_risk_aversion_degenerates(self, base_market, base_grid):
        # the ratio denominator reaches zero inside the horizon
        with pytest.raises(DegenerateDenominator):
            solve_system(base_market, Preferences(1.0, 0.5, 1.0), base_grid)

    def test_refinement_order(self, base_prefs):
        ref = solve_system(make_market(num_steps=2000), base_prefs, TimeGrid(5.0, 2000)).f[0]
        errs = []
        for n in (10, 20, 40, 80):
            f0 = solve_system(make_market(num_steps=n), base_prefs, TimeGrid(5.0, n)).f[0]
            errs.append(abs(f0 - ref))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert min(orders) >= 3.5

    def test_f_bounded_and_stable_under_refinement(self, base_prefs):
        sup = {}
        for n in (1000, 2000, 4000):
            t = solve_system(make_market(num_steps=n), base_prefs, TimeGrid(5.0, n))
            sup[n] = np.max(np.abs(t.f))
        assert np.isfinite(sup[4000])
        assert sup[1000] == pytest.approx(sup[4000], rel=1e-8)


class TestVariantLimits:
    def test_vanishing_ambiguity_matches_neutral(self, base_market, base_grid):
        eps = solve_system(
            base_market, Preferences(2.0, 0.5, 1e-8), base_grid, ModelVariant.FULL
        )
        neutral = solve_system(
            base_market, Preferences(2.0, 0.5, 1.0), base_grid, ModelVariant.AMBIGUITY_NEUTRAL
        )
        assert np.max(np.abs(eps.f - neutral.f)) < 1e-5

    def test_effective_parameters(self, base_model):
        assert base_model.full.xi == 1.0 and base_model.full.phi0 == 0.5
        assert base_model.neutral.xi == 0.0 and base_model.neutral.phi0 == 0.5
        assert base_model.noskew.xi == 1.0 and base_model.noskew.phi0 == 0.0
        assert base_model.basic.xi == 0.0 and base_model.basic.phi0 == 0.0


class TestPicard:
    def test_matches_rk4_at_base(self, base_market, base_prefs, base_grid, base_table):
        f = solve_f_picard(base_market, base_prefs, base_grid)
        assert np.max(np.abs(f - base_table.f)) < 1e-6

    def test_terminal_value_exact(self, base_market, base_prefs, base_grid):
        f = solve_f_picard(base_market, base_prefs, base_grid, max_iter=3, tol=1.0)
        assert f[-1] == 1.0 / base_prefs.gamma0

    def test_zero_theta_fixed_point_in_one_iteration(self, base_grid):
        # theta = 0 makes the map constant: the first evaluation lands on the
        # fixed point and the second confirms it
        m = make_market(mu=BASE["r"])
        prefs = Preferences(2.0, 0.5, 1.0)
        exact = np.exp(-BASE["r"] * (BASE["T"] - base_grid.nodes)) / 2.0
        f, info = solve_f_picard(m, prefs, base_grid, full_output=True)
        assert info == PicardInfo(iterations=2, mode="global")
        assert np.max(np.abs(f - exact)) < 1e-10

    def test_budget_exhaustion_raises(self, base_market, base_prefs, base_grid):
        with pytest.raises(NoConvergence):
            solve_f_picard(base_market, base_prefs, base_grid, tol=1e-15, max_iter=2)

    def test_bad_tol_rejected(self, base_market, base_prefs, base_grid):
        with pytest.raises(ConfigError):
            solve_f_picard(base_market, base_prefs, base_grid, tol=0.0)

    def test_nan_tol_rejected(self, base_market, base_prefs, base_grid):
        with pytest.raises(ConfigError, match="^tol must be positive, got nan$"):
            solve_f_picard(base_market, base_prefs, base_grid, tol=float("nan"))

    def test_continuation_handles_noncontractive_map(self):
        # plain damped iteration diverges here; RK4 still solves it
        m = build_market(5.0, 0.05, 0.05 + 0.25 * np.sqrt(0.309), 0.25, num_steps=2000)
        grid = m.grid
        prefs = Preferences(1.713, 0.792, 0.552)
        table = solve_system(m, prefs, grid)
        f, info = solve_f_picard(m, prefs, grid, full_output=True)
        assert isinstance(info, PicardInfo) and info.mode == "continuation"
        assert np.max(np.abs(f - table.f)) < 1e-6


THREE_ASSET = dict(
    mu=[0.12, 0.15, 0.18], sigma=[[0.20, 0.0, 0.0], [0.06, 0.22, 0.0], [0.04, 0.05, 0.25]]
)


@pytest.mark.parametrize("market", [{}, THREE_ASSET], ids=["base", "three_asset"])
def test_step_doubling_orders(market):
    """Observed orders in f(0): RK4 is fourth order and Picard's trapezoid
    second order, so the 2,000-step oracle gap is Picard's error, and
    Richardson-extrapolated Picard meets RK4 far inside ORACLE_SUP_TOL."""
    prefs = Preferences(2.0, 0.5, 1.0)

    def f0(solve, n):
        return solve(make_market(num_steps=n, **market), prefs, TimeGrid(5.0, n))

    rk4 = {n: f0(solve_system, n).f[0] for n in (250, 500, 1000, 8000)}
    picard = {n: f0(solve_f_picard, n)[0] for n in (1000, 2000, 4000)}

    def order(f, n):
        return np.log2((f[n] - f[2 * n]) / (f[2 * n] - f[4 * n]))

    assert 3.5 <= order(rk4, 250) <= 4.5
    assert 1.8 <= order(picard, 1000) <= 2.2
    assert abs((4.0 * picard[4000] - picard[2000]) / 3.0 - rk4[8000]) < 1e-10


def rk4_vs_picard(mu, sigma, prefs, n=2000):
    """RK4's gap to Picard at ``n`` steps and Picard's own step-doubling
    estimate, or None where RK4 degenerates (then Picard must fail too)."""
    def solve(route, m):
        return route(make_market(mu=mu, sigma=sigma, num_steps=m), prefs, TimeGrid(5.0, m))

    try:
        f = solve(solve_system, n).f
    except DegenerateDenominator:
        with pytest.raises((DegenerateDenominator, NoConvergence)):
            solve(solve_f_picard, n)
        return None
    picard, picard2 = solve(solve_f_picard, n), solve(solve_f_picard, 2 * n)
    return float(np.max(np.abs(f - picard))), float(np.max(np.abs(picard - picard2[::2])))


class TestRk4VsPicard:
    """RK4 and the fixed-point oracle agree within twice the oracle's own
    step-doubling error estimate: Picard is second order, so its error,
    not RK4's, sets the gap (about 4/3 of the estimate)."""

    def test_bound_where_the_fixed_tolerance_fails(self):
        # RK4 and Picard differ by 2.5e-5 here, beyond ORACLE_SUP_TOL
        gap, doubling = rk4_vs_picard(0.27903, 0.32978, Preferences(2.27791, 2.62057, 1.41690))
        assert gap > 1e-6
        assert gap <= 2.0 * doubling + 1e-9

    def test_seeded_draws(self):
        rng = np.random.default_rng(1)
        solved = 0
        for _ in range(40):
            mu, sigma = rng.uniform(0.06, 0.3), rng.uniform(0.1, 0.4)
            prefs = Preferences(rng.uniform(0.5, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
            out = rk4_vs_picard(mu, sigma, prefs)
            if out is not None:
                gap, doubling = out
                assert gap <= 2.0 * doubling + 1e-9, (mu, sigma, prefs)
                solved += 1
        assert 0 < solved < 40  # both branches are exercised


class TestClosedFormConsistency:
    def test_quadrature_reconstruction(self, base_table, base_market, base_grid):
        t = base_table
        dt = base_grid.dt
        r = base_market.risk_free_nodes
        th = base_market.theta_nodes
        c = 1.0 / (t.xi + 1.0) ** 2

        def revcum(g):
            inc = 0.5 * dt * (g[:-1] + g[1:])
            out = np.empty_like(g)
            out[-1] = 0.0
            out[:-1] = np.cumsum(inc[::-1])[::-1]
            return out

        g1 = np.exp(revcum(r + th * t.f * c))
        h2 = np.exp(revcum(2 * r + (2 * th * t.f + th * t.f**2) * c))
        h3 = np.exp(revcum(3 * (r + (th * t.f + th * t.f**2) * c)))
        assert np.max(np.abs(g1 / t.g1 - 1)) < 1e-7
        assert np.max(np.abs(h2 / t.h2 - 1)) < 1e-7
        assert np.max(np.abs(h3 / t.h3 - 1)) < 1e-7


class TestMispecSystems:
    def test_terminal_conditions(self, base_model):
        for tab in (base_model.mispec_u, base_model.mispec_both):
            for arr in (tab.a1, tab.a2, tab.a3, tab.b1):
                assert arr[-1] == 1.0

    def test_zero_ambiguity_recovers_neutral_value(self, base_market, base_grid):
        prefs = Preferences(2.0, 0.5, 0.0)
        neutral = solve_system(
            base_market, prefs, base_grid, ModelVariant.AMBIGUITY_NEUTRAL
        )
        mis = solve_mispec_system(base_market, prefs, base_grid, MispecKind.IGNORE_UNCERTAINTY)
        for t in (0.0, 1.7, 4.2):
            assert value_bracket(mis, t) == pytest.approx(
                value_bracket(neutral, t), abs=1e-10
            )

    def test_ignore_both_a2_positive(self, base_model):
        assert np.all(base_model.mispec_both.a2 > 0.0)

    def test_ignore_both_drops_skewness(self, base_model):
        assert base_model.mispec_both.phi0 == 0.0
        assert base_model.mispec_u.phi0 == 0.5

    def test_value_dominance_of_robust_strategy(self, base_model):
        # the robust value is the sup over strategies of the inf problem
        v = value_bracket(base_model.full, 0.0)
        assert value_bracket(base_model.mispec_u, 0.0) <= v
        assert value_bracket(base_model.mispec_both, 0.0) <= v


def test_solve_all_reuses_consistent_drivers(base_model):
    assert np.array_equal(base_model.mispec_u.driver_f, base_model.neutral.f)
    assert np.array_equal(base_model.mispec_both.driver_f, base_model.basic.f)


def _raised(market, prefs, eps_den, kind):
    """The ``DegenerateDenominator`` text of ``kind``'s builder (``solve_all``
    for ``None``), or None when it solves."""
    grid = market.grid
    try:
        if kind is None:
            solve_all(market, prefs, grid, eps_den)
        elif isinstance(kind, ModelVariant):
            solve_system(market, prefs, grid, kind, eps_den)
        else:
            solve_mispec_system(market, prefs, grid, kind, eps_den)
    except DegenerateDenominator as exc:
        return str(exc)
    return None


class TestBuilderFailures:
    """Each builder raises the first failure in its tables' order, and a
    misspecified table its driver's failure, in the driver's words, before its own."""

    def test_first_variant_in_field_order(self, base_market):
        # FULL fails at node 72 and neutral at node 1483: solve_all raises FULL's
        prefs = Preferences(1.0, 0.5, 1.0)
        full = "coefficient denominator below guard 1e-12 at node 72 (t = 0.18)"
        neutral = "coefficient denominator below guard 1e-12 at node 1483 (t = 3.7075)"
        kinds = (None, *ModelVariant, *MispecKind)
        assert [_raised(base_market, prefs, 1e-12, k) for k in kinds] == [
            full, full, neutral, None, None, neutral, None,
        ]

    def test_failed_driver_raises_its_own_text(self):
        # the neutral driver degenerates at node 1613; FULL solves
        market = make_market(mu=0.27903, sigma=0.32978)
        prefs = Preferences(2.27791, 2.62057, 1.41690)
        neutral = "coefficient denominator below guard 1e-12 at node 1613 (t = 4.0325)"
        kinds = (None, ModelVariant.FULL, ModelVariant.AMBIGUITY_NEUTRAL, *MispecKind)
        assert [_raised(market, prefs, 1e-12, k) for k in kinds] == [
            neutral, None, neutral, neutral, None,
        ]

    def test_first_misspecified_failure(self):
        # every coefficient table solves under a guard of 0.3, and both value systems fail
        market = make_market(num_steps=200)
        prefs = Preferences(2.0, 0.5, 0.5)
        text = "value-system denominator or ratio below guard 0.3 at node {}"
        kinds = (None, *ModelVariant, *MispecKind)
        assert [_raised(market, prefs, 0.3, k) for k in kinds] == [
            text.format("21 (t = 0.525)"), None, None, None, None,
            text.format("21 (t = 0.525)"), text.format("65 (t = 1.625)"),
        ]


@pytest.mark.parametrize("mu", [BASE["mu"], 0.10], ids=["base", "mu0.10"])
def test_table_columns_are_lane_path_rows(base_prefs, base_grid, mu):
    market = make_market(mu=mu)
    plan = LanePlan()
    idx = plan.add_model(0, base_prefs)
    res = integrate_lanes(plan.lanes, [market], base_grid, keep_paths=True)
    model = solve_all(market, base_prefs, base_grid)
    tables = (model.full, model.neutral, model.noskew, model.basic,
              model.mispec_u, model.mispec_both)
    for i, table in zip(idx, tables):
        rows, driver = list(res[i].path), plan.lanes[i].driver
        if driver is not None:
            rows.append(res[driver].path[0])
        assert res[i].path.shape == (6, base_grid.num_steps + 1)
        assert len(rows) == len(table.COLUMNS)
        for column, row in zip(table.COLUMNS, rows):
            assert np.array_equal(getattr(table, column), row), column


def march_each_alone(lanes, markets, grid, **kw):
    """Each coefficient lane alone (on floats), each misspecified lane with
    only its driver (a two-lane batch); results in the order of ``lanes``."""
    out = []
    for lane in lanes:
        if lane.driver is None:
            out.append(integrate_lanes([lane], markets, grid, **kw)[0])
        else:
            pair = [lanes[lane.driver], dataclasses.replace(lane, driver=0)]
            out.append(integrate_lanes(pair, markets, grid, **kw)[1])
    return out


@pytest.fixture(params=["floats", "arrays"])
def lane_mode(request):
    """March a plan as one array batch, or lane by lane so that every
    coefficient lane marches on Python floats."""
    return integrate_lanes if request.param == "arrays" else march_each_alone


def coefficient_plan(*prefs: Preferences) -> LanePlan:
    """Every model variant's lane for each preference set; no misspecified lane."""
    plan = LanePlan()
    for p in prefs:
        for variant in ModelVariant:
            plan.add_variant(0, p, variant)
    return plan


def assert_same_results(xs, ys):
    """Lane results equal bitwise: failures, node-0 values and paths."""
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert (a.error, a.message, a.node) == (b.error, b.message, b.node)
        if a.error is None:
            assert np.array_equal(a.path, b.path)
            assert (a.ratio0, a.state0, a.den_min) == (b.ratio0, b.state0, b.den_min)


class TestLaneBatch:
    def test_fig02_degenerate_cells_keep_their_status(self):
        _, rows = run_sweep(preset_config(next(p for p in FIGURE_PRESETS if p.name == "fig02")))
        failed = [(r.values["mu"], r.values["gamma0"], r.status) for r in rows if r.status != "ok"]
        assert len(failed) == 3
        assert all(g == 1.5 and mu > 0.15 and st == "DegenerateDenominator" for mu, g, st in failed)
        assert sum(r.status == "ok" for r in rows) == 33

    def test_failing_driver_fails_its_mispec_lane(self, base_market, base_grid, lane_mode):
        plan = LanePlan()
        good = plan.add_model(0, Preferences(2.0, 0.5, 1.0))
        bad = plan.add_model(0, Preferences(1.0, 0.5, 1.0))
        res = lane_mode(plan.lanes, [base_market], base_grid)
        neutral, mispec_u = res[bad[1]], res[bad[4]]
        assert neutral.error is DegenerateDenominator
        assert mispec_u.error is DegenerateDenominator
        assert mispec_u.node == neutral.node
        assert all(res[i].error is None for i in good)

    # a grid shorter than one block of rates, block edges, and the closing node 0
    @pytest.mark.parametrize("num_steps", [3, solver._BLOCK, solver._BLOCK + 1,
                                           2 * solver._BLOCK + 3, 2000])
    def test_floats_and_arrays_agree_bitwise(self, num_steps):
        # the batch marches as arrays, each lane alone on floats; the base
        # market's drift varies in time, so every node has its own rates, and
        # on the steep market (mu = 10, sigma = 0.2) lane states overflow
        grid = TimeGrid(BASE["T"], num_steps)
        drift = BASE["mu"] + 0.02 * np.cos(grid.nodes)[:, None]
        markets = [build_market(BASE["T"], BASE["r"], mu, sigma, num_steps=grid.num_steps)
                   for mu, sigma in ((drift, BASE["sigma"]), (10.0, 0.2))]
        plan = coefficient_plan(Preferences(2.0, 0.5, 1.0), Preferences(1.0, 0.5, 1.0),
                                Preferences(3.0, 0.0, 0.4), Preferences(2.0, 0.5, 2.0))
        lanes = plan.lanes + [dataclasses.replace(lane, market=1) for lane in plan.lanes]
        arrays = integrate_lanes(lanes, markets, grid, keep_paths=True)
        floats = march_each_alone(lanes, markets, grid, keep_paths=True)
        errors = {res.error for res in arrays}
        assert {None, DegenerateDenominator, NonFiniteState} <= errors
        assert_same_results(floats, arrays)
        # both march the same half-grid indices, one block of rates at a time
        steps = list(solver._steps(lambda i, j: range(i, j), num_steps))
        assert steps == [(k, 2 * k, 2 * k - 1, 2 * k - 2)
                         for k in range(num_steps, 0, -1)] + [(0, 0, None, None)]

    def test_mispec_lane_is_independent_of_its_batch(self, base_market, base_grid):
        plan = LanePlan()
        # (2, 0.5, 2) shares its neutral and basic drivers with (2, 0.5, 1),
        # so each of them drives two misspecified lanes
        for prefs in (Preferences(2.0, 0.5, 1.0), Preferences(1.0, 0.5, 1.0),
                      Preferences(3.0, 0.0, 0.4), Preferences(2.0, 0.5, 2.0)):
            plan.add_model(0, prefs)
        assert len(plan.lanes) == 19
        batch = integrate_lanes(plan.lanes, [base_market], base_grid, keep_paths=True)
        alone = march_each_alone(plan.lanes, [base_market], base_grid, keep_paths=True)
        assert_same_results(alone, batch)

    # a guard of 0.3 trips both kinds of lane on a coarse grid
    RATIO_GUARD = (
        "[solver]\nnum_steps = 200\neps_den = 0.3\n"
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 3\n"
        "param2 = gamma0\nmin2 = 1\nmax2 = 4\ncount2 = 4\n"
    )

    def test_every_guard_outcome_is_its_lane_alone(self):
        cfg = parse_config(self.RATIO_GUARD)
        markets, cells = cfg.cells
        plan = LanePlan()
        for cell in cells:
            plan.add_model(cell.market, cell.prefs)
        args = plan.lanes, markets, cfg.market_curves.grid
        batch = integrate_lanes(*args, eps_den=0.3, keep_paths=True)
        assert_same_results(march_each_alone(*args, eps_den=0.3, keep_paths=True), batch)
        assert {res.error for res in batch} == {None, DegenerateDenominator}
        outcomes = Counter((lane.driver is None, res.message.partition(" below guard 0.3")[0])
                           for lane, res in zip(plan.lanes, batch))
        assert outcomes == {
            (True, ""): 30,
            (True, "coefficient denominator"): 2,
            (False, "driver lane failed: coefficient denominator"): 2,
            (False, "value-system denominator or ratio"): 13,
            (False, ""): 9,
        }
        _, rows = run_sweep(cfg)
        assert Counter(row.status for row in rows) == {"DegenerateDenominator": 9, "ok": 3}

    @pytest.mark.parametrize("shuffle", ["reversed", "shuffled"])
    def test_results_do_not_depend_on_lane_order(self, base_market, base_grid, shuffle):
        plan = LanePlan()
        for prefs in (Preferences(2.0, 0.5, 1.0), Preferences(1.0, 0.5, 1.0),
                      Preferences(3.0, 0.0, 0.4), Preferences(2.0, 0.5, 2.0)):
            plan.add_model(0, prefs)
        order = list(range(len(plan.lanes)))[::-1]
        if shuffle == "shuffled":
            np.random.default_rng(11).shuffle(order)
        at = {p: i for i, p in enumerate(order)}
        lanes = [dataclasses.replace(plan.lanes[p], driver=at.get(plan.lanes[p].driver))
                 for p in order]
        assert any(lane.driver is not None and lane.driver > i for i, lane in enumerate(lanes))
        batch = integrate_lanes(plan.lanes, [base_market], base_grid, keep_paths=True)
        moved = integrate_lanes(lanes, [base_market], base_grid, keep_paths=True)
        assert any(res.error is not None for res in batch)
        assert_same_results([batch[p] for p in order], moved)

    # stage 0 of the first step, inner stages of inner steps, and the closing node 0
    @pytest.mark.parametrize("node,stage", [(2000, 0), (1000, 2), (1, 3), (0, 0)])
    def test_zero_division_fails_the_lone_lane(self, base_market, base_grid, monkeypatch,
                                               node, stage):
        # a lone lane that divides by exactly zero on floats fails at that node, as
        # the positive guard fails a zero denominator; no array march runs for it
        n = base_grid.num_steps
        at = 4 * (n - node) + stage + 1  # the _rhs call of that stage
        rhs, calls = solver._rhs, []

        def dividing_by_zero(y, par, rates):
            calls.append(rates)
            if len(calls) == at:
                raise ZeroDivisionError
            return rhs(y, par, rates)

        def no_array_march(*args):
            raise AssertionError("a lone lane marched as arrays")

        monkeypatch.setattr(solver, "_rhs", dividing_by_zero)
        monkeypatch.setattr(solver, "_march", no_array_march)
        [res] = integrate_lanes([Lane(0, 2.0, 0.5, 1.0)], [base_market], base_grid,
                                keep_paths=True)
        assert (res.error, res.node, len(calls)) == (DegenerateDenominator, node, at)
        assert res.message == ("coefficient denominator below guard 1e-12 at node "
                               f"{node} (t = {base_grid.nodes[node]:g})")

    @pytest.mark.parametrize("eps_den", [0.0, -1e-12, np.nan])
    def test_nonpositive_eps_den_is_rejected(self, base_market, base_grid, eps_den):
        with pytest.raises(ValueError, match="eps_den"):
            integrate_lanes([Lane(0, 2.0, 0.5, 1.0)], [base_market], base_grid, eps_den)

    @pytest.mark.parametrize("field,value", [("driver", -1), ("driver", 2),
                                             ("market", -1), ("market", 1)])
    def test_out_of_range_index_is_rejected(self, base_market, base_grid, field, value):
        coef = Lane(0, 2.0, 0.5, 1.0)
        mispec = Lane(0, 2.0, 0.5, 1.0, driver=1)
        assert integrate_lanes([mispec, coef], [base_market], base_grid)[0].error is None
        with pytest.raises(ValueError):
            integrate_lanes([dataclasses.replace(mispec, **{field: value}), coef],
                            [base_market], base_grid)

    def test_empty_batch(self, base_market, base_grid):
        assert integrate_lanes([], [base_market], base_grid) == []

    def test_running_min_is_min_delta3(self, base_market, base_prefs, base_grid, lane_mode):
        plan = LanePlan()
        idx = plan.add_model(0, base_prefs)
        res = lane_mode(plan.lanes, [base_market], base_grid)
        model = solve_all(base_market, base_prefs, base_grid)
        for i, table in zip(idx, (model.full, model.neutral, model.noskew, model.basic)):
            assert res[i].den_min == np.min(table.delta3)
            assert res[i].ratio0 == table.f[0]
        for i, table in zip(idx[4:], (model.mispec_u, model.mispec_both)):
            assert res[i].den_min == np.min(table.delta3)
            assert res[i].ratio0 == table.a[0]

    # node-0 values (ratio0, state0, den_min as float.hex) of both misspecified
    # lanes and their drivers on the base market at 2,000 steps, as the
    # expression-form array march of commit 6cf281d gave them; xi is not 1, so
    # the drift correction's (xi * v2) / ratio differs from xi * (v2 / ratio)
    PINNED = {
        (2.0, 0.5, 1.4169): (
            ("0x1.dbaee7ae9e594p-3", ("0x1.ae6dc91cf1b4fp+0", "0x1.8e0e101415c21p+1",
                                      "0x1.94f1a42db290dp+2", "0x1.ae6dc91cf1b4fp+0"),
             "0x1.0000000000000p+1"),
            ("0x1.89867e192e94dp-2", ("0x1.6da4c68ace82ap+0", "0x1.b777ba7f657c3p+0",
                                      "0x1.4c2a9d837b262p+1", "0x1.3fccc7472cc2bp+0"),
             "0x1.0000000000000p+1"),
            ("0x1.94a270c2defafp-3", ("0x1.a674ec6f59faep+0", "0x1.7b418fdca150dp+1",
                                      "0x1.72715184e9cf3p+2", "0x1.a674ec6f59faep+0"),
             "0x1.0000000000000p+1"),
            ("0x1.576d211b9b8b0p-2", ("0x1.6b1d3fb20f054p+0", "0x1.b42494fee707bp+0",
                                      "0x1.43091a41eb3ccp+1", "0x1.4057d45e0231dp+0"),
             "0x1.0000000000000p+1"),
        ),
        # the ambiguity-neutral driver degenerates, so its misspecified lane fails with it
        (1.0, 0.5, 1.4169): (
            None,
            None,
            ("0x1.e8f9927a17f2ep-3", ("0x1.e1088ca6d8685p+0", "0x1.177f143bb24e8p+2",
                                      "0x1.91ba908bdcc40p+3", "0x1.e1088ca6d8685p+0"),
             "0x1.0000000000000p+0"),
            ("0x1.164799b19467dp-1", ("0x1.864e1bb5a337ap+0", "0x1.09811fd304597p+1",
                                      "0x1.0700d7002c32cp+2", "0x1.4b84c6b50e4e0p+0"),
             "0x1.0000000000000p+0"),
        ),
    }
    DEGENERATE = "coefficient denominator below guard 1e-12 at node 1483 (t = 3.7075)"

    @pytest.mark.parametrize("prefs", list(PINNED), ids=["base", "degenerate-driver"])
    def test_mispec_lanes_are_pinned(self, base_market, base_grid, prefs):
        plan = LanePlan()
        ids = [plan.add_mispec(0, Preferences(*prefs), kind) for kind in MispecKind]
        assert [lane.driver for lane in plan.lanes] == [None, 0, None, 2] and ids == [1, 3]
        res = integrate_lanes(plan.lanes, [base_market], base_grid)
        got = [None if r.error else (r.ratio0.hex(), tuple(v.hex() for v in r.state0),
                                     r.den_min.hex()) for r in res]
        assert got == list(self.PINNED[prefs])
        failed = [(r.error, r.message, r.node) for r in res if r.error]
        assert failed == ([] if None not in got else [
            (DegenerateDenominator, self.DEGENERATE, 1483),
            (DegenerateDenominator, f"driver lane failed: {self.DEGENERATE}", 1483),
        ])

    def test_mispec_driver_f_is_driver_table_f(self, base_market, base_prefs, base_grid):
        for kind in MispecKind:
            driver = solve_system(base_market, base_prefs, base_grid, kind.driver_variant)
            mis = solve_mispec_system(base_market, base_prefs, base_grid, kind)
            assert np.array_equal(mis.driver_f, driver.f)


class TestColumnsAt:
    """Off-node table values against scipy's not-a-knot ``CubicSpline``,
    an independent interpolant of the same (fourth) order."""

    @staticmethod
    def node_columns(table):
        return np.column_stack([getattr(table, c) for c in table.COLUMNS])

    def spline_columns(self, table, t):
        return CubicSpline(table.grid.nodes, self.node_columns(table))(t)

    @staticmethod
    def base_table_on(num_steps, prefs):
        m = build_market(BASE["T"], BASE["r"], BASE["mu"], BASE["sigma"], num_steps=num_steps)
        return solve_system(m, prefs, m.grid)

    @pytest.mark.parametrize("market", [{}, THREE_ASSET], ids=["base", "three_asset"])
    @pytest.mark.parametrize("kind", ["coefficient", "mispec"])
    def test_matches_cubic_spline_off_nodes(self, market, kind):
        m = build_market(BASE["T"], BASE["r"], market.get("mu", BASE["mu"]),
                         market.get("sigma", BASE["sigma"]), num_steps=2000)
        grid = m.grid
        prefs = Preferences(2.0, 0.5, 1.0)
        table = (solve_system(m, prefs, grid) if kind == "coefficient" else
                 solve_mispec_system(m, prefs, grid, MispecKind.IGNORE_UNCERTAINTY))
        t = np.random.default_rng(7).uniform(0.0, grid.horizon, 2000)
        got, want = table.columns_at(t), self.spline_columns(table, t)
        assert got.shape == want.shape == (2000, len(table.COLUMNS))
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-10 * scale)

    @pytest.mark.parametrize("num_steps", [1, 2, 3])
    def test_short_grid_is_the_spline_polynomial(self, base_prefs, num_steps):
        table = self.base_table_on(num_steps, base_prefs)
        grid = table.grid
        t = np.concatenate([grid.nodes, np.random.default_rng(1).uniform(0.0, grid.horizon, 50)])
        np.testing.assert_allclose(table.columns_at(t), self.spline_columns(table, t),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("num_steps", [1, 2, 3, 2000])
    def test_nodes_are_exact(self, base_prefs, num_steps):
        table = self.base_table_on(num_steps, base_prefs)
        columns = self.node_columns(table)
        assert np.array_equal(table.columns_at(table.grid.nodes), columns)
        assert np.array_equal(table.columns_at(table.grid.horizon), columns[-1])

    def test_cubic_column_is_reproduced(self, base_table):
        def cubic(t):
            return 1.0 + 0.3 * t - 0.2 * t ** 2 + 0.05 * t ** 3

        table = dataclasses.replace(base_table, h3=cubic(base_table.grid.nodes))
        t = np.random.default_rng(3).uniform(0.0, base_table.grid.horizon, 2000)
        col = base_table.COLUMNS.index("h3")
        np.testing.assert_allclose(table.columns_at(t)[:, col], cubic(t), rtol=1e-13, atol=0.0)
        assert table.columns_at(t[0]).shape == (len(table.COLUMNS),)

    def test_midpoints_use_the_nearest_four_nodes(self, base_table):
        y = np.random.default_rng(5).normal(size=base_table.grid.num_steps + 1)
        table = dataclasses.replace(base_table, h3=y)
        nodes = table.grid.nodes
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        inner = (9.0 * (y[1:-2] + y[2:-1]) - y[:-3] - y[3:]) / 16.0
        end = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0  # the first four nodes at u = 1/2
        want = np.concatenate([[end @ y[:4]], inner, [end @ y[:-5:-1]]])
        got = table.columns_at(mid)[:, table.COLUMNS.index("h3")]
        # rounding in t moves u by ~1e-13 steps; another stencil moves values by O(1)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
