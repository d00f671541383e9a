import dataclasses

import numpy as np
import pytest

from mvs_robust import (
    ConfigError,
    DegenerateDenominator,
    MispecKind,
    ModelVariant,
    NoConvergence,
    Preferences,
    TimeGrid,
    UnsolvedTable,
    build_market,
    solve_f_picard,
    solve_mispec_system,
    solve_system,
)
from mvs_robust import solver
from mvs_robust.policy import value_bracket
from mvs_robust.presets import FIGURE_PRESETS, preset_config
from mvs_robust.solver import Lane, LanePlan, PicardInfo, integrate_lanes, solve_all
from mvs_robust.sweep import run_sweep

from conftest import BASE, make_market


class TestTerminalConditions:
    def test_base(self, base_table):
        t = base_table
        assert t.f[-1] == 1.0 / BASE["gamma0"]
        for arr in (t.h1, t.h2, t.h3, t.g1, t.k1):
            assert arr[-1] == 1.0

    @pytest.mark.parametrize("gamma0,phi0,xi", [(3.7, 0.2, 0.8), (0.9, 0.0, 2.5), (5.0, 1.0, 0.0)])
    def test_random_parameters(self, base_market, base_grid, gamma0, phi0, xi):
        prefs = Preferences(gamma0, phi0, xi)
        t = solve_system(base_market, prefs, base_grid)
        assert t.f[-1] == 1.0 / gamma0
        assert all(arr[-1] == 1.0 for arr in (t.h1, t.h2, t.h3, t.g1, t.k1))


class TestSystemStructure:
    def test_h2_equals_k1_bitwise(self, base_table):
        assert np.array_equal(base_table.h2, base_table.k1)

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
        m = make_market(mu=BASE["r"])
        prefs = Preferences(2.0, 0.5, 1.0)
        f0 = np.exp(-BASE["r"] * (BASE["T"] - base_grid.nodes)) / 2.0
        f, info = solve_f_picard(m, prefs, base_grid, f0=f0, full_output=True)
        assert info.iterations == 1
        assert np.max(np.abs(f - f0)) < 1e-10

    def test_budget_exhaustion_raises(self, base_market, base_prefs, base_grid):
        with pytest.raises(NoConvergence):
            solve_f_picard(base_market, base_prefs, base_grid, tol=1e-15, max_iter=2)

    def test_bad_tol_rejected(self, base_market, base_prefs, base_grid):
        with pytest.raises(ConfigError):
            solve_f_picard(base_market, base_prefs, base_grid, tol=0.0)

    def test_continuation_handles_noncontractive_map(self):
        # plain damped iteration diverges here; RK4 still solves it
        grid = TimeGrid(5.0, 2000)
        m = build_market(5.0, 0.05, 0.05 + 0.25 * np.sqrt(0.309), 0.25, grid=grid)
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
            for arr in (tab.a1, tab.a2, tab.a3, tab.b1, tab.c1):
                assert arr[-1] == 1.0

    def test_a2_equals_c1_bitwise(self, base_model):
        assert np.array_equal(base_model.mispec_u.a2, base_model.mispec_u.c1)
        assert np.array_equal(base_model.mispec_both.a2, base_model.mispec_both.c1)

    def test_zero_ambiguity_recovers_neutral_value(self, base_market, base_grid):
        prefs = Preferences(2.0, 0.5, 0.0)
        neutral = solve_system(
            base_market, prefs, base_grid, ModelVariant.AMBIGUITY_NEUTRAL
        )
        mis = solve_mispec_system(
            base_market, prefs, base_grid, MispecKind.IGNORE_UNCERTAINTY, driver=neutral
        )
        for t in (0.0, 1.7, 4.2):
            assert value_bracket(mis, t) == pytest.approx(
                value_bracket(neutral, t), abs=1e-10
            )

    def test_ignore_both_a2_positive(self, base_model):
        assert np.all(base_model.mispec_both.a2 > 0.0)

    def test_ignore_both_drops_skewness(self, base_model):
        assert base_model.mispec_both.phi0 == 0.0
        assert base_model.mispec_u.phi0 == 0.5

    def test_driver_variant_mismatch_rejected(self, base_market, base_prefs, base_grid, base_table):
        with pytest.raises(UnsolvedTable):
            solve_mispec_system(
                base_market, base_prefs, base_grid,
                MispecKind.IGNORE_UNCERTAINTY, driver=base_table,
            )

    def test_value_dominance_of_robust_strategy(self, base_model):
        # the robust value is the sup over strategies of the inf problem
        v = value_bracket(base_model.full, 0.0)
        assert value_bracket(base_model.mispec_u, 0.0) <= v
        assert value_bracket(base_model.mispec_both, 0.0) <= v


def test_solve_all_reuses_consistent_drivers(base_model):
    assert np.array_equal(base_model.mispec_u.driver_f, base_model.neutral.f)
    assert np.array_equal(base_model.mispec_both.driver_f, base_model.basic.f)


@pytest.fixture(params=["floats", "arrays"])
def lane_mode(request, monkeypatch):
    """Run a batch on Python floats (the default below the lane limit) or as arrays."""
    if request.param == "arrays":
        monkeypatch.setattr("mvs_robust.solver.SCALAR_LANE_LIMIT", 0)
    return request.param


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
            for path in ("ratio", "state", "den"):
                assert np.array_equal(getattr(a, path), getattr(b, path))
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
        res = integrate_lanes(plan.lanes, [base_market], base_grid)
        neutral, mispec_u = res[bad[1]], res[bad[4]]
        assert neutral.error is DegenerateDenominator
        assert mispec_u.error is DegenerateDenominator
        assert mispec_u.node == neutral.node
        assert all(res[i].error is None for i in good)

    def test_floats_and_arrays_agree_bitwise(self, base_market, base_grid, monkeypatch):
        # only a batch of coefficient lanes marches on floats
        plan = coefficient_plan(Preferences(2.0, 0.5, 1.0), Preferences(1.0, 0.5, 1.0),
                                Preferences(3.0, 0.0, 0.4), Preferences(2.0, 0.5, 2.0))
        assert len(plan.lanes) < solver.SCALAR_LANE_LIMIT
        floats = integrate_lanes(plan.lanes, [base_market], base_grid, keep_paths=True)
        monkeypatch.setattr("mvs_robust.solver.SCALAR_LANE_LIMIT", 0)
        arrays = integrate_lanes(plan.lanes, [base_market], base_grid, keep_paths=True)
        assert_same_results(floats, arrays)

    def test_mispec_lane_is_independent_of_its_batch(self, base_market, base_grid):
        plan = LanePlan()
        # (2, 0.5, 2) shares its neutral and basic drivers with (2, 0.5, 1),
        # so each of them drives two misspecified lanes
        for prefs in (Preferences(2.0, 0.5, 1.0), Preferences(1.0, 0.5, 1.0),
                      Preferences(3.0, 0.0, 0.4), Preferences(2.0, 0.5, 2.0)):
            plan.add_model(0, prefs)
        assert len(plan.lanes) == 19
        batch = integrate_lanes(plan.lanes, [base_market], base_grid, keep_paths=True)
        for i, lane in enumerate(plan.lanes):
            if lane.driver is not None:
                pair = [plan.lanes[lane.driver], dataclasses.replace(lane, driver=0)]
                alone = integrate_lanes(pair, [base_market], base_grid, keep_paths=True)
                assert_same_results([batch[i]], alone[1:])

    def test_zero_division_reruns_as_arrays(self, base_market, base_grid, monkeypatch):
        # a float lane that divides by exactly zero is marched again alone as arrays
        plan = coefficient_plan(Preferences(2.0, 0.5, 1.0), Preferences(1.0, 0.5, 1.0))
        expected = integrate_lanes(plan.lanes, [base_market], base_grid, keep_paths=True)
        rhs = solver._rhs
        raised = []

        def dividing_by_zero(ops, y, par, rates):
            if ops is solver._Floats and par.p0 == 0.0:
                raised.append(par.g0)
                raise ZeroDivisionError
            return rhs(ops, y, par, rates)

        monkeypatch.setattr(solver, "_rhs", dividing_by_zero)
        got = integrate_lanes(plan.lanes, [base_market], base_grid, keep_paths=True)
        assert len(raised) == 4
        assert_same_results(got, expected)

    @pytest.mark.parametrize("field,value", [("driver", -1), ("driver", 2),
                                             ("market", -1), ("market", 1)])
    def test_out_of_range_index_is_rejected(self, base_market, base_grid, field, value):
        coef = Lane(0, 2.0, 0.5, 1.0)
        mispec = Lane(0, 2.0, 0.5, 1.0, driver=1)
        assert integrate_lanes([mispec, coef], [base_market], base_grid)[0].error is None
        with pytest.raises(ValueError):
            integrate_lanes([dataclasses.replace(mispec, **{field: value}), coef],
                            [base_market], base_grid)

    def test_running_min_is_min_delta3(self, base_market, base_prefs, base_grid, lane_mode):
        plan = LanePlan()
        idx = plan.add_model(0, base_prefs)
        res = integrate_lanes(plan.lanes, [base_market], base_grid)
        model = solve_all(base_market, base_prefs, base_grid)
        for i, table in zip(idx, (model.full, model.neutral, model.noskew, model.basic)):
            assert res[i].den_min == np.min(table.delta3)
            assert res[i].ratio0 == table.f[0]
        for i, table in zip(idx[4:], (model.mispec_u, model.mispec_both)):
            assert res[i].den_min == np.min(table.delta3)
            assert res[i].ratio0 == table.a[0]

    def test_mispec_driver_f_is_driver_table_f(self, base_market, base_prefs, base_grid):
        for kind in MispecKind:
            driver = solve_system(base_market, base_prefs, base_grid, kind.driver_variant)
            mis = solve_mispec_system(base_market, base_prefs, base_grid, kind, driver=driver)
            assert np.array_equal(mis.driver_f, driver.f)
