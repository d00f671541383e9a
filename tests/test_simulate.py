import dataclasses

import numpy as np
import pytest

from mvs_robust import (
    CoefficientTable,
    ConfigError,
    Measure,
    ModelVariant,
    OutOfHorizon,
    PenaltyUndefined,
    Preferences,
    Scheme,
    SimConfig,
    UnsolvedTable,
    build_market,
    lognormal_moments,
    moment_bound_check,
    simulate_equilibrium_wealth,
    solve_system,
    verify_value,
)
from mvs_robust import simulate
from mvs_robust.policy import value_bracket
from mvs_robust.simulate import _MIN_UNIFORM, _path_normals

from conftest import BASE, make_market


@pytest.fixture(scope="module")
def steep():
    """Table and market of a solvable config with a steep f, where plain
    trapezoid oracles are 1e-7 to 3e-4 off."""
    market = make_market(mu=0.27903, sigma=0.32978)
    return solve_system(market, Preferences(2.27791, 2.62057, 1.41690), market.grid), market


class TestRandomSource:
    def test_chunk_split_invariance(self):
        whole = _path_normals(42, 0, 10, 7)
        split = np.vstack([_path_normals(42, 0, 3, 7), _path_normals(42, 3, 7, 7)])
        assert np.array_equal(whole, split)

    def test_per_path_purity(self):
        whole = _path_normals(42, 0, 10, 7)
        rows = np.vstack([_path_normals(42, i, 1, 7) for i in range(10)])
        assert np.array_equal(whole, rows)

    def test_seed_sensitivity(self):
        assert not np.array_equal(_path_normals(1, 0, 4, 8), _path_normals(2, 0, 4, 8))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_steps", [199, 200])
    @pytest.mark.parametrize("n_paths", [2, 50])
    def test_worker_count_invariance(self, monkeypatch, workers, n_steps, n_paths):
        # 199 steps leave the last Philox block padded; 2 paths leave a worker idle
        from scipy.special import ndtri
        monkeypatch.setattr(simulate, "_normal_workers", lambda: workers)
        blocks, first = (n_steps + 3) // 4, 5
        u = np.random.Generator(np.random.Philox(key=42, counter=first * blocks))
        u = u.random(n_paths * blocks * 4).reshape(n_paths, 4 * blocks)[:, :n_steps]
        serial = ndtri(np.maximum(u, _MIN_UNIFORM))
        assert np.array_equal(_path_normals(42, first, n_paths, n_steps), serial)


class TestSimulation:
    def test_worker_count_invariance(self, monkeypatch, base_table, base_market):
        # three chunks, the last one partial, and padded Philox blocks
        cfg = SimConfig(num_paths=40_000, seed=3, num_steps=13)
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(simulate, "_normal_workers", lambda: workers)
            results.append(simulate_equilibrium_wealth(base_table, base_market, cfg))
        assert results[0] == results[1]

    def test_centred_accumulator_matches_two_pass(self, monkeypatch, base_table, base_market):
        # three chunks, the last one partial: the merged standard errors against a
        # long-double two-pass over the kept per-path (W, W^2, W^3, W^4, penalty)
        kept, merge = [], simulate._merge
        monkeypatch.setattr(simulate, "_merge", lambda *a: kept.append(a[-1].copy()) or merge(*a))
        cfg = SimConfig(num_paths=40_000, seed=3, num_steps=13)
        res = simulate_equilibrium_wealth(base_table, base_market, cfg)
        assert [x.shape[1] for x in kept] == [16384, 16384, 7232]
        plain = sum(x.sum(axis=1) for x in kept) / cfg.num_paths
        assert [m.value for m in res.moments] + [res.penalty.value] == plain.tolist()
        x = np.concatenate(kept, axis=1).astype(np.longdouble)
        centred = x - x.mean(axis=1)[:, None]
        cov = centred @ centred.T / (cfg.num_paths - 1)
        m1, m2 = x[0].mean(), x[1].mean()
        w, g0, p0 = cfg.start_wealth, base_table.gamma0, base_table.phi0
        assert res.objective.value == simulate._objective(*plain[[0, 1, 2, 4]], w, g0, p0)
        grad = np.array([1 + g0 * m1 / w + p0 / w**2 * (2 * m1 * m1 - m2),
                         -0.5 * g0 / w - p0 * m1 / w**2, p0 / (3 * w**2), 0, 1])
        ref = np.sqrt(np.append(np.diag(cov), grad @ cov @ grad) / cfg.num_paths)
        got = [m.std_error for m in res.moments + (res.penalty, res.objective)]
        rel = np.abs(np.array(got, dtype=np.longdouble) / ref - 1.0)
        assert np.all(rel[:5] <= 1e-15) and rel[5] <= 2e-14, rel

    def test_determinism(self, base_table, base_market, quick_sim):
        a = simulate_equilibrium_wealth(base_table, base_market, quick_sim)
        b = simulate_equilibrium_wealth(base_table, base_market, quick_sim)
        for i in range(4):
            assert a.moments[i].value == b.moments[i].value
            assert a.moments[i].std_error == b.moments[i].std_error
        assert a.sup_fourth_moment == b.sup_fourth_moment
        assert a.penalty.value == b.penalty.value
        assert a.objective.value == b.objective.value

    def test_moments_match_coefficients(self, base_table, base_market):
        cfg = SimConfig(num_paths=40_000, seed=7, num_steps=100)
        res = simulate_equilibrium_wealth(base_table, base_market, cfg)
        w0 = cfg.start_wealth
        targets = (base_table.g1[0] * w0, base_table.h2[0] * w0**2)
        for est, target in zip(res.moments[:2], targets):
            assert abs(est.value - target) <= 3.0 * est.std_error

    def test_paths_positive_under_exact_scheme(self, base_table, base_market, quick_sim):
        res = simulate_equilibrium_wealth(base_table, base_market, quick_sim)
        assert res.min_wealth > 0.0

    def test_zero_theta_deterministic_growth(self, base_grid):
        market = make_market(mu=BASE["r"])
        table = solve_system(market, Preferences(2.0, 0.5, 1.0), base_grid)
        cfg = SimConfig(num_paths=500, seed=3, num_steps=50)
        res = simulate_equilibrium_wealth(table, market, cfg)
        target = 4.0 * np.exp(BASE["r"] * BASE["T"])
        assert res.moments[0].value == pytest.approx(target, rel=1e-12)
        variance = res.moments[1].value - res.moments[0].value ** 2
        assert abs(variance) < 1e-9
        assert res.moments[0].std_error < 1e-12
        assert res.sup_fourth_moment == pytest.approx(target**4, rel=1e-12)

    def test_constant_paths_have_zero_standard_errors(self, base_grid):
        # zero theta makes every path the same curve; three chunks are merged
        market = make_market(mu=BASE["r"])
        table = solve_system(market, Preferences(2.0, 0.5, 1.0), base_grid)
        cfg = SimConfig(num_paths=40_000, seed=3, num_steps=5)
        res = simulate_equilibrium_wealth(table, market, cfg)
        errors = [m.std_error for m in res.moments + (res.penalty, res.objective)]
        assert errors == [0.0] * 6

    def test_standard_error_scaling(self, base_table, base_market):
        small = simulate_equilibrium_wealth(
            base_table, base_market, SimConfig(num_paths=10_000, seed=11, num_steps=50)
        )
        big = simulate_equilibrium_wealth(
            base_table, base_market, SimConfig(num_paths=40_000, seed=11, num_steps=50)
        )
        ratio = small.moments[0].std_error / big.moments[0].std_error
        assert 1.6 < ratio < 2.4

    def test_scheme_agreement(self, base_table, base_market):
        exact = simulate_equilibrium_wealth(
            base_table, base_market, SimConfig(num_paths=20_000, seed=5, num_steps=100)
        )
        euler = simulate_equilibrium_wealth(
            base_table, base_market,
            SimConfig(num_paths=5_000, seed=6, num_steps=4000, scheme=Scheme.EULER_MARUYAMA),
        )
        gap = abs(exact.moments[0].value - euler.moments[0].value)
        band = 3.0 * np.hypot(exact.moments[0].std_error, euler.moments[0].std_error)
        assert gap <= band

    def test_reference_measure_drops_penalty(self, base_table, base_market):
        cfg = SimConfig(num_paths=2_000, seed=9, num_steps=50, measure=Measure.REFERENCE)
        res = simulate_equilibrium_wealth(base_table, base_market, cfg)
        assert res.penalty is None and res.objective is None

    def test_grid_mismatch_rejected(self, base_table):
        other = build_market(5.0, 0.05, 0.15, 0.25, num_steps=500)
        with pytest.raises(UnsolvedTable):
            simulate_equilibrium_wealth(base_table, other, SimConfig(num_paths=100, num_steps=10))


class TestLognormalMoments:
    def test_orders_match_solved_coefficients(self, base_table, base_market):
        w = 4.0
        targets = (base_table.g1[0] * w, base_table.h2[0] * w**2, base_table.h3[0] * w**3)
        for order, target in zip((1, 2, 3), targets):
            got = lognormal_moments(base_table, base_market, 0.0, w, order)
            assert abs(got / target - 1.0) < 1e-7

    def test_terminal_time_returns_powers(self, base_table, base_market):
        for order in (1, 2, 3, 4):
            assert lognormal_moments(base_table, base_market, 5.0, 3.0, order) == 3.0**order

    def test_measure_gap_is_girsanov_correction(self, base_table, base_market, base_grid):
        # reference-vs-distorted drift differs by xi * theta * f / (xi+1)^2,
        # integrated by the same extrapolated rule (4 T_half - T) / 3
        xi, half = base_table.xi, base_grid.half_times()
        f = base_table.columns_at(half)[:, base_table.COLUMNS.index("f")]
        gap = xi * base_market.theta_at(half) * f / (xi + 1.0) ** 2
        fine, coarse = np.trapezoid(gap, half), np.trapezoid(gap[::2], base_grid.nodes)
        expected = np.exp((4.0 * fine - coarse) / 3.0)
        mp = lognormal_moments(base_table, base_market, 0.0, 1.0, 1, Measure.REFERENCE)
        mq = lognormal_moments(base_table, base_market, 0.0, 1.0, 1, Measure.DISTORTED)
        assert mp / mq == pytest.approx(expected, rel=1e-12)
        assert mp > mq  # reference drift dominates under ambiguity aversion

    @pytest.mark.parametrize("t", [0.0, 0.0013])
    @pytest.mark.parametrize("measure", list(Measure))
    def test_orders_in_one_build_match_single_orders_bitwise(self, base_table, base_market,
                                                             t, measure):
        rows = simulate.log_moment_growth(base_table, base_market, t, (1, 2, 3, 4), measure)
        for row, n in zip(rows, (1, 2, 3, 4)):
            single = simulate.log_moment_growth(base_table, base_market, t, (n,), measure)
            assert single.shape == (1, row.size) and np.array_equal(row, single[0])

    def test_bad_inputs(self, base_table, base_market):
        with pytest.raises(ConfigError):
            lognormal_moments(base_table, base_market, 0.0, 4.0, 5)
        with pytest.raises(OutOfHorizon):
            lognormal_moments(base_table, base_market, 6.0, 4.0, 1)


class TestVerifyValue:
    def test_analytic_assembly_hits_value(self, base_table, base_market, quick_sim):
        res = verify_value(base_table, base_market, 0.0, 4.0, quick_sim)
        assert res.value == pytest.approx(value_bracket(base_table, 0.0) * 4.0)
        assert res.analytic_rel_err < 1e-6
        assert abs(res.mc_z) <= 3.0

    @pytest.mark.parametrize("t", [0.0, 0.0013])
    def test_steep_config_analytic_assembly(self, steep, t):
        # plain trapezoid penalty quadrature was 1.5e-7 off here
        res = verify_value(*steep, t, 4.0, SimConfig(num_paths=2_000, seed=1, num_steps=20))
        assert res.analytic_rel_err < 1e-8

    def test_given_sim_reused_only_for_its_config(self, base_table, base_market):
        cfg = SimConfig(num_paths=2_000, seed=5, num_steps=20)
        own = verify_value(base_table, base_market, 0.0, 4.0, cfg)
        shared = simulate_equilibrium_wealth(base_table, base_market, cfg)
        assert verify_value(base_table, base_market, 0.0, 4.0, cfg, sim=shared).sim is shared
        foreign = simulate_equilibrium_wealth(base_table, base_market, dataclasses.replace(cfg, seed=6))
        assert foreign.objective != own.sim.objective
        assert verify_value(base_table, base_market, 0.0, 4.0, cfg, sim=foreign) == own

    def test_terminal_time_is_exact(self, base_table, base_market):
        cfg = SimConfig(num_paths=200, seed=1, num_steps=4)
        res = verify_value(base_table, base_market, 5.0, 4.0, cfg)
        assert res.value == 4.0
        assert res.analytic_objective == 4.0
        assert res.sim.penalty.value == 0.0
        assert res.mc_z == 0.0

    def test_near_terminal_time(self, base_table, base_market):
        cfg = SimConfig(num_paths=200, seed=1, num_steps=4)
        res = verify_value(base_table, base_market, 4.999, 4.0, cfg)
        assert res.value == pytest.approx(4.0, rel=1e-3)

    def test_misspecified_value_verifies(self, base_model, base_market, quick_sim):
        res = verify_value(base_model.mispec_u, base_market, 0.0, 4.0, quick_sim)
        assert res.analytic_rel_err < 1e-6
        assert abs(res.mc_z) <= 3.0

    def test_negative_delta3_raises(self, base_table, base_market, base_grid):
        bad_delta3 = np.asarray(base_table.delta3).copy()
        bad_delta3[100] = -1.0
        crafted = CoefficientTable(
            variant=ModelVariant.FULL, grid=base_grid,
            gamma0=base_table.gamma0, phi0=base_table.phi0, xi=base_table.xi,
            f=base_table.f, h1=base_table.h1, h2=base_table.h2,
            h3=base_table.h3, g1=base_table.g1, k1=base_table.k1,
            delta3=bad_delta3,
        )
        with pytest.raises(PenaltyUndefined):
            verify_value(crafted, base_market, 0.0, 4.0, SimConfig(num_paths=100, num_steps=10))

    def test_zero_ambiguity_has_no_penalty_error(self, base_market, base_grid):
        prefs = Preferences(2.0, 0.5, 0.0)
        table = solve_system(base_market, prefs, base_grid)
        cfg = SimConfig(num_paths=5_000, seed=2, num_steps=50)
        res = verify_value(table, base_market, 0.0, 4.0, cfg)
        assert res.sim.penalty.value == 0.0
        assert res.analytic_rel_err < 1e-6


class TestMomentBound:
    def test_base_parameters(self, base_table, base_market, quick_sim):
        res = moment_bound_check(base_table, base_market, quick_sim)
        assert res.finite
        assert res.analytic_argmax_time == pytest.approx(BASE["T"])
        assert res.consistent

    def test_given_sim_reused_only_for_its_config(self, base_table, base_market):
        cfg = SimConfig(num_paths=2_000, seed=5, num_steps=20)
        own = moment_bound_check(base_table, base_market, cfg)
        shared = simulate_equilibrium_wealth(base_table, base_market, cfg)
        assert moment_bound_check(base_table, base_market, cfg, sim=shared) == own
        foreign = simulate_equilibrium_wealth(base_table, base_market, dataclasses.replace(cfg, seed=6))
        assert foreign.sup_fourth_moment != shared.sup_fourth_moment
        assert moment_bound_check(base_table, base_market, cfg, sim=foreign) == own

    def test_sup_at_horizon_is_fourth_lognormal_moment(self, base_table, base_market, steep):
        # the analytic curve on the 200-step sim grid against the solver grid's
        # closed form; plain trapezoid rules were 4.2e-7 and 3.1e-4 off
        cfg = SimConfig(num_paths=200, seed=3, num_steps=200)
        for (table, market), rel in (((base_table, base_market), 1e-10), (steep, 1e-5)):
            res = moment_bound_check(table, market, cfg)
            assert res.analytic_argmax_time == BASE["T"]
            fourth = lognormal_moments(table, market, 0.0, cfg.start_wealth, 4)
            assert res.analytic_sup == pytest.approx(fourth, rel=rel)

    def test_zero_theta_exact(self, base_grid):
        market = make_market(mu=BASE["r"])
        table = solve_system(market, Preferences(2.0, 0.5, 1.0), base_grid)
        cfg = SimConfig(num_paths=200, seed=4, num_steps=20)
        res = moment_bound_check(table, market, cfg)
        assert res.analytic_sup == pytest.approx(
            4.0**4 * np.exp(4 * BASE["r"] * BASE["T"]), rel=1e-12
        )
        assert res.ratio == pytest.approx(1.0, rel=1e-12)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(num_paths=1)
        with pytest.raises(ConfigError):
            SimConfig(num_steps=0)
        with pytest.raises(ConfigError):
            SimConfig(start_wealth=0.0)

    def test_frozen(self, quick_sim):
        with pytest.raises(dataclasses.FrozenInstanceError):
            quick_sim.seed = 1
