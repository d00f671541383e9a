import dataclasses
import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from mvs_robust import (
    CoefficientTable,
    ConfigError,
    Measure,
    OutOfHorizon,
    PenaltyUndefined,
    Preferences,
    Scheme,
    SimConfig,
    TimeGrid,
    lognormal_moments,
    moment_bound_check,
    simulate_equilibrium_wealth,
    solve_system,
    verify_value,
)
from mvs_robust import simulate
from mvs_robust.checks import check_closed_form_consistency
from mvs_robust.config import RunConfig
from mvs_robust.policy import value_bracket
from mvs_robust.simulate import _CHUNK, _LEAF, _MIN_UNIFORM

from conftest import BASE, make_market


def path_normals(seed, first_path, n_paths, n_steps):
    """One independent single-chunk fill, on the calling thread."""
    z = np.empty((n_paths, (n_steps + 3) // 4 * 4))
    simulate._fill_normals(seed, first_path, z)
    return z[:, :n_steps]


def pairwise_leaves(first, n, leaf=_LEAF):
    """(first, size) of each leaf of numpy's pairwise sum over n contiguous float64s,
    which halves at ``n // 2 - (n // 2) % 8`` while more than ``leaf`` are left."""
    if n <= leaf:
        return [(first, n)]
    h = n // 2 - (n // 2) % 8
    return pairwise_leaves(first, h, leaf) + pairwise_leaves(first + h, n - h, leaf)


def reference_simulate(table, curves, cfg):
    """``_simulate`` marching each chunk whole, on ``path_normals`` fills of whole chunks:
    the reference the leaf march must equal bitwise."""
    times, drift, vol2, pen_rate = curves
    n_steps = cfg.num_steps
    ds = np.diff(times)
    exact = cfg.scheme is Scheme.EXACT_LOGNORMAL
    if exact:
        m_step = 0.5 * ds * ((drift[:-1] - 0.5 * vol2[:-1]) + (drift[1:] - 0.5 * vol2[1:]))
        s_step = np.sqrt(0.5 * ds * (vol2[:-1] + vol2[1:]))
    else:
        d_step = drift[:-1] * ds
        e_step = np.sqrt(vol2[:-1]) * np.sqrt(ds)
    w0 = cfg.start_wealth
    node4, sums, centre = np.zeros(n_steps + 1), np.zeros(5), np.zeros(5)
    comoments = np.zeros((5, 5))
    min_w = w0
    for first in range(0, cfg.num_paths, _CHUNK):
        n = min(_CHUNK, cfg.num_paths - first)
        z = path_normals(cfg.seed, first, n, n_steps)
        pen = np.zeros(n)
        logw = np.full(n, np.log(w0))
        w = np.full(n, w0)
        node4[0] += n * w0 ** 4
        for k in range(n_steps):
            w_prev = w
            if exact:
                logw = logw + m_step[k] + s_step[k] * z[:, k]
                w = np.exp(logw)
            else:
                w = w * (1.0 + d_step[k] + e_step[k] * z[:, k])
            pen += 0.5 * ds[k] * (pen_rate[k] * w_prev + pen_rate[k + 1] * w)
            node4[k + 1] += float(np.sum(w ** 4))
            min_w = min(min_w, float(np.min(w)))
        simulate._merge(sums, centre, comoments, first, np.stack([w, w * w, w ** 3, w ** 4, pen]))

    npaths = cfg.num_paths
    mean = sums / npaths
    cov = comoments / (npaths - 1.0)
    se = np.sqrt(np.diag(cov) / npaths)
    moments = tuple(simulate.MomentEstimate(value=mean[k], std_error=float(se[k]))
                    for k in range(4))
    penalty = objective = None
    if cfg.measure is Measure.DISTORTED:
        penalty = simulate.MomentEstimate(value=float(mean[4]), std_error=float(se[4]))
        m1, m2, m3, _, mp = mean
        g0, p0 = table.gamma0, table.phi0
        obj = simulate._objective(m1, m2, m3, mp, w0, g0, p0)
        grad = np.array([
            1.0 + g0 * m1 / w0 + p0 / (w0 * w0) * (2.0 * m1 * m1 - m2),
            -0.5 * g0 / w0 - p0 * m1 / (w0 * w0),
            p0 / (3.0 * w0 * w0),
            1.0,
        ])
        block = cov[np.ix_((0, 1, 2, 4), (0, 1, 2, 4))]
        obj_var = max(0.0, float(grad @ block @ grad))
        objective = simulate.MomentEstimate(value=float(obj),
                                            std_error=float(np.sqrt(obj_var / npaths)))
    return simulate.SimResult(config=cfg, moments=moments,
                              sup_fourth_moment=float(node4.max() / npaths),
                              min_wealth=float(min_w), penalty=penalty, objective=objective)


def leaf_tasks(monkeypatch, table, cfg, workers):
    """Simulate ``cfg`` on ``workers`` threads.  Each leaf task's first path and size,
    sorted; whether its normals equal a single-chunk ``path_normals`` fill; the normals
    buffers alive as it filled; and the paths merged chunk by chunk, then the paths
    ``reference_simulate`` merges."""
    fill, merge = simulate._fill_normals, simulate._merge
    leaves, buffers, merged = [], [], []

    def recording_fill(seed, first, z):
        buffers.append(weakref.ref(z if z.base is None else z.base))
        live = sum(b() is not None for b in buffers)
        fill(seed, first, z)
        single = np.empty((len(z), (cfg.num_steps + 3) // 4 * 4))  # path_normals' own fill
        fill(seed, first, single)
        leaves.append((first, len(z), np.array_equal(z, single), live))

    monkeypatch.setattr(simulate, "_normal_workers", lambda: workers)
    monkeypatch.setattr(simulate, "_fill_normals", recording_fill)
    monkeypatch.setattr(simulate, "_merge", lambda *a: merged.append(a[-1].copy()) or merge(*a))
    curves = simulate._sim_curves(table, cfg)
    simulate._simulate(table, curves, cfg)
    monkeypatch.setattr(simulate, "_fill_normals", fill)
    got = merged[:]
    merged.clear()
    reference_simulate(table, curves, cfg)
    return sorted(leaves), got, merged


def assert_leaf_tasks(leaves, got, ref, expected_leaves, workers):
    """Leaves as expected, each filled as a chunk of its own, at most one buffer a worker,
    and the merged paths bitwise the reference's, so each leaf was folded in its place."""
    assert [(first, n) for first, n, _, _ in leaves] == expected_leaves
    assert all(same for _, _, same, _ in leaves)
    assert max(live for *_, live in leaves) <= workers
    assert len(got) == len(ref) and all(np.array_equal(a, b) for a, b in zip(got, ref))


def fail_second_merge(monkeypatch, table, workers):
    """Simulate three chunks on ``workers`` threads with ``_merge`` raising on the second.
    The raise, the threads left over, and the first path of each leaf task that started."""
    started, merged, fill, merge = [], [], simulate._fill_normals, simulate._merge

    def fail_second(*a):
        merged.append(None)
        if len(merged) == 2:
            raise RuntimeError("second chunk")
        merge(*a)

    monkeypatch.setattr(simulate, "_fill_normals", lambda *a: started.append(a[1]) or fill(*a))
    monkeypatch.setattr(simulate, "_merge", fail_second)
    monkeypatch.setattr(simulate, "_normal_workers", lambda: workers)
    before = threading.active_count()
    cfg = SimConfig(num_paths=40_000, seed=3, num_steps=13)
    with pytest.raises(RuntimeError, match="second chunk") as raised:
        simulate_equilibrium_wealth(table, cfg)
    return raised, threading.active_count() - before, started


@pytest.fixture(scope="module")
def steep():
    """Table of a solvable config with a steep f, where plain
    trapezoid oracles are 1e-7 to 3e-4 off."""
    market = make_market(mu=0.27903, sigma=0.32978)
    return solve_system(market, Preferences(2.27791, 2.62057, 1.41690), market.grid)


class TestRandomSource:
    def test_chunk_split_invariance(self):
        whole = path_normals(42, 0, 10, 7)
        split = np.vstack([path_normals(42, 0, 3, 7), path_normals(42, 3, 7, 7)])
        assert np.array_equal(whole, split)

    def test_per_path_purity(self):
        whole = path_normals(42, 0, 10, 7)
        rows = np.vstack([path_normals(42, i, 1, 7) for i in range(10)])
        assert np.array_equal(whole, rows)

    def test_seed_sensitivity(self):
        assert not np.array_equal(path_normals(1, 0, 4, 8), path_normals(2, 0, 4, 8))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_steps", [199, 200])
    @pytest.mark.parametrize("n_paths", [2, 50])
    def test_worker_count_invariance(self, monkeypatch, base_table, workers, n_steps, n_paths):
        # 199 steps leave the last Philox block padded; 2 paths leave a worker idle, and
        # 50 paths in five leaves of at most 16 keep leaves in flight while others fold
        from scipy.special import ndtri
        monkeypatch.setattr(simulate, "_LEAF", 16)
        blocks = (n_steps + 3) // 4
        u = np.random.Generator(np.random.Philox(key=42, counter=0))
        u = u.random(n_paths * blocks * 4).reshape(n_paths, 4 * blocks)[:, :n_steps]
        serial = ndtri(np.maximum(u, _MIN_UNIFORM))
        expected = pairwise_leaves(0, n_paths, 16)
        assert np.array_equal(
            np.vstack([path_normals(42, first, n, n_steps) for first, n in expected]), serial)
        cfg = SimConfig(num_paths=n_paths, seed=42, num_steps=n_steps)
        assert_leaf_tasks(*leaf_tasks(monkeypatch, base_table, cfg, workers),
                          expected, workers)

    def test_workers_without_affinity(self, monkeypatch):
        # os.sched_getaffinity does not exist on macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert 1 <= simulate._normal_workers() <= 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate._normal_workers() == 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_steps", [13, 200])
    @pytest.mark.parametrize("num_paths", [2 * _CHUNK + 1, 40_000])
    def test_leaves_match_single_chunk_fills(self, monkeypatch, base_table, workers,
                                             n_steps, num_paths):
        # at least three chunks and a short last one; 2 * _CHUNK + 1 leaves a worker idle.
        # Each leaf task fills its paths as if they were a chunk of their own.
        cfg = SimConfig(num_paths=num_paths, seed=9, num_steps=n_steps)
        leaves, got, ref = leaf_tasks(monkeypatch, base_table, cfg, workers)
        expected = [leaf for first in range(0, num_paths, _CHUNK)
                    for leaf in pairwise_leaves(first, min(_CHUNK, num_paths - first))]
        assert_leaf_tasks(leaves, got, ref, expected, workers)
        assert len(got) >= 3 and all(n <= _LEAF for _, n, _, _ in leaves)


class TestLeafMarch:
    @pytest.mark.parametrize("leaf", [4096, 2048, _LEAF])
    @pytest.mark.parametrize("n", [2, 9, 1_696, 4_100, 7_232, 8_200, 16_383, _CHUNK])
    def test_leaf_sums_rebuild_numpy_sum(self, n, leaf):
        # pins numpy's pairwise split: if an upgrade changes np.sum, this fails first
        x = np.random.default_rng(n).random(n) ** 4 + 0.5

        def tree_sum(lo, n):
            if n <= leaf:
                return np.sum(x[lo:lo + n])
            h = n // 2 - (n // 2) % 8
            return tree_sum(lo, h) + tree_sum(lo + h, n - h)

        assert np.sum(x) == tree_sum(0, n)
        assert sum(size for _, size in pairwise_leaves(0, n, leaf)) == n

    @pytest.mark.parametrize("leaf", [4096, 2048, _LEAF])
    @pytest.mark.parametrize("n", [2, 4_100, 8_200, _CHUNK])
    def test_leaves_follow_numpy_split(self, monkeypatch, n, leaf):
        monkeypatch.setattr(simulate, "_LEAF", leaf)
        assert simulate._leaves(5, n) == pairwise_leaves(5, n, leaf)

    @pytest.mark.parametrize("measure", list(Measure))
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("num_paths", [7, _CHUNK + 9, _CHUNK + 8_200])
    def test_matches_chunk_at_a_time_march(self, base_table, num_paths, scheme, measure):
        # a short last chunk of one leaf, and one of 8,200 paths ending in leaves of 512 and
        # 520; 13 steps march in one block, 57 in two whole blocks and a short one
        for num_steps in (13, 57):
            cfg = SimConfig(num_paths=num_paths, seed=4, num_steps=num_steps, scheme=scheme,
                            measure=measure)
            curves = simulate._sim_curves(base_table, cfg)
            got = simulate._simulate(base_table, curves, cfg)
            assert repr(got) == repr(reference_simulate(base_table, curves, cfg))

    @pytest.mark.parametrize("b", [1, 7, 25])
    @pytest.mark.parametrize("n", [2, 9, 1_000, 1_024])
    def test_block_reductions_match_rows(self, n, b):
        # pins numpy's row reductions and SIMD kernels on C-contiguous (steps, paths) blocks:
        # the march's per-block calls must give bitwise what per-step 1-D calls give
        rng = np.random.default_rng(100 * n + b)
        L = 1.4 + 0.3 * rng.standard_normal((b, n))
        W = np.exp(1.4 + 0.3 * rng.standard_normal((b, n)))
        s4, low, e = np.power(W, 4).sum(axis=1), W.min(axis=1), np.exp(L)
        in_place = L.copy()
        np.exp(in_place, out=in_place)
        for k in range(b):
            assert s4[k] == np.sum(np.power(W[k], 4))
            assert low[k] == np.min(W[k])
            assert np.array_equal(e[k], np.exp(L[k])) and np.array_equal(in_place[k], e[k])

    def test_march_memory_peak(self, monkeypatch, base_table):
        # two workers each fill and march one leaf of 1,024 paths x 200 steps at a time, so
        # two normals buffers of 1.6 MB are alive at most
        from scipy.special import ndtri  # noqa: F401  imported before tracing starts
        monkeypatch.setattr(simulate, "_normal_workers", lambda: 2)
        cfg = SimConfig(num_paths=100_000, seed=1, num_steps=200)
        tracemalloc.start()
        try:
            simulate_equilibrium_wealth(base_table, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak / 1e6


class TestSimulation:
    def test_worker_count_invariance(self, monkeypatch, base_table):
        # three chunks, the last one partial, and padded Philox blocks
        cfg = SimConfig(num_paths=40_000, seed=3, num_steps=13)
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(simulate, "_normal_workers", lambda: workers)
            results.append(simulate_equilibrium_wealth(base_table, cfg))
        assert results[0] == results[1]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_march_stops_the_fill_pool(self, monkeypatch, base_table, workers):
        # the pool must not outlive a raise, even while the traceback holds its frames and
        # leaf tasks are in flight
        raised, threads_left, _ = fail_second_merge(monkeypatch, base_table, workers)
        assert raised.traceback and threads_left == 0

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_leaves_in_flight_stay_bounded(self, monkeypatch, base_table, workers):
        # the raise comes once the 32 leaves of two whole chunks are folded; by then at most
        # ``workers`` of the other 8 leaves may have started
        _, threads_left, started = fail_second_merge(monkeypatch, base_table, workers)
        assert threads_left == 0 and len(started) <= 2 * _CHUNK // _LEAF + workers

    def test_centred_accumulator_matches_two_pass(self, monkeypatch, base_table):
        # three chunks, the last one partial: the merged standard errors against a
        # long-double two-pass over the kept per-path (W, W^2, W^3, W^4, penalty)
        kept, merge = [], simulate._merge
        monkeypatch.setattr(simulate, "_merge", lambda *a: kept.append(a[-1].copy()) or merge(*a))
        cfg = SimConfig(num_paths=40_000, seed=3, num_steps=13)
        res = simulate_equilibrium_wealth(base_table, cfg)
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

    def test_determinism(self, base_table, quick_sim):
        a = simulate_equilibrium_wealth(base_table, quick_sim)
        b = simulate_equilibrium_wealth(base_table, quick_sim)
        for i in range(4):
            assert a.moments[i].value == b.moments[i].value
            assert a.moments[i].std_error == b.moments[i].std_error
        assert a.sup_fourth_moment == b.sup_fourth_moment
        assert a.penalty.value == b.penalty.value
        assert a.objective.value == b.objective.value

    def test_moments_match_coefficients(self, base_table):
        cfg = SimConfig(num_paths=40_000, seed=7, num_steps=100)
        res = simulate_equilibrium_wealth(base_table, cfg)
        w0 = cfg.start_wealth
        targets = (base_table.g1[0] * w0, base_table.h2[0] * w0**2)
        for est, target in zip(res.moments[:2], targets):
            assert abs(est.value - target) <= 3.0 * est.std_error

    def test_paths_positive_under_exact_scheme(self, base_table, quick_sim):
        res = simulate_equilibrium_wealth(base_table, quick_sim)
        assert res.min_wealth > 0.0

    def test_zero_theta_deterministic_growth(self, base_grid):
        market = make_market(mu=BASE["r"])
        table = solve_system(market, Preferences(2.0, 0.5, 1.0), base_grid)
        cfg = SimConfig(num_paths=500, seed=3, num_steps=50)
        res = simulate_equilibrium_wealth(table, cfg)
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
        res = simulate_equilibrium_wealth(table, cfg)
        errors = [m.std_error for m in res.moments + (res.penalty, res.objective)]
        assert errors == [0.0] * 6

    def test_standard_error_scaling(self, base_table):
        small = simulate_equilibrium_wealth(
            base_table, SimConfig(num_paths=10_000, seed=11, num_steps=50)
        )
        big = simulate_equilibrium_wealth(
            base_table, SimConfig(num_paths=40_000, seed=11, num_steps=50)
        )
        ratio = small.moments[0].std_error / big.moments[0].std_error
        assert 1.6 < ratio < 2.4

    def test_scheme_agreement(self, base_table):
        exact = simulate_equilibrium_wealth(
            base_table, SimConfig(num_paths=20_000, seed=5, num_steps=100)
        )
        euler = simulate_equilibrium_wealth(
            base_table,
            SimConfig(num_paths=5_000, seed=6, num_steps=4000, scheme=Scheme.EULER_MARUYAMA),
        )
        gap = abs(exact.moments[0].value - euler.moments[0].value)
        band = 3.0 * np.hypot(exact.moments[0].std_error, euler.moments[0].std_error)
        assert gap <= band

    def test_reference_measure_drops_penalty(self, base_table):
        cfg = SimConfig(num_paths=2_000, seed=9, num_steps=50, measure=Measure.REFERENCE)
        res = simulate_equilibrium_wealth(base_table, cfg)
        assert res.penalty is None and res.objective is None

    def test_table_on_coarser_grid_than_its_market_simulates(self, base_market, base_prefs):
        # RK4 read the base market between the 500 nodes, and the simulation reads it too
        table = solve_system(base_market, base_prefs, TimeGrid(BASE["T"], 500))
        res = simulate_equilibrium_wealth(table, SimConfig(num_paths=100, num_steps=10))
        assert np.isfinite(res.objective.value) and res.min_wealth > 0.0
        check = check_closed_form_consistency(table, RunConfig(), None)
        assert check.passed, check.summary_line()

    def test_start_at_horizon_rejected(self, base_table):
        cfg = SimConfig(num_paths=100, num_steps=10, start_time=base_table.grid.horizon)
        with pytest.raises(OutOfHorizon, match="outside"):
            simulate_equilibrium_wealth(base_table, cfg)


class TestLognormalMoments:
    def test_orders_match_solved_coefficients(self, base_table):
        w = 4.0
        targets = (base_table.g1[0] * w, base_table.h2[0] * w**2, base_table.h3[0] * w**3)
        got = lognormal_moments(base_table, 0.0, w, (1, 2, 3))
        assert len(got) == 3
        for moment, target in zip(got, targets):
            assert abs(moment / target - 1.0) < 1e-7

    def test_terminal_time_returns_powers(self, base_table):
        got = lognormal_moments(base_table, 5.0, 3.0, (1, 2, 3, 4))
        assert got == tuple(3.0**order for order in (1, 2, 3, 4))

    def test_measure_gap_is_girsanov_correction(self, base_table, base_market, base_grid):
        # reference-vs-distorted drift differs by xi * theta * f / (xi+1)^2,
        # integrated by the same extrapolated rule (4 T_half - T) / 3
        xi, half = base_table.xi, base_grid.half_times()
        f = base_table.columns_at(half)[:, base_table.COLUMNS.index("f")]
        gap = xi * base_market.theta_at(half) * f / (xi + 1.0) ** 2
        fine, coarse = np.trapezoid(gap, half), np.trapezoid(gap[::2], base_grid.nodes)
        expected = np.exp((4.0 * fine - coarse) / 3.0)
        (mp,) = lognormal_moments(base_table, 0.0, 1.0, (1,), Measure.REFERENCE)
        (mq,) = lognormal_moments(base_table, 0.0, 1.0, (1,), Measure.DISTORTED)
        assert mp / mq == pytest.approx(expected, rel=1e-12)
        assert mp > mq  # reference drift dominates under ambiguity aversion

    @pytest.mark.parametrize("t", [0.0, 0.0013])
    @pytest.mark.parametrize("measure", list(Measure))
    def test_orders_in_one_build_match_single_orders_bitwise(self, base_table, t, measure):
        rows = simulate.log_moment_growth(base_table, t, (1, 2, 3, 4), measure)
        for row, n in zip(rows, (1, 2, 3, 4)):
            single = simulate.log_moment_growth(base_table, t, (n,), measure)
            assert single.shape == (1, row.size) and np.array_equal(row, single[0])
        # and the moments of one build are the single-order moments, bit for bit
        w = 2.718
        moments = lognormal_moments(base_table, t, w, (1, 2, 3, 4), measure)
        singles = [lognormal_moments(base_table, t, w, (n,), measure)[0]
                   for n in (1, 2, 3, 4)]
        assert [m.hex() for m in moments] == [m.hex() for m in singles]

    def test_bad_inputs(self, base_table):
        for orders in ((5,), (1, 5), ()):
            with pytest.raises(ConfigError):
                lognormal_moments(base_table, 0.0, 4.0, orders)
        with pytest.raises(OutOfHorizon):
            lognormal_moments(base_table, 6.0, 4.0, (1,))


class TestVerifyValue:
    def test_analytic_assembly_hits_value(self, base_table, quick_sim):
        res = verify_value(base_table, 0.0, 4.0, quick_sim)
        assert res.value == pytest.approx(value_bracket(base_table, 0.0) * 4.0)
        assert res.analytic_rel_err < 1e-6
        assert abs(res.mc_z) <= 3.0

    @pytest.mark.parametrize("t", [0.0, 0.0013])
    def test_steep_config_analytic_assembly(self, steep, t):
        # plain trapezoid penalty quadrature was 1.5e-7 off here
        res = verify_value(steep, t, 4.0, SimConfig(num_paths=2_000, seed=1, num_steps=20))
        assert res.analytic_rel_err < 1e-8

    def test_given_sim_reused_only_for_its_config(self, base_table):
        cfg = SimConfig(num_paths=2_000, seed=5, num_steps=20)
        own = verify_value(base_table, 0.0, 4.0, cfg)
        shared = simulate_equilibrium_wealth(base_table, cfg)
        assert verify_value(base_table, 0.0, 4.0, cfg, sim=shared).sim is shared
        foreign = simulate_equilibrium_wealth(base_table, dataclasses.replace(cfg, seed=6))
        assert foreign.objective != own.sim.objective
        assert verify_value(base_table, 0.0, 4.0, cfg, sim=foreign) == own

    def test_terminal_time_is_out_of_horizon(self, base_table):
        # no path starts at the horizon, as in simulate_equilibrium_wealth
        cfg = SimConfig(num_paths=200, seed=1, num_steps=4)
        with pytest.raises(OutOfHorizon, match=r"start_time 5\.0 outside \[0, 5\.0\)"):
            verify_value(base_table, 5.0, 4.0, cfg)

    def test_near_terminal_time(self, base_table):
        cfg = SimConfig(num_paths=200, seed=1, num_steps=4)
        res = verify_value(base_table, 4.999, 4.0, cfg)
        assert res.value == pytest.approx(4.0, rel=1e-3)

    def test_misspecified_value_verifies(self, base_model, quick_sim):
        res = verify_value(base_model.mispec_u, 0.0, 4.0, quick_sim)
        assert res.analytic_rel_err < 1e-6
        assert abs(res.mc_z) <= 3.0

    def test_negative_delta3_raises(self, base_table, base_market, base_grid):
        bad_delta3 = np.asarray(base_table.delta3).copy()
        bad_delta3[100] = -1.0
        crafted = CoefficientTable(
            grid=base_grid, market=base_market,
            gamma0=base_table.gamma0, phi0=base_table.phi0, xi=base_table.xi,
            f=base_table.f, h1=base_table.h1, h2=base_table.h2,
            h3=base_table.h3, g1=base_table.g1, delta3=bad_delta3,
        )
        with pytest.raises(PenaltyUndefined):
            verify_value(crafted, 0.0, 4.0, SimConfig(num_paths=100, num_steps=10))

    def test_zero_ambiguity_has_no_penalty_error(self, base_market, base_grid):
        prefs = Preferences(2.0, 0.5, 0.0)
        table = solve_system(base_market, prefs, base_grid)
        cfg = SimConfig(num_paths=5_000, seed=2, num_steps=50)
        res = verify_value(table, 0.0, 4.0, cfg)
        assert res.sim.penalty.value == 0.0
        assert res.analytic_rel_err < 1e-6


class TestMomentBound:
    def test_base_parameters(self, base_table, quick_sim):
        res = moment_bound_check(base_table, quick_sim)
        assert res.finite
        assert res.analytic_argmax_time == pytest.approx(BASE["T"])
        assert res.consistent

    def test_given_sim_reused_only_for_its_config(self, base_table):
        cfg = SimConfig(num_paths=2_000, seed=5, num_steps=20)
        own = moment_bound_check(base_table, cfg)
        shared = simulate_equilibrium_wealth(base_table, cfg)
        assert moment_bound_check(base_table, cfg, sim=shared) == own
        foreign = simulate_equilibrium_wealth(base_table, dataclasses.replace(cfg, seed=6))
        assert foreign.sup_fourth_moment != shared.sup_fourth_moment
        assert moment_bound_check(base_table, cfg, sim=foreign) == own

    def test_sup_at_horizon_is_fourth_lognormal_moment(self, base_table, steep):
        # the analytic curve on the 200-step sim grid against the solver grid's
        # closed form; plain trapezoid rules were 4.2e-7 and 3.1e-4 off
        cfg = SimConfig(num_paths=200, seed=3, num_steps=200)
        for table, rel in ((base_table, 1e-10), (steep, 1e-5)):
            res = moment_bound_check(table, cfg)
            assert res.analytic_argmax_time == BASE["T"]
            (fourth,) = lognormal_moments(table, 0.0, cfg.start_wealth, (4,))
            assert res.analytic_sup == pytest.approx(fourth, rel=rel)

    def test_overflow_is_not_finite_without_warning(self, base_table):
        # just below load's bound both fourth moments overflow; the suite's
        # warning filter makes any overflow warning an error
        cfg = SimConfig(num_paths=2_000, seed=0, num_steps=20, start_wealth=1.15e77)
        res = moment_bound_check(base_table, cfg)
        assert not res.finite and not res.consistent
        assert res.analytic_sup == res.mc_sup == np.inf and np.isnan(res.ratio)

    def test_zero_theta_exact(self, base_grid):
        market = make_market(mu=BASE["r"])
        table = solve_system(market, Preferences(2.0, 0.5, 1.0), base_grid)
        cfg = SimConfig(num_paths=200, seed=4, num_steps=20)
        res = moment_bound_check(table, cfg)
        assert res.analytic_sup == pytest.approx(
            4.0**4 * np.exp(4 * BASE["r"] * BASE["T"]), rel=1e-12
        )
        assert res.ratio == pytest.approx(1.0, rel=1e-12)


class TestMomentEstimate:
    @pytest.mark.parametrize("std_error, z", [
        (0.0, 0.0), (0.5, 2.0), (np.inf, np.nan), (np.nan, np.nan),
    ])
    def test_z_score(self, std_error, z):
        # a non-finite standard error gives NaN, outside every band
        got = simulate.MomentEstimate(2.0, std_error).z_score(1.0)
        assert got == z or (np.isnan(got) and np.isnan(z))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(num_paths=1)
        with pytest.raises(ConfigError):
            SimConfig(num_steps=0)
        with pytest.raises(ConfigError):
            SimConfig(start_wealth=0.0)

    def test_start_wealth_below_fourth_power_overflow(self):
        # from the bound up, Python's w ** 4 raises OverflowError in _simulate
        # and moment_bound_check
        bound = float(np.finfo(float).max) ** 0.25
        below = float(np.nextafter(bound, 0.0))
        assert np.isfinite(SimConfig(start_wealth=below).start_wealth ** 4)
        for w in (bound, 1.16e77, 1e300, np.inf, np.nan):
            with pytest.raises(ConfigError, match=r"^start_wealth must be positive and "
                                                  r"below 1\.1579e\+77, got "):
                SimConfig(start_wealth=w)

    def test_frozen(self, quick_sim):
        with pytest.raises(dataclasses.FrozenInstanceError):
            quick_sim.seed = 1
