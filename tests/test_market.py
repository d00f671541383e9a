import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvs_robust import (
    ConfigError,
    NonPositiveHorizon,
    OutOfHorizon,
    Preferences,
    SingularGram,
    TimeGrid,
    build_market,
)
from mvs_robust import solver

from conftest import BASE, make_market

NODE_ARRAYS = ("risk_free_nodes", "volatility_nodes", "excess_nodes", "gram_nodes",
               "theta_nodes")


class TestTimeGrid:
    def test_endpoints_exact(self):
        g = TimeGrid(5.0, 2000)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 5.0
        assert len(g.nodes) == 2001

    def test_uniform_spacing(self):
        g = TimeGrid(5.0, 777)
        steps = np.diff(g.nodes)
        assert np.allclose(steps, g.dt, rtol=1e-13, atol=0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonPositiveHorizon):
            TimeGrid(0.0, 10)
        with pytest.raises(NonPositiveHorizon):
            TimeGrid(-1.0, 10)
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 0)


class TestPreferences:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Preferences(gamma0=0.0)
        with pytest.raises(ConfigError):
            Preferences(gamma0=2.0, phi0=-0.1)
        with pytest.raises(ConfigError):
            Preferences(gamma0=2.0, xi=-1.0)


class TestBuildMarket:
    def test_base_instance(self, base_market):
        assert base_market.num_assets == 1
        assert base_market.excess_at(0.0) == pytest.approx(0.10, abs=1e-15)
        assert base_market.gram_at(0.0)[0, 0] == pytest.approx(0.0625, abs=1e-15)
        # theta = beta^2 / sigma^2 = 0.01 / 0.0625
        assert base_market.theta_at(2.5) == pytest.approx(0.16, abs=1e-14)

    def test_two_asset_diagonal(self):
        m = build_market(5.0, 0.05, [0.15, 0.10], [0.25, 0.20], num_steps=100)
        assert m.num_assets == 2
        np.testing.assert_allclose(m.gram_at(1.0), np.diag([0.0625, 0.04]), atol=1e-15)
        np.testing.assert_allclose(m.excess_at(1.0), [0.10, 0.05], atol=1e-15)
        # independent assets: theta adds per asset
        assert m.theta_at(0.0) == pytest.approx(0.10**2 / 0.0625 + 0.05**2 / 0.04, rel=1e-13)

    def test_zero_volatility_rejected(self):
        with pytest.raises(SingularGram):
            build_market(5.0, 0.05, 0.15, 0.0, num_steps=10)

    def test_singular_matrix_rejected(self):
        sig = np.array([[0.2, 0.2], [0.2, 0.2]])
        with pytest.raises(SingularGram):
            build_market(5.0, 0.05, [0.15, 0.10], sig, num_steps=10)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(NonPositiveHorizon):
            build_market(0.0, 0.05, 0.15, 0.25, num_steps=10)

    @pytest.mark.parametrize("drift, volatility, match", [
        (np.full((10, 1), 0.15), 0.25, r"drift must have shape \(1,\) .* got \(10, 1\)"),
        (np.nan, 0.25, "drift contains non-finite values"),
        ([0.15, 0.10], 0.25, "scalar volatility requires a single asset"),
        ([0.15, 0.10], [0.25, 0.20, 0.30], "volatility vector length 3 != num_assets 2"),
    ], ids=["drift-table-length", "nan-drift", "scalar-vol-two-assets", "vol-vector-length"])
    def test_bad_inputs_rejected(self, drift, volatility, match):
        with pytest.raises(ConfigError, match=match):
            build_market(1.0, 0.05, drift, volatility, num_steps=10)

    def test_singular_gram_names_first_bad_node(self):
        # nodes 0 to 4 pass the scan before node 5 fails
        sig = np.full((11, 1, 1), 0.25)
        sig[5] = 0.0
        with pytest.raises(SingularGram, match=r"at node 5 \(t = 0\.5\)"):
            build_market(1.0, 0.05, 0.15, sig, num_steps=10)
        # a constant market is derived at node 0 alone, and fails there
        with pytest.raises(SingularGram, match=r"at node 0 \(t = 0\)"):
            build_market(1.0, 0.05, 0.15, 0.0, num_steps=10)

    def test_overflowing_curves_name_first_bad_node(self):
        # theta = beta^2 / Sigma overflows where r = -1e300 makes beta = 1e300
        r = np.full(11, 0.05)
        r[4] = -1e300
        with pytest.raises(ConfigError, match=r"^excess return, Gram matrix or theta not "
                                              r"finite at node 4 \(t = 0\.4\)$"):
            build_market(1.0, r, 0.15, 0.25, num_steps=10)

    def test_zero_excess_means_zero_theta(self):
        m = make_market(mu=0.05, num_steps=50)
        assert m.theta_at(0.0) == 0.0

    def test_out_of_horizon(self, base_market, base_table):
        # the market's and the table's readers between nodes share one check
        for read in (base_market.theta_at, base_table.columns_at):
            for t in (-0.1, 5.1, np.nan):
                with pytest.raises(OutOfHorizon):
                    read(t)
        with pytest.raises(OutOfHorizon):
            base_market.risk_free_at(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("mu, sigma", [
        (0.10, 0.2),
        (0.25, 0.32978),
        ([0.12, 0.15, 0.18], [[0.20, 0.0, 0.0], [0.06, 0.22, 0.0], [0.04, 0.05, 0.25]]),
    ], ids=["mu0.10-sigma0.2", "mu0.25-sigma0.32978", "three_asset"])
    def test_theta_nodes_are_theta_at_nodes(self, mu, sigma, base_grid):
        # one formula: the cached nodes and the interpolating reader agree bitwise
        m = make_market(mu=mu, sigma=sigma)
        np.testing.assert_array_equal(m.theta_nodes, m.theta_at(base_grid.nodes))

    def test_caches_match_recomputation(self, base_market):
        m = base_market
        drift = np.array([BASE["mu"]])  # the input drift, constant over the nodes
        for k in (0, 700, 2000):
            beta = drift - m.risk_free_nodes[k]
            sig = m.volatility_nodes[k]
            gram = sig.T @ sig
            np.testing.assert_array_equal(m.excess_nodes[k], beta)
            np.testing.assert_allclose(m.gram_nodes[k], gram, rtol=0, atol=1e-18)
            theta = float(beta @ np.linalg.solve(gram, beta))
            assert m.theta_nodes[k] == pytest.approx(theta, rel=1e-14)

    def test_piecewise_linear_tables(self):
        r = np.linspace(0.02, 0.06, 5)
        mu = np.linspace(0.10, 0.20, 5).reshape(5, 1)
        sig = np.full((5, 1, 1), 0.25)
        m = build_market(2.0, r, mu, sig, num_steps=4)
        # halfway between nodes 0 and 1
        assert m.risk_free_at(0.25) == pytest.approx(0.025, abs=1e-15)
        assert m.excess_at(0.25)[0] == pytest.approx(0.1125 - 0.025, abs=1e-15)

    def test_per_node_curve_exact_at_nodes(self, base_grid):
        # t / dt is not an integer at many nodes: the segment comes from the nodes
        r = 0.05 + 0.02 * np.sin(3.0 * base_grid.nodes)
        m = build_market(5.0, r, 0.15, 0.25, num_steps=base_grid.num_steps)
        np.testing.assert_array_equal(m.risk_free_at(base_grid.nodes), r)
        np.testing.assert_array_equal(m.excess_at(base_grid.nodes)[:, 0], m.excess_nodes[:, 0])

    def test_constant_curves_stored_once(self):
        # a market constant in time stores each curve once, derived ones too: a
        # read-only view repeats it (stride 0 on the node axis); a per-node table
        # keeps its own copy, and neither follows the caller's array
        sig = np.array([[0.20, 0.0], [0.06, 0.22]])
        r = np.linspace(0.02, 0.06, 11)
        const = build_market(1.0, 0.05, [0.12, 0.15], sig, num_steps=10)
        table = build_market(1.0, r, [0.12, 0.15], sig, num_steps=10)
        for name in NODE_ARRAYS:
            nodes = getattr(const, name)
            assert nodes.shape[0] == 11 and nodes.strides[0] == 0, name
            with pytest.raises(ValueError, match="read-only"):
                nodes[0] = 0.0
        assert table.volatility_nodes.strides[0] == 0
        assert table.risk_free_nodes.strides[0] == table.theta_nodes.strides[0] == 8
        assert table.excess_nodes.strides[0] == 16 and table.gram_nodes.strides[0] == 32
        sig[0, 0], r[3] = 9.0, 9.0
        np.testing.assert_array_equal(const.volatility_nodes[7], [[0.20, 0.0], [0.06, 0.22]])
        assert table.risk_free_nodes[3] == 0.032
        # half-grid rates: one row for a batch of constant markets, a row per
        # time as soon as one market of the batch varies in time
        rates = solver._half_grid_rates([const, const], const.grid)
        assert rates.shape == (21, 2, 2) and rates.strides[0] == 0
        with pytest.raises(ValueError, match="read-only"):
            rates[0, 0, 0] = 0.0
        mixed = solver._half_grid_rates([const, table], const.grid)
        assert mixed.strides[0] != 0
        np.testing.assert_array_equal(mixed[:, :, :1], rates[:, :, :1])
        np.testing.assert_array_equal(mixed[:, :, 1:],
                                      solver._half_grid_rates([table], const.grid))

    @pytest.mark.parametrize("mu, sigma", [
        ((0.15,), ((0.25,),)),
        ((0.12, 0.15), ((0.20, 0.0), (0.06, 0.22))),
        ((0.12, 0.15, 0.18), ((0.20, 0.0, 0.0), (0.06, 0.22, 0.0), (0.04, 0.05, 0.25))),
    ], ids=["one_asset", "two_asset", "three_asset"])
    def test_constant_market_is_its_per_node_table(self, mu, sigma):
        # a constant market, derived at one node, and the same market given as
        # per-node tables of equal rows, derived at every node, agree bitwise
        grid = TimeGrid(BASE["T"], 2 * solver._BLOCK + 3)
        n = grid.num_steps + 1
        const = build_market(grid.horizon, BASE["r"], mu, sigma, num_steps=grid.num_steps)
        table = build_market(grid.horizon, np.full(n, BASE["r"]), np.tile(mu, (n, 1)),
                             np.tile(sigma, (n, 1, 1)), num_steps=grid.num_steps)
        assert const.constant_in_time and not table.constant_in_time
        for name in NODE_ARRAYS:
            np.testing.assert_array_equal(getattr(const, name), getattr(table, name), name)
        times = grid.half_times()
        for read in ("risk_free_at", "theta_at"):
            np.testing.assert_array_equal(getattr(const, read)(times), getattr(table, read)(times))
        np.testing.assert_array_equal(solver._half_grid_rates([const], grid),
                                      solver._half_grid_rates([table], grid))
        plan = solver.LanePlan()
        plan.add_model(0, Preferences(BASE["gamma0"], BASE["phi0"], BASE["xi"]))
        for keep in (False, True):
            for lanes in (plan.lanes, plan.lanes[:1]):  # a batch, and a lone lane on floats
                got = [solver.integrate_lanes(lanes, [m], grid, keep_paths=keep)
                       for m in (const, table)]
                for a, b in zip(*got, strict=True):
                    assert a.error is b.error is None
                    assert (a.ratio0, a.state0, a.den_min) == (b.ratio0, b.state0, b.den_min)
                    assert keep == (a.path is not None) and np.array_equal(a.path, b.path)

    @pytest.mark.parametrize("mu, sigma", [
        (0.15, 0.25),
        ((0.12, 0.15, 0.18), ((0.20, 0.0, 0.0), (0.06, 0.22, 0.0), (0.04, 0.05, 0.25))),
    ])
    def test_constant_market_constant_between_nodes(self, mu, sigma):
        m = make_market(mu=mu, sigma=sigma)
        times = np.random.default_rng(3).uniform(0.0, 5.0, 10_000)
        np.testing.assert_array_equal(m.theta_at(times), m.theta_at(0.0))
        np.testing.assert_array_equal(m.risk_free_at(times), 0.05)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_theta_scales_inverse_square_in_volatility(c):
    m1 = make_market(num_steps=20)
    m2 = make_market(sigma=0.25 * c, num_steps=20)
    assert m2.theta_at(1.0) == pytest.approx(m1.theta_at(1.0) / c**2, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_theta_invariant_under_row_rotation(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    sig = a + 3.0 * np.eye(2)  # keep it comfortably nonsingular
    mu = [0.15, 0.10]
    m1 = build_market(1.0, 0.05, mu, sig, num_steps=10)
    m2 = build_market(1.0, 0.05, mu, q @ sig, num_steps=10)
    assert m2.theta_at(0.5) == pytest.approx(m1.theta_at(0.5), rel=1e-10)
