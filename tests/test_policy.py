import numpy as np
import pytest

from mvs_robust import (
    CoefficientTable,
    ModelVariant,
    NonPositiveWealth,
    OutOfHorizon,
    Preferences,
    ZeroDenominatorValue,
    build_market,
    delta3_scan,
    equilibrium_policy,
    solve_system,
    value_at,
    value_bracket,
)
from mvs_robust.policy import coefficients_at
from mvs_robust.solver import SolvedModel

from conftest import BASE, make_market


class TestEquilibriumPolicy:
    def test_allocation_at_horizon(self, base_model, base_market):
        # w/(xi+1) * beta/sigma^2 * f(T) = 4/2 * 1.6 * 0.5
        p = equilibrium_policy(base_model.full, base_market, BASE["T"], 4.0)
        assert p.allocation[0] == pytest.approx(1.6, rel=1e-12)

    def test_distortion_constant(self, base_model, base_market):
        vals = [
            equilibrium_policy(base_model.full, base_market, t, w).distortion[0]
            for t in (0.0, 1.3, 4.9)
            for w in (1.0, 4.0, 50.0)
        ]
        assert all(v == pytest.approx(-0.2, rel=1e-12) for v in vals)

    def test_distortion_matches_market_formula(self, base_model, base_market):
        rng = np.random.default_rng(5)
        xi = base_model.full.xi
        for t in rng.uniform(0.0, BASE["T"], 20):
            p = equilibrium_policy(base_model.full, base_market, t, 4.0)
            beta = base_market.excess_at(t)
            sig = base_market.volatility_at(t)
            expected = -(xi / (xi + 1.0)) * (sig @ base_market.gram_solve(t, beta))
            np.testing.assert_allclose(p.distortion, expected, rtol=0, atol=1e-15)

    def test_distortion_norm_is_scaled_theta(self):
        # a lower-triangular sigma, whose columns are the assets' loadings
        sigma = [[0.20, 0.0, 0.0], [0.06, 0.22, 0.0], [0.04, 0.05, 0.25]]
        market = build_market(5.0, 0.05, [0.12, 0.15, 0.18], sigma, num_steps=200)
        table = solve_system(market, Preferences(2.0, 0.5, 1.5), market.grid)
        for t in (0.0, 2.6):
            q = equilibrium_policy(table, market, t, 4.0).distortion
            assert q @ q == pytest.approx(0.36 * market.theta_at(t), rel=1e-12)

    def test_allocation_linear_in_wealth(self, base_model, base_market):
        p1 = equilibrium_policy(base_model.full, base_market, 2.0, 4.0)
        p2 = equilibrium_policy(base_model.full, base_market, 2.0, 8.0)
        assert p2.allocation[0] == 2.0 * p1.allocation[0]

    def test_allocation_fraction_wealth_invariant(self, base_model, base_market):
        fracs = [
            equilibrium_policy(base_model.full, base_market, 1.0, w).allocation[0] / w
            for w in (1.0, 4.0, 100.0)
        ]
        assert fracs[0] == pytest.approx(fracs[1], rel=1e-14)
        assert fracs[0] == pytest.approx(fracs[2], rel=1e-14)

    def test_delta_identities(self, base_model, base_market):
        for t in (0.0, 2.5, 5.0):
            for w in (1.0, 4.0, 25.0):
                p = equilibrium_policy(base_model.full, base_market, t, w)
                # the aggregates are assembled termwise, so these are checks
                assert p.delta3 == pytest.approx(-w * p.delta2, rel=1e-12)
                assert p.ambiguity_pref * p.delta1**2 == pytest.approx(-p.delta2, rel=1e-12)
                f = coefficients_at(base_model.full, t)[0]
                assert p.delta1 == pytest.approx(f * p.delta3, rel=1e-11)

    def test_allocation_consistent_with_delta_ratio(self, base_model, base_market):
        xi = base_model.full.xi
        for t in (0.3, 3.1):
            p = equilibrium_policy(base_model.full, base_market, t, 4.0)
            beta = base_market.excess_at(t)
            from_deltas = (
                -(1.0 / (xi + 1.0))
                * base_market.gram_solve(t, beta)
                * (p.delta1 / p.delta2)
            )
            np.testing.assert_allclose(p.allocation, from_deltas, rtol=1e-11)

    def test_ambiguity_pref_positive(self, base_model, base_market):
        p = equilibrium_policy(base_model.full, base_market, 1.0, 4.0)
        assert p.ambiguity_pref > 0.0 and p.delta3 > 0.0

    def test_rejects_bad_inputs(self, base_model, base_market):
        with pytest.raises(NonPositiveWealth):
            equilibrium_policy(base_model.full, base_market, 1.0, 0.0)
        with pytest.raises(NonPositiveWealth):
            equilibrium_policy(base_model.full, base_market, 1.0, -3.0)
        with pytest.raises(OutOfHorizon):
            equilibrium_policy(base_model.full, base_market, 5.5, 4.0)
        with pytest.raises(OutOfHorizon):
            equilibrium_policy(base_model.full, base_market, np.nan, 4.0)
        with pytest.raises(OutOfHorizon):
            value_bracket(base_model.full, np.nan)
        with pytest.raises(OutOfHorizon):
            value_at(base_model, np.nan, 4.0)

    def test_neutral_variant_has_zero_distortion(self, base_model, base_market):
        p = equilibrium_policy(base_model.neutral, base_market, 1.0, 4.0)
        assert p.distortion[0] == 0.0


class TestValueReport:
    def test_terminal_values_equal_wealth(self, base_model):
        rep = value_at(base_model, BASE["T"], 4.0)
        for v in (
            rep.value_full, rep.value_neutral, rep.value_noskew,
            rep.value_basic, rep.value_mispec_u, rep.value_mispec_both,
        ):
            assert v == pytest.approx(4.0, rel=1e-14)
        assert rep.loss_skew == pytest.approx(0.0, abs=1e-14)
        assert rep.loss_uncertainty == pytest.approx(0.0, abs=1e-14)
        assert rep.loss_both == pytest.approx(0.0, abs=1e-14)

    def test_values_linear_in_wealth(self, base_model):
        r1 = value_at(base_model, 0.0, 4.0)
        r2 = value_at(base_model, 0.0, 8.0)
        assert r2.value_full == 2.0 * r1.value_full
        assert r2.value_mispec_both == 2.0 * r1.value_mispec_both

    def test_losses_wealth_independent(self, base_model):
        r1 = value_at(base_model, 0.0, 4.0)
        r2 = value_at(base_model, 0.0, 8.0)
        assert abs(r1.loss_skew - r2.loss_skew) < 1e-14
        assert abs(r1.loss_uncertainty - r2.loss_uncertainty) < 1e-14
        assert abs(r1.loss_both - r2.loss_both) < 1e-14

    def test_losses_in_unit_interval_at_base(self, base_model):
        rep = value_at(base_model, 0.0, 4.0)
        for loss in (rep.loss_skew, rep.loss_uncertainty, rep.loss_both):
            assert 0.0 < loss < 1.0

    def test_uncertainty_loss_nonnegative_at_low_drift(self, base_grid, base_prefs):
        from mvs_robust import solve_all

        market = make_market(mu=0.10)
        model = solve_all(market, base_prefs, base_grid)
        rep = value_at(model, 0.0, 4.0)
        assert rep.loss_uncertainty >= 0.0
        assert rep.loss_both >= 0.0

    def test_rejects_nonpositive_wealth(self, base_model):
        with pytest.raises(NonPositiveWealth):
            value_at(base_model, 0.0, 0.0)

    def test_zero_value_raises(self, base_model, base_grid):
        # crafted coefficients force the full-value bracket to zero
        ones = np.ones(base_grid.num_steps + 1)
        crafted = CoefficientTable(
            variant=ModelVariant.FULL, grid=base_grid,
            gamma0=2.0, phi0=0.0, xi=0.0,
            f=0.5 * ones, h1=1.0 * ones, h2=2.0 * ones, h3=ones,
            g1=1.0 * ones, k1=2.0 * ones, delta3=2.0 * ones,
        )
        model = SolvedModel(
            prefs=Preferences(2.0, 0.0, 0.0), grid=base_grid,
            full=crafted, neutral=base_model.neutral,
            noskew=base_model.noskew, basic=base_model.basic,
            mispec_u=base_model.mispec_u, mispec_both=base_model.mispec_both,
        )
        assert value_bracket(crafted, 1.0) == 0.0
        with pytest.raises(ZeroDenominatorValue):
            value_at(model, 1.0, 4.0)


class TestDelta3Scan:
    def test_base_all_positive(self, base_model):
        scan = delta3_scan(base_model.full)
        assert scan.all_positive
        # minimum sits at the horizon where delta3 = gamma0
        assert scan.min_value == pytest.approx(BASE["gamma0"], rel=1e-12)
        assert scan.argmin_time == pytest.approx(BASE["T"])

    def test_noskew_reduces_to_gamma0_h2(self, base_model):
        t = base_model.noskew
        np.testing.assert_allclose(t.delta3, t.gamma0 * t.h2, rtol=0, atol=0)
        assert delta3_scan(t).all_positive

    def test_noskew_scales_with_gamma0(self, base_market, base_grid):
        a = solve_system(base_market, Preferences(2.0, 0.0, 1.0), base_grid, ModelVariant.NO_SKEW)
        b = solve_system(base_market, Preferences(4.0, 0.0, 1.0), base_grid, ModelVariant.NO_SKEW)
        ra = delta3_scan(a)
        rb = delta3_scan(b)
        assert ra.all_positive and rb.all_positive
        # positivity preserved; min follows the new solution's h2
        assert rb.min_value == pytest.approx(2.0 * ra.min_value * b.h2.min() / a.h2.min(), rel=1e-9)
