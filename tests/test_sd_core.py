import numpy as np
import pytest

import touropt as tp
from touropt.errors import DataError
from touropt.sd_core import (
    attraction_factor,
    glacier_factor,
    price_factor,
    simulate,
    step_environment,
    step_finance,
    step_social,
    step_visitors,
)

from helpers import (
    flat_exog,
    mid_state,
    neutral_coeffs,
    random_coeffs,
    random_exog,
    random_policy,
    random_state,
    slack_policy,
)


class TestGlacierFactor:
    def test_baseline_retreat_is_neutral(self):
        assert glacier_factor(250.0, 250.0, 0.2) == 1.0

    def test_double_retreat(self):
        assert glacier_factor(500.0, 250.0, 0.2) == pytest.approx(0.8)

    def test_floor_at_zero(self):
        assert glacier_factor(250.0 * 100, 250.0, 0.2) == 0.0

    def test_bad_baseline(self):
        with pytest.raises(ValueError):
            glacier_factor(250.0, 0.0, 0.2)


class TestAttractionFactor:
    def test_neutral_midpoint(self):
        assert attraction_factor(0.5, 0.5, 1.0, 0.5) == pytest.approx(1.0)

    def test_full_indices(self):
        assert attraction_factor(1.0, 1.0, 1.0, 0.5) == pytest.approx(1.5)

    def test_zero_glacier_annihilates(self):
        assert attraction_factor(0.9, 0.9, 0.0, 0.7) == 0.0


class TestPriceFactor:
    def test_zero_elasticity(self):
        assert price_factor(0.0, 0.3, 100.0, 100.0) == 1.0

    def test_hand_value(self):
        assert price_factor(-0.5, 0.1, 10.0, 100.0) == pytest.approx(0.9)

    def test_bad_normalizer(self):
        with pytest.raises(ValueError):
            price_factor(-0.5, 0.1, 10.0, 0.0)

    def test_negative_factor_clamped_in_step(self):
        # raw factor 1 - 2*(0.3 + 1) < 0; the visitor step floors it
        exog = flat_exog()
        coeffs = neutral_coeffs(eps_price=-2.0, K_dev=5e4)
        policy = slack_policy(tax_rate=0.3, carbon_fee=100.0, dev_incentive=1.0)
        v, f_pr, _, _ = step_visitors(mid_state(), exog, 1, policy, coeffs)
        assert f_pr == 0.0
        assert v == pytest.approx(5e4)  # only the development push remains


class TestStepVisitors:
    def test_capacity_is_min(self):
        exog = flat_exog(V_base=10e6)
        policy = slack_policy(capacity_limit=1e6)
        v, *_ = step_visitors(mid_state(satisfaction=0.5), exog, 1,
                              policy, neutral_coeffs())
        assert v == 1e6

    def test_ship_limit_caps(self):
        exog = flat_exog(V_base=10e6)
        policy = slack_policy(ship_limit=100.0)  # 100 * 5000 = 5e5
        v, *_ = step_visitors(mid_state(), exog, 1, policy, neutral_coeffs())
        assert v == 5e5

    def test_social_resistance(self):
        exog = flat_exog(V_base=10e6)
        policy = slack_policy(capacity_limit=1e6)
        v, *_ = step_visitors(mid_state(satisfaction=0.2), exog, 1,
                              policy, neutral_coeffs())
        assert v == pytest.approx(8e5)

    def test_identity_passthrough(self):
        exog = flat_exog(V_base=1e6)
        v, *_ = step_visitors(mid_state(), exog, 1, slack_policy(),
                              neutral_coeffs())
        assert v == 1e6

    def test_missing_year_is_data_error(self):
        exog = flat_exog(n=3)
        with pytest.raises(DataError):
            step_visitors(mid_state(), exog, 3, slack_policy(), neutral_coeffs())

    def test_fee_never_raises_unconstrained_demand(self):
        # monotonicity under negative elasticity, capacity slack
        rng = np.random.default_rng(5)
        exog = flat_exog()
        for _ in range(200):
            coeffs = neutral_coeffs(eps_price=-float(rng.uniform(0.1, 2.0)),
                                    alpha=float(rng.uniform(0, 1)))
            state = mid_state(env_index=float(rng.uniform(0, 1)),
                              satisfaction=float(rng.uniform(0.3, 1)))
            fees = np.sort(rng.uniform(0.0, 100.0, 2))
            vs = [step_visitors(state, exog, 1,
                                slack_policy(carbon_fee=float(f)), coeffs)[0]
                  for f in fees]
            assert vs[1] <= vs[0] + 1e-9


class TestStepFinance:
    def test_tourism_revenue(self):
        exog = flat_exog()
        policy = slack_policy(tax_rate=0.1, carbon_fee=10.0)
        flows = step_finance(1e6, exog, 0, policy, neutral_coeffs(), 0.0)
        assert flows.r_tourism == pytest.approx(2e7)

    def test_zero_policy_net(self):
        exog = flat_exog(R_gov_base=1e7, EXP_gov_base=1e7)
        flows = step_finance(1e6, exog, 0, slack_policy(), neutral_coeffs(), 0.0)
        assert flows.r_net == pytest.approx(1e7 - 0.3 * 1e7)

    def test_cumulative_sum(self):
        exog = flat_exog(R_gov_base=1.3e8, EXP_gov_base=1e8)
        flows = step_finance(0.0, exog, 0, slack_policy(), neutral_coeffs(), 5e8)
        assert flows.r_net == pytest.approx(1e8)
        assert flows.r_net_cum == pytest.approx(6e8)

    def test_negative_visitors_rejected(self):
        with pytest.raises(ValueError):
            step_finance(-1.0, flat_exog(), 0, slack_policy(), neutral_coeffs(), 0.0)


class TestStepEnvironment:
    def test_saturation_at_ceiling(self):
        exog = flat_exog(G_retreat=0.0, CO2_emission=0.0)
        coeffs = neutral_coeffs(alpha_g=1e-6, alpha_w=1e-6, delta=0.5)
        e = step_environment(1.0, 1e9, exog, 0, slack_policy(), coeffs)
        assert e == 1.0

    def test_recovery_only(self):
        exog = flat_exog(G_retreat=0.0, CO2_emission=0.0)
        e = step_environment(0.5, 0.0, exog, 0, slack_policy(),
                             neutral_coeffs(delta=0.1))
        assert e == pytest.approx(0.55)

    def test_lower_clamp(self):
        exog = flat_exog(CO2_emission=1e6)
        e = step_environment(0.01, 0.0, exog, 0, slack_policy(),
                             neutral_coeffs(beta2=1.0))
        assert e == 0.0


class TestStepSocial:
    def test_identity_with_zero_coefficients(self):
        exog = flat_exog()
        s = step_social(0.5, 0.9, 1e6, 0.0, 0.0, exog, 0, neutral_coeffs())
        assert s == 0.5

    def test_environment_pull(self):
        exog = flat_exog()
        s = step_social(0.5, 0.7, 0.0, 0.0, 0.0, exog, 0,
                        neutral_coeffs(p3=0.5))
        assert s == pytest.approx(0.6)

    def test_crowding_clamp(self):
        exog = flat_exog(population=1e6)
        s = step_social(0.5, 0.5, 1e6, 0.0, 0.0, exog, 0,
                        neutral_coeffs(p2=10.0))
        assert s == 0.0

    def test_zero_population_is_data_error(self):
        exog = flat_exog(population=0.0)
        with pytest.raises(DataError):
            step_social(0.5, 0.5, 1e6, 0.0, 0.0, exog, 0, neutral_coeffs())


class TestSimulate:
    def test_zero_horizon(self):
        exog = flat_exog(n=1)
        init = mid_state()
        traj, objs = simulate(slack_policy(), exog, neutral_coeffs(), init)
        assert len(traj.states) == 1
        assert traj.states[0] is init
        assert objs == (0.0, 0.5, 0.5)

    def test_decoupled_system(self):
        # dynamics coefficients zero: E and S frozen, revenue purely baseline
        exog = flat_exog(n=6, R_gov_base=1e7, EXP_gov_base=8e6)
        traj, objs = simulate(slack_policy(), exog, neutral_coeffs(), mid_state())
        assert all(s.env_index == 0.5 for s in traj.states)
        assert all(s.satisfaction == 0.5 for s in traj.states)
        assert objs.revenue == pytest.approx(5 * (1e7 - 0.3 * 8e6))

    @pytest.mark.parametrize("policy, coeffs", [
        (slack_policy(tax_rate=-0.1), neutral_coeffs()),
        (slack_policy(carbon_fee=-5.0), neutral_coeffs()),
        (slack_policy(), neutral_coeffs(P_visitor_base=-1.0))])
    def test_negative_price_input_rejected(self, policy, coeffs):
        with pytest.raises(ValueError):
            simulate(policy, flat_exog(), coeffs, mid_state())

    def test_allocation_and_feedback_go_together(self):
        args = (slack_policy(), flat_exog(), neutral_coeffs(), mid_state())
        with pytest.raises(ValueError):
            simulate(*args, allocation=tp.AllocationPolicy("off", 0, 0, 0, 0))
        with pytest.raises(ValueError):
            simulate(*args, feedback=tp.FeedbackCoefficients())

    def test_determinism(self, juneau, juneau_exog, juneau_init):
        policy = juneau.reference_policy
        t1, o1 = simulate(policy, juneau_exog, juneau.coefficients, juneau_init)
        t2, o2 = simulate(policy, juneau_exog, juneau.coefficients, juneau_init)
        assert o1 == o2
        assert all(a == b for a, b in zip(t1.states, t2.states))

    def test_randomized_invariants(self, juneau):
        rng = np.random.default_rng(42)
        for _ in range(200):
            exog = random_exog(rng)
            coeffs = random_coeffs(rng)
            policy = random_policy(rng, juneau.bounds)
            init = random_state(rng, exog)
            traj, _ = simulate(policy, exog, coeffs, init)
            cap = min(policy.capacity_limit,
                      policy.ship_limit * coeffs.P_ship_capacity)
            for s in traj.states[1:]:
                assert 0.0 <= s.env_index <= 1.0
                assert 0.0 <= s.satisfaction <= 1.0
                assert 0.0 <= s.visitors <= cap + 1e-9

    def test_telescoping(self, juneau):
        rng = np.random.default_rng(7)
        for _ in range(100):
            exog = random_exog(rng)
            traj, objs = simulate(random_policy(rng, juneau.bounds), exog,
                                  random_coeffs(rng), random_state(rng, exog))
            total = sum(traj.r_net)
            assert abs(objs.revenue - total) <= 1e-6 * max(abs(objs.revenue), 1e-12)

    def test_capacity_dominance(self, juneau, juneau_init):
        # demand far above capacity: revenue never falls as the cap rises
        exog = tp.synth_dataset(juneau, seed=0).with_scaled("V_base", 8.0)
        f1 = []
        for cap in np.linspace(1e6, 4e6, 9):
            policy = tp.PolicyVector(tax_rate=0.15, env_ratio=0.2,
                                     dev_incentive=0.5, capacity_limit=float(cap),
                                     ship_limit=800.0, carbon_fee=40.0,
                                     glacier_ratio=0.5)
            _, objs = simulate(policy, exog, juneau.coefficients, juneau_init)
            f1.append(objs.revenue)
        assert all(b >= a - 1e-6 for a, b in zip(f1, f1[1:]))

    def test_env_recovers_without_pressure(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            coeffs = random_coeffs(rng)
            coeffs = neutral_coeffs(delta=float(rng.uniform(0.01, 0.3)),
                                    alpha_g=coeffs.alpha_g, alpha_w=coeffs.alpha_w,
                                    p3=coeffs.p3)
            exog = flat_exog(n=30, G_retreat=0.0, CO2_emission=0.0)
            init = mid_state(env_index=float(rng.uniform(0, 0.9)))
            traj, _ = simulate(slack_policy(env_ratio=0.2), exog, coeffs, init)
            es = [s.env_index for s in traj.states]
            assert all(b >= a for a, b in zip(es, es[1:]))
            assert es[-1] > es[0] or es[0] == 1.0

    def test_policy_vector_roundtrip(self):
        p = tp.PolicyVector(0.1, 0.2, 0.3, 2e6, 700.0, 50.0, 0.6)
        assert tp.PolicyVector.from_array(p.to_array()) == p

    def test_bounds_contain_reference_policies(self, juneau, iceland):
        assert juneau.bounds.contains(juneau.reference_policy)
        assert iceland.bounds.contains(iceland.reference_policy)


class TestValidation:
    def test_degenerate_bounds_rejected(self):
        bounds = tp.PolicyBounds(tax_rate=(0.3, 0.3))
        with pytest.raises(ValueError):
            bounds.validate()

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            tp.ModelCoefficients(beta1=-1.0).validate()
        with pytest.raises(ValueError):
            tp.ModelCoefficients(k1=0.0).validate()
        with pytest.raises(ValueError):
            tp.ModelCoefficients(delta=1.5).validate()
        tp.ModelCoefficients(eps_price=-2.0).validate()  # negative allowed here

    def test_series_validation(self):
        good = flat_exog()
        good.validate()
        with pytest.raises(DataError):
            flat_exog(unemployment=1.5).validate()
        bad_years = flat_exog()
        from dataclasses import replace as _replace
        import numpy as _np
        with pytest.raises(DataError):
            _replace(bad_years, years=_np.array([2008, 2010, 2011, 2012, 2013])).validate()

    def test_mismatched_series_length_rejected(self):
        import numpy as _np
        with pytest.raises(DataError):
            tp.ExogenousSeries(
                years=_np.arange(2008, 2012),
                V_base=_np.ones(3), R_gov_base=_np.ones(4),
                EXP_gov_base=_np.ones(4), G_retreat=_np.ones(4),
                CO2_emission=_np.ones(4), population=_np.ones(4),
                unemployment=_np.zeros(4), S_sat_base=_np.zeros(4))

    def test_state_validation(self):
        with pytest.raises(ValueError):
            tp.SimState(1.0, 1.2, 0.5, 0.0).validate()
        with pytest.raises(ValueError):
            tp.SimState(-1.0, 0.5, 0.5, 0.0).validate()
