import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import touropt as tp
from touropt import sd_core
from touropt.errors import DataError
from touropt.sd_core import (
    _BLOCK,
    COEFF_FIELDS,
    _attraction,
    _clip01,
    _environment,
    _finance,
    _floor,
    _glacier,
    _max,
    _min,
    _pos,
    _price,
    _put,
    _run_constants,
    _social,
    _visitors,
    POLICY_FIELDS,
    simulate,
    simulate_batch,
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


def _visitors_at(state, exog, t, policy, coeffs):
    """Stage 1 for the year entered at index ``t`` of ``exog``."""
    return _visitors(state.env_index, state.satisfaction, float(exog.G_retreat[t]),
                     float(exog.V_base[t]), 0.0, policy.capacity_limit,
                     _run_constants(policy, coeffs), coeffs)


def _finance_at(v, exog, t, policy, coeffs, prev_cum):
    """Stage 2 for the transition year ``t``: (r_tourism, ..., r_net, r_net_cum)."""
    return _finance(v, float(exog.R_gov_base[t]), float(exog.EXP_gov_base[t]),
                    _run_constants(policy, coeffs), coeffs, prev_cum)


def _environment_at(env, exp_env, exog, t, policy, coeffs):
    """Stage 3 for the transition year ``t``: next E."""
    return _environment(env, exp_env, float(exog.G_retreat[t]),
                        float(exog.CO2_emission[t]), _run_constants(policy, coeffs),
                        coeffs)[0]


def _social_at(sat, env_next, v, exog, t, coeffs):
    """Stage 4 for the transition year ``t`` with no protection spend: next S."""
    return _social(sat, env_next, v, 0.0, 0.0, float(exog.population[t]),
                   float(exog.unemployment[t]), coeffs)


class TestGlacierFactor:
    def test_baseline_retreat_is_neutral(self):
        assert _glacier(250.0, 250.0, 0.2) == 1.0

    def test_double_retreat(self):
        assert _glacier(500.0, 250.0, 0.2) == pytest.approx(0.8)

    def test_floor_at_zero(self):
        assert _glacier(250.0 * 100, 250.0, 0.2) == 0.0

    def test_bad_baseline(self):
        with pytest.raises(ValueError, match="^G_retreat_baseline must be > 0$"):
            simulate(slack_policy(), flat_exog(),
                     neutral_coeffs(G_retreat_baseline=0.0), mid_state())
        with pytest.raises(ValueError, match="^G_retreat_baseline must be > 0$"):
            simulate_batch(slack_policy(), flat_exog(), neutral_coeffs(), mid_state(),
                           {"G_retreat_baseline": [250.0, 0.0]})


class TestAttractionFactor:
    def test_neutral_midpoint(self):
        assert _attraction(0.5, 0.5, 1.0, 0.5) == pytest.approx(1.0)

    def test_full_indices(self):
        assert _attraction(1.0, 1.0, 1.0, 0.5) == pytest.approx(1.5)

    def test_zero_glacier_annihilates(self):
        assert _attraction(0.9, 0.9, 0.0, 0.7) == 0.0


class TestPriceFactor:
    def test_zero_elasticity(self):
        assert _price(0.0, 0.3, 100.0, 100.0) == 1.0

    def test_hand_value(self):
        assert _price(-0.5, 0.1, 10.0, 100.0) == pytest.approx(0.9)

    def test_bad_normalizer(self):
        with pytest.raises(ValueError, match="k1 must be > 0"):
            simulate(slack_policy(), flat_exog(), neutral_coeffs(k1=0.0), mid_state())

    def test_negative_factor_clamped_in_step(self):
        # raw factor 1 - 2*(0.3 + 1) < 0; the visitor step floors it
        exog = flat_exog()
        coeffs = neutral_coeffs(eps_price=-2.0, K_dev=5e4)
        policy = slack_policy(tax_rate=0.3, carbon_fee=100.0, dev_incentive=1.0)
        v, f_pr, _, _ = _visitors_at(mid_state(), exog, 1, policy, coeffs)
        assert f_pr == 0.0
        assert v == pytest.approx(5e4)  # only the development push remains


class TestStepVisitors:
    def test_capacity_is_min(self):
        exog = flat_exog(V_base=10e6)
        policy = slack_policy(capacity_limit=1e6)
        v, *_ = _visitors_at(mid_state(satisfaction=0.5), exog, 1,
                             policy, neutral_coeffs())
        assert v == 1e6

    def test_ship_limit_caps(self):
        exog = flat_exog(V_base=10e6)
        policy = slack_policy(ship_limit=100.0)  # 100 * 5000 = 5e5
        v, *_ = _visitors_at(mid_state(), exog, 1, policy, neutral_coeffs())
        assert v == 5e5

    def test_social_resistance(self):
        exog = flat_exog(V_base=10e6)
        policy = slack_policy(capacity_limit=1e6)
        v, *_ = _visitors_at(mid_state(satisfaction=0.2), exog, 1,
                             policy, neutral_coeffs())
        assert v == pytest.approx(8e5)

    def test_identity_passthrough(self):
        exog = flat_exog(V_base=1e6)
        v, *_ = _visitors_at(mid_state(), exog, 1, slack_policy(),
                             neutral_coeffs())
        assert v == 1e6

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
            vs = [_visitors_at(state, exog, 1,
                               slack_policy(carbon_fee=float(f)), coeffs)[0]
                  for f in fees]
            assert vs[1] <= vs[0] + 1e-9


class TestStepFinance:
    def test_tourism_revenue(self):
        exog = flat_exog()
        policy = slack_policy(tax_rate=0.1, carbon_fee=10.0)
        r_tourism = _finance_at(1e6, exog, 0, policy, neutral_coeffs(), 0.0)[0]
        assert r_tourism == pytest.approx(2e7)

    def test_zero_policy_net(self):
        exog = flat_exog(R_gov_base=1e7, EXP_gov_base=1e7)
        r_net = _finance_at(1e6, exog, 0, slack_policy(), neutral_coeffs(), 0.0)[4]
        assert r_net == pytest.approx(1e7 - 0.3 * 1e7)

    def test_cumulative_sum(self):
        exog = flat_exog(R_gov_base=1.3e8, EXP_gov_base=1e8)
        *_, r_net, r_net_cum = _finance_at(0.0, exog, 0, slack_policy(),
                                           neutral_coeffs(), 5e8)
        assert r_net == pytest.approx(1e8)
        assert r_net_cum == pytest.approx(6e8)


class TestStepEnvironment:
    def test_saturation_at_ceiling(self):
        exog = flat_exog(G_retreat=0.0, CO2_emission=0.0)
        coeffs = neutral_coeffs(alpha_g=1e-6, alpha_w=1e-6, delta=0.5)
        e = _environment_at(1.0, 1e9, exog, 0, slack_policy(), coeffs)
        assert e == 1.0

    def test_recovery_only(self):
        exog = flat_exog(G_retreat=0.0, CO2_emission=0.0)
        e = _environment_at(0.5, 0.0, exog, 0, slack_policy(),
                            neutral_coeffs(delta=0.1))
        assert e == pytest.approx(0.55)

    def test_lower_clamp(self):
        exog = flat_exog(CO2_emission=1e6)
        e = _environment_at(0.01, 0.0, exog, 0, slack_policy(),
                            neutral_coeffs(beta2=1.0))
        assert e == 0.0


class TestStepSocial:
    def test_identity_with_zero_coefficients(self):
        exog = flat_exog()
        s = _social_at(0.5, 0.9, 1e6, exog, 0, neutral_coeffs())
        assert s == 0.5

    def test_environment_pull(self):
        exog = flat_exog()
        s = _social_at(0.5, 0.7, 0.0, exog, 0, neutral_coeffs(p3=0.5))
        assert s == pytest.approx(0.6)

    def test_crowding_clamp(self):
        exog = flat_exog(population=1e6)
        s = _social_at(0.5, 0.5, 1e6, exog, 0, neutral_coeffs(p2=10.0))
        assert s == 0.0

    def test_zero_population_is_data_error(self):
        with pytest.raises(DataError, match="population must be > 0 at year index 0"):
            simulate(slack_policy(), flat_exog(population=0.0), neutral_coeffs(),
                     mid_state())


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
        assert tp.PolicyVector.from_array([getattr(p, f) for f in POLICY_FIELDS]) == p

    def test_bounds_contain_reference_policies(self, juneau, iceland):
        for preset in (juneau, iceland):
            x = np.array([getattr(preset.reference_policy, f) for f in POLICY_FIELDS])
            assert np.all(preset.bounds.lows() <= x) and np.all(x <= preset.bounds.highs())


class TestValidation:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            tp.ModelCoefficients(beta1=-1.0).validate()
        with pytest.raises(ValueError):
            tp.ModelCoefficients(k1=0.0).validate()
        with pytest.raises(ValueError):
            tp.ModelCoefficients(delta=1.5).validate()
        tp.ModelCoefficients(eps_price=-2.0).validate()  # negative allowed here

    @pytest.mark.parametrize("name", sd_core.POLICY_FIELDS)
    def test_negative_lever_named_by_policy_validate(self, name):
        tp.PolicyVector(**{name: 0.0}).validate()
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            tp.PolicyVector(**{name: -1e-9}).validate()

    @pytest.mark.parametrize("name, value, message", [
        ("tax_rate", -0.1, "tax_rate must be >= 0"),
        ("carbon_fee", -1.0, "carbon_fee must be >= 0"),
        ("P_visitor_base", -1.0, "P_visitor_base must be >= 0"),
        ("G_retreat_baseline", 0.0, "G_retreat_baseline must be > 0"),
        ("kappa", -0.1, "kappa must be >= 0"),
        ("k1", 0.0, "k1 must be > 0")])
    def test_simulate_and_validate_name_the_same_field(self, name, value, message):
        policy, coeffs = slack_policy(), neutral_coeffs()
        if name in POLICY_FIELDS:
            policy = bad = replace(policy, **{name: value})
        else:
            coeffs = bad = replace(coeffs, **{name: value})
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate(policy, flat_exog(), coeffs, mid_state())
        with pytest.raises(ValueError, match=f"^{message}$"):
            bad.validate()

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

    @pytest.mark.parametrize("overrides, message", [
        ({"G_retreat": [250.0, np.nan, -1.0, 250.0, 250.0]},
         "series G_retreat contains non-finite values"),
        ({"G_retreat": [250.0, -1.0, np.nan, 250.0, 250.0]},
         "series G_retreat contains non-finite values"),
        ({"CO2_emission": -1.0, "R_gov_base": np.inf},
         "series R_gov_base contains non-finite values"),
        ({"population": np.nan, "EXP_gov_base": -5.0},
         "series EXP_gov_base contains negative values"),
        ({"S_sat_base": -0.1, "unemployment": 1.5},
         "series S_sat_base contains negative values"),
        ({"unemployment": 1.5, "S_sat_base": 2.0},
         r"series unemployment must lie in \[0, 1\]"),
        ({"S_sat_base": [0.5, 0.5, 0.5, 0.5, 1.0 + 1e-12]},
         r"series S_sat_base must lie in \[0, 1\]"),
    ], ids=["nan_then_negative", "negative_then_nan", "two_fields_non_finite_first",
            "two_fields_negative_first", "negative_before_range", "both_above_one",
            "satisfaction_above_one"])
    def test_series_validation_names_the_first_fault(self, overrides, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            flat_exog(**overrides).validate()

    @pytest.mark.parametrize("years, message", [
        ([], "empty series"),
        ([2008, 2010, 2011], "years must increase by exactly 1"),
        ([2010, 2009, 2008], "years must increase by exactly 1"),
    ])
    def test_series_years_validation(self, years, message):
        series = flat_exog(n=len(years), start_year=0)
        with pytest.raises(DataError, match=f"^{message}$"):
            replace(series, years=np.array(years, dtype=int)).validate()

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


# the coefficients gsa.full_space varies, and a draw of each over its
# random_coeffs range
FULL_SPACE_DRAWS = {
    "eps_price": (-2.0, 0.0),
    "kappa": (0.0, 0.5),
    "alpha_g": (0.0, 5e-8),
    "alpha_w": (0.0, 5e-8),
    "delta": (0.0, 0.3),
}
OTHER_COEFFS = tuple(f for f in COEFF_FIELDS if f not in FULL_SPACE_DRAWS)


def _row_inputs(policy, coeffs, rows, i):
    one = {name: float(col[i]) for name, col in rows.items()}
    return (replace(policy, **{k: v for k, v in one.items() if k in POLICY_FIELDS}),
            replace(coeffs, **{k: v for k, v in one.items() if k not in POLICY_FIELDS}))


def _simulate_rows(policy, exog, coeffs, init, rows):
    """Reference: one ``simulate`` call per row."""
    n = len(next(iter(rows.values())))
    out = []
    for i in range(n):
        p, c = _row_inputs(policy, coeffs, rows, i)
        out.append(simulate(p, exog, c, init)[1])
    return np.array(out, dtype=float).reshape(n, 3)


def _outcome(fn):
    """(error type, message) that ``fn`` raises, or None."""
    try:
        fn()
    except Exception as e:  # noqa: BLE001 -- the type is what is compared
        return type(e), str(e)
    return None


def _first_row_error(policy, exog, coeffs, init, rows):
    n = len(next(iter(rows.values())))
    for i in range(n):
        p, c = _row_inputs(policy, coeffs, rows, i)
        err = _outcome(lambda: simulate(p, exog, c, init))
        if err is not None:
            return err
    return None


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


SPECIAL = [np.nan, -np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 1.5, np.inf]


class TestSimulateBatch:
    def test_matches_simulate_bit_for_bit(self, juneau):
        """10,000 rows over 100 random (exog, coeffs, init) sets."""
        rng = np.random.default_rng(20241018)
        lo, hi = juneau.bounds.lows(), juneau.bounds.highs()
        n_rows = 0
        for k in range(100):
            exog = random_exog(rng)
            coeffs = random_coeffs(rng)
            init = random_state(rng, exog)
            policy = random_policy(rng, juneau.bounds)
            genomes = lo + (hi - lo) * rng.random((100, len(lo)))
            rows = dict(zip(POLICY_FIELDS, genomes.T))
            rows.update({name: rng.uniform(a, b, 100)
                         for name, (a, b) in FULL_SPACE_DRAWS.items()})
            other = OTHER_COEFFS[k % len(OTHER_COEFFS)]
            rows[other] = getattr(coeffs, other) * rng.uniform(0.5, 1.5, 100)
            got = simulate_batch(policy, exog, coeffs, init, rows)
            want = _simulate_rows(policy, exog, coeffs, init, rows)
            assert _same_bits(got, want), f"set {k}, extra coefficient {other}"
            n_rows += len(got)
        assert n_rows == 10_000

    def test_array_branches_match_python_bits(self):
        special = [np.nan, -np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 1.5, np.inf]
        a, b = (np.array(v) for v in zip(*[(x, y) for x in special for y in special]))
        for fn, ref in ((_max, max), (_min, min)):
            want = np.array([ref(x, y) for x, y in zip(a.tolist(), b.tolist())])
            assert _same_bits(fn(a, b), want)
            assert _same_bits(fn(0.0, b), np.array([ref(0.0, y) for y in b.tolist()]))
        finite = np.array([-1.5, -0.5, -0.0, 0.0, 0.5, 799.9, 1e300])
        assert _same_bits(_floor(finite) * 5000.0,
                          np.array([math.floor(v) * 5000.0 for v in finite.tolist()]))

    def test_in_place_branches_match_python_bits(self):
        # each form writes into, and returns, the array it is given
        x, y = (np.array(v) for v in zip(*[(a, b) for a in SPECIAL for b in SPECIAL]))
        for fn, ref in ((_pos, lambda v: max(0.0, v)),
                        (_clip01, lambda v: 0.0 if v < 0.0 else (1.0 if v > 1.0 else v))):
            own = x.copy()
            assert fn(own) is own
            assert _same_bits(own, np.array([ref(v) for v in x.tolist()]))
            assert fn(0.5) == ref(0.5) and isinstance(fn(-0.0), float)
        # the visitor caps, ties and signed zeros included: min(v, cap)
        own = x.copy()
        assert _put(own, y, y < own) is own
        assert _same_bits(own, np.array([min(a, b) for a, b in zip(x.tolist(), y.tolist())]))
        assert _same_bits(_put(1.0, y, y < 1.0), np.array([min(1.0, b) for b in y.tolist()]))

    def test_in_place_stages_match_python_bits(self, juneau):
        """The array stages, on their own temporaries, against one float run
        per row: NaN, +-inf and +-0.0 states and budgets, S exactly at the
        resistance threshold, capacities tied with a zero demand, and a zero
        vessel cap from ship_limit < 1."""
        c, policy = juneau.coefficients, juneau.reference_policy
        states = SPECIAL + [c.S_threshold]
        env, sat, cap, ship = np.array(np.meshgrid(
            states, states, [-0.0, 0.0, 4e5, np.inf, np.nan], [0.5, 700.0],
            indexing="ij")).reshape(4, -1)
        budget = np.resize(np.array(SPECIAL) * 1e7, len(env))
        p = SimpleNamespace(**{f: getattr(policy, f) for f in POLICY_FIELDS})
        p.ship_limit, p.glacier_ratio = ship, np.resize([0.0, 0.3, 1.0], len(env))
        inputs = (env, sat, cap, budget, ship, p.glacier_ratio)
        before = [a.copy() for a in inputs]
        with np.errstate(all="ignore"):
            run = _run_constants(p, c)
            got = (_visitors(env, sat, 300.0, 1e6, 0.0, cap, run, c)[0],
                   *_environment(env, budget, 300.0, 1e5, run, c),
                   _social(sat, env, budget, budget, budget, 3e4, 0.05, c))
        want = []
        for e, s, k, b, sh, g in zip(*(a.tolist() for a in inputs)):
            r = _run_constants(replace(policy, ship_limit=sh, glacier_ratio=g), c)
            want.append((_visitors(e, s, 300.0, 1e6, 0.0, k, r, c)[0],
                         *_environment(e, b, 300.0, 1e5, r, c),
                         _social(s, e, b, b, b, 3e4, 0.05, c)))
        assert (run.ship_cap == 0.0).any() and (sat == c.S_threshold).any()
        for j, col in enumerate(zip(*want)):
            assert _same_bits(got[j], np.array(col)), f"output {j}"
        for a, b in zip(inputs, before):
            assert _same_bits(a, b)

    def test_inputs_left_unchanged(self, juneau, juneau_exog, juneau_init):
        # rows as column views of one genome matrix, as optimize and the
        # Sobol design pass them, plus coefficient rows
        rng = np.random.default_rng(3)
        lo, hi = juneau.bounds.lows(), juneau.bounds.highs()
        genomes = lo + (hi - lo) * rng.random((300, len(lo)))
        genomes[::7, 0] = -0.0
        genomes[::11, 3] = 0.0  # a zero capacity binds every year
        rows = dict(zip(POLICY_FIELDS, genomes.T))
        rows.update(kappa=rng.uniform(0.1, 0.3, 300), delta=rng.uniform(0.0, 0.3, 300))
        arrays = [genomes, *rows.values()] + [getattr(juneau_exog, f) for f in
                                               ("years",) + sd_core.SERIES_FIELDS]
        before = [a.copy() for a in arrays]
        init = replace(juneau_init)
        args = (juneau.reference_policy, juneau_exog, juneau.coefficients, juneau_init)
        assert _same_bits(simulate_batch(*args, rows), _simulate_rows(*args, rows))
        for a, b in zip(arrays, before):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert juneau_init == init

    def test_nan_and_signed_zero_inputs(self, juneau, juneau_exog, juneau_init):
        rows = {"eps_price": [np.nan, -0.0, 0.0, -0.5],
                "kappa": [0.0, np.nan, -0.0, 0.2],
                "tax_rate": [-0.0, 0.0, np.nan, 0.1],
                "env_ratio": [0.1, -0.0, 0.2, np.nan]}
        rows = {k: np.array(v) for k, v in rows.items()}
        args = (juneau.reference_policy, juneau_exog, juneau.coefficients, juneau_init)
        assert _same_bits(simulate_batch(*args, rows), _simulate_rows(*args, rows))

    def test_run_constants_keep_special_policy_bits(self, juneau, juneau_exog,
                                                    juneau_init):
        # every combination of -0.0, NaN and +-inf in the levers whose terms
        # are computed once per run: the vessel cap, the levy, the development
        # push and grants, and the waste share
        special = [-0.0, np.nan, np.inf, -np.inf]
        levers = {"ship_limit": [-0.0, 0.0, 700.0, 799.9],
                  "tax_rate": [-0.0, 0.0, np.nan, np.inf, 0.1],
                  "dev_incentive": special + [0.5],
                  "glacier_ratio": special + [0.3]}
        grid = np.array(np.meshgrid(*levers.values(), indexing="ij")).reshape(4, -1)
        rows = dict(zip(levers, grid))
        args = (juneau.reference_policy, juneau_exog, juneau.coefficients, juneau_init)
        got = simulate_batch(*args, rows)
        assert len(got) == 500 and np.isnan(got).any() and np.isfinite(got).any()
        assert _same_bits(got, _simulate_rows(*args, rows))

    @pytest.mark.parametrize("field, bad", [("ship_limit", np.nan),
                                            ("ship_limit", np.inf),
                                            ("ship_limit", -np.inf),
                                            ("tax_rate", -np.inf)])
    def test_run_constants_raise_as_simulate(self, juneau, juneau_exog, juneau_init,
                                             field, bad):
        rows = {"ship_limit": np.full(3, 700.0), "tax_rate": np.full(3, 0.1),
                "dev_incentive": np.array([-0.0, np.inf, np.nan])}
        rows[field][1] = bad
        args = (juneau.reference_policy, juneau_exog, juneau.coefficients, juneau_init)
        want = _first_row_error(*args, rows)
        assert want is not None
        assert _outcome(lambda: simulate_batch(*args, rows)) == want

    # 1023..1025 sit inside one block and straddle the earlier 1024-row size
    @pytest.mark.parametrize("n", sorted({1, 1023, 1024, 1025,
                                          _BLOCK - 1, _BLOCK, _BLOCK + 1}))
    def test_block_edges(self, juneau, juneau_exog, juneau_init, n):
        rng = np.random.default_rng(n)
        rows = {"tax_rate": rng.uniform(0.0, 0.3, n),
                "ship_limit": rng.uniform(600.0, 800.0, n),
                "kappa": rng.uniform(0.1, 0.3, n)}
        args = (juneau.reference_policy, juneau_exog, juneau.coefficients, juneau_init)
        got = simulate_batch(*args, rows)
        assert _same_bits(got, _simulate_rows(*args, rows))

    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_block_size_changes_no_bits(self, juneau, juneau_init, monkeypatch, block):
        # three years keep the 12,293 one-row blocks quick
        rng = np.random.default_rng(block)
        exog = random_exog(rng, n=3)
        n = 3 * 4096 + 5
        lo, hi = juneau.bounds.lows(), juneau.bounds.highs()
        rows = {f: rng.uniform(lo[i], hi[i], n) for i, f in enumerate(POLICY_FIELDS)}
        rows["eps_price"] = rng.uniform(-1.0, -0.1, n)
        args = (juneau.reference_policy, exog, juneau.coefficients, juneau_init)
        want = simulate_batch(*args, rows)
        monkeypatch.setattr(sd_core, "_BLOCK", block)
        assert _same_bits(simulate_batch(*args, rows), want)

    def test_late_override_mixes_shared_and_row_values(self, juneau, juneau_exog,
                                                       juneau_init):
        # p4 enters only the social stage: visitors stay shared floats until
        # the first year's satisfaction differs row by row
        rows = {"p4": np.linspace(0.0, 0.5, 7)}
        args = (juneau.reference_policy, juneau_exog, juneau.coefficients, juneau_init)
        assert _same_bits(simulate_batch(*args, rows), _simulate_rows(*args, rows))

    def test_zero_horizon_reads_no_run_constants(self):
        # no transition: like simulate, the batch never floors the vessel limit
        policy = replace(slack_policy(), ship_limit=math.nan)
        exog, coeffs, init = flat_exog(n=1), neutral_coeffs(), mid_state()
        rows = {"tax_rate": np.array([0.1, 0.2])}
        assert _same_bits(simulate_batch(policy, exog, coeffs, init, rows),
                          _simulate_rows(policy, exog, coeffs, init, rows))

    def test_empty_batch(self, juneau, juneau_exog, juneau_init):
        out = simulate_batch(juneau.reference_policy, juneau_exog,
                             juneau.coefficients, juneau_init,
                             {"tax_rate": np.empty(0)})
        assert out.shape == (0, 3)

    @pytest.mark.parametrize("rows", [
        {"magic": [1.0]},
        {"tax_rate": [0.1, 0.2], "kappa": [0.1]},
        {"tax_rate": [[0.1]]},
        {}])
    def test_bad_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            simulate_batch(slack_policy(), flat_exog(), neutral_coeffs(),
                           mid_state(), rows)

    @pytest.mark.parametrize("case", [
        "tax_rate", "carbon_fee", "P_visitor_base", "G_retreat_baseline", "kappa", "k1",
        "population", "zero_horizon", "first_row_wins", "ship_nan", "ship_inf",
        "crowd_denominator", "bad_init"])
    def test_errors_match_simulate(self, case):
        policy, coeffs, init = slack_policy(), neutral_coeffs(p2=1e-3), mid_state()
        exog = flat_exog(n=5)
        ok = [0.1, 0.1, 0.1, 0.1, 0.1]
        rows = {"tax_rate": ok}
        if case in ("tax_rate", "carbon_fee", "P_visitor_base"):
            rows = {case: [0.1, 0.1, 0.1, -0.1, 0.2]}
        elif case == "G_retreat_baseline":
            rows = {case: [250.0, 0.0, 250.0]}
        elif case in ("kappa", "k1"):
            rows = {case: [0.1, 0.1, -0.1 if case == "kappa" else 0.0, 0.1, 0.1]}
        elif case == "population":
            exog = flat_exog(n=5, population=[3e4, 3e4, 0.0, 3e4, 3e4])
        elif case == "zero_horizon":
            exog = flat_exog(n=1)
            rows = {"kappa": [0.1, -0.1, 0.2], "k1": [1.0, 0.0, 2.0]}
        elif case == "first_row_wins":
            rows = {"k1": [1.0, 0.0, 1.0, 1.0], "tax_rate": [0.1, 0.1, 0.1, -0.5]}
        elif case == "ship_nan":
            rows = {"ship_limit": [700.0, np.nan, 700.0]}
        elif case == "ship_inf":
            rows = {"ship_limit": [700.0, 700.0, np.inf]}
        elif case == "crowd_denominator":
            rows = {"eps_crowd": [1.0, -1.0, -32000.0, 1.0]}
        elif case == "bad_init":
            init = replace(init, satisfaction=1.5)
            rows = {"tax_rate": [0.1, -0.1]}
        rows = {k: np.asarray(v, dtype=float) for k, v in rows.items()}
        want = _first_row_error(policy, exog, coeffs, init, rows)
        got = _outcome(lambda: simulate_batch(policy, exog, coeffs, init, rows))
        assert got == want
        if case == "zero_horizon":
            assert want is None
            out = simulate_batch(policy, exog, coeffs, init, rows)
            assert out.tolist() == [[0.0, 0.5, 0.5]] * 3
        else:
            assert want is not None
