from types import SimpleNamespace

import numpy as np
import pytest

import touropt as tp
from touropt.sd_core import POLICY_FIELDS, _run_constants, _years
from touropt.scenario import (
    DEFAULT_SCENARIOS,
    AllocationPolicy,
    ChannelAmounts,
    FeedbackCoefficients,
    allocate_surplus,
    compare_scenarios,
    run_scenario,
)

from helpers import flat_exog, mid_state, neutral_coeffs, random_policy, slack_policy


DIAGNOSTIC_SERIES = ("f_glacier", "f_attraction", "f_price", "r_tourism",
                     "r_gov_total", "exp_env", "exp_gov_total", "r_net")

# repr of (f1, f2, f3) for each preset's reference policy on its seed-0
# dataset: the plain run, then each of DEFAULT_SCENARIOS in order.  Any
# change to the order of the year loop's float operations shows here.
PINNED_OBJECTIVES = {
    "juneau": [
        ("1410219517.3797061", "0.8628822043617687", "0.7784252812208596"),
        ("1849963744.6563678", "0.9675042939452128", "0.9183599622263415"),
        ("1894182369.7326775", "0.9477954040137191", "0.9081598681495723"),
        ("1544219284.3620744", "0.9398705457247492", "0.8878847549492903"),
        ("1881949289.3391862", "0.932358483459383", "0.9281071799516396"),
    ],
    "iceland": [
        ("1140682286.1050954", "0.9080274590026403", "0.8741649719593195"),
        ("1308948615.581302", "0.9635601457854914", "0.9507429958285243"),
        ("1322518707.7405987", "0.9455281198165646", "0.9412388584350212"),
        ("1179837219.5478237", "0.9465934804549966", "0.9322595286313955"),
        ("1315414951.1843913", "0.9331978395161449", "0.9479518516397795"),
    ],
}


def _by_name(name):
    return next(s for s in DEFAULT_SCENARIOS if s.name == name)


@pytest.mark.parametrize("preset_name", sorted(PINNED_OBJECTIVES))
def test_objectives_pinned_bit_for_bit(preset_name):
    preset = tp.get_preset(preset_name)
    exog = tp.synth_dataset(preset, seed=0)
    init = tp.initial_state(preset, exog, seed=0)
    args = (preset.reference_policy, exog, preset.coefficients, init)
    _, plain = tp.simulate(*args)
    runs = [plain] + [run_scenario(a, *args, preset.feedback).objectives()
                      for a in DEFAULT_SCENARIOS]
    got = [tuple(repr(v) for v in objs) for objs in runs]
    assert got == PINNED_OBJECTIVES[preset_name]


class TestAllocationPolicy:
    def test_share_bounds_enforced(self):
        with pytest.raises(ValueError):
            AllocationPolicy("bad", 1.2, 0.0, 0.0, 0.0)

    def test_normalization_only_above_one(self):
        env_first = _by_name("Environment First")  # sums to 1.1
        scaled, scale = env_first.normalized()
        assert scaled.total() == pytest.approx(1.0)
        assert scale == pytest.approx(1.0 / 1.1)
        mild = AllocationPolicy("mild", 0.2, 0.2, 0.2, 0.2)
        same, scale = mild.normalized()
        assert same is mild and scale == 1.0

    def test_table_scenarios_present(self):
        names = {s.name for s in DEFAULT_SCENARIOS}
        assert names == {"Environment First", "Balanced Growth",
                         "Infrastructure-Led", "Community Focus"}


class TestAllocateSurplus:
    def test_balanced_growth_amounts(self):
        balanced = _by_name("Balanced Growth")
        amounts = allocate_surplus(1e6, balanced)
        assert amounts == ChannelAmounts(3e5, 2.5e5, 2.5e5, 2.5e5)

    def test_no_surplus_no_spending(self):
        balanced = _by_name("Balanced Growth")
        assert allocate_surplus(-5e6, balanced) == ChannelAmounts(0, 0, 0, 0)
        assert allocate_surplus(0.0, balanced) == ChannelAmounts(0, 0, 0, 0)

    def test_zero_shares(self):
        off = AllocationPolicy("off", 0, 0, 0, 0)
        assert allocate_surplus(1e9, off) == ChannelAmounts(0, 0, 0, 0)


class TestApplyFeedback:
    """The feedback step of the year loop, seen through hand-computable runs."""

    def test_zero_amounts_identity(self):
        # expenditure far above revenue: every year's r_net is negative
        exog = flat_exog(EXP_gov_base=1e9)
        policy = slack_policy(capacity_limit=2e6)
        coeffs, init = neutral_coeffs(), mid_state()
        res = run_scenario(_by_name("Balanced Growth"), policy, exog, coeffs,
                           init, FeedbackCoefficients())
        traj, _ = tp.simulate(policy, exog, coeffs, init)
        assert all(r < 0 for r in traj.r_net)
        assert res.trajectory.states == traj.states
        for name in DIAGNOSTIC_SERIES:
            assert getattr(res.trajectory, name) == getattr(traj, name), name
        assert res.channel_spend == [ChannelAmounts(0.0, 0.0, 0.0, 0.0)] * 4
        assert res.effective_capacity == [2e6] * 4

    def test_infrastructure_gain(self):
        fb = FeedbackCoefficients(infra_efficiency=0.04)
        infra = AllocationPolicy("infra", 0.0, 1.0, 0.0, 0.0)
        res = run_scenario(infra, slack_policy(capacity_limit=2e6), flat_exog(),
                           neutral_coeffs(), mid_state(), fb)
        surplus = 1e7 - 0.3 * 1e7
        assert res.trajectory.r_net == [surplus] * 4
        assert res.effective_capacity == pytest.approx(
            [2e6 + 0.04 * surplus * k for k in range(1, 5)])

    def test_saturated_satisfaction_gains_nothing(self):
        fb = FeedbackCoefficients(community_efficiency=1e-8)
        community = AllocationPolicy("community", 0.0, 0.0, 1.0, 0.0)
        args = (slack_policy(), flat_exog(), neutral_coeffs())
        res = run_scenario(community, *args, mid_state(satisfaction=0.5), fb)
        lifted = res.trajectory.states[1].satisfaction
        assert lifted == pytest.approx(0.5 + 1e-8 * 7e6 * 0.5)
        full = run_scenario(community, *args, mid_state(satisfaction=1.0),
                            FeedbackCoefficients(community_efficiency=1e-6))
        assert [s.satisfaction for s in full.trajectory.states] == [1.0] * 5


class TestRunScenario:
    def test_zero_allocation_matches_plain_simulation(self, juneau, juneau_exog,
                                                      juneau_init):
        off = AllocationPolicy("off", 0, 0, 0, 0)
        res = run_scenario(off, juneau.reference_policy, juneau_exog,
                           juneau.coefficients, juneau_init, juneau.feedback)
        traj, _ = tp.simulate(juneau.reference_policy, juneau_exog,
                              juneau.coefficients, juneau_init)
        assert res.trajectory.states == traj.states
        for name in DIAGNOSTIC_SERIES:
            assert getattr(res.trajectory, name) == getattr(traj, name), name
        assert res.channel_spend == [ChannelAmounts(0.0, 0.0, 0.0, 0.0)] * 16
        assert res.effective_capacity == [juneau.reference_policy.capacity_limit] * 16

    def test_spending_never_exceeds_committed_surplus(self, juneau, juneau_exog,
                                                      juneau_init):
        rng = np.random.default_rng(8)
        for alloc in DEFAULT_SCENARIOS:
            policy = random_policy(rng, juneau.bounds)
            res = run_scenario(alloc, policy, juneau_exog, juneau.coefficients,
                               juneau_init, juneau.feedback)
            for r_net, amounts in zip(res.trajectory.r_net, res.channel_spend):
                total = sum(amounts)
                budget = max(0.0, r_net) * alloc.total()
                assert total <= budget * (1.0 + 1e-12) + 1e-9

    def test_effective_capacity_nondecreasing(self, juneau, juneau_exog,
                                              juneau_init):
        res = run_scenario(_by_name("Infrastructure-Led"),
                           juneau.reference_policy, juneau_exog,
                           juneau.coefficients, juneau_init, juneau.feedback)
        caps = res.effective_capacity
        assert all(b >= a for a, b in zip(caps, caps[1:]))
        assert caps[0] >= juneau.reference_policy.capacity_limit

    def test_state_invariants_hold_under_feedback(self, juneau, juneau_exog,
                                                  juneau_init):
        for alloc in DEFAULT_SCENARIOS:
            res = run_scenario(alloc, juneau.reference_policy, juneau_exog,
                               juneau.coefficients, juneau_init, juneau.feedback)
            for s in res.trajectory.states:
                assert 0.0 <= s.env_index <= 1.0
                assert 0.0 <= s.satisfaction <= 1.0
                assert s.visitors >= 0.0

    def test_environment_first_beats_infrastructure_on_env(self, juneau,
                                                           juneau_exog,
                                                           juneau_init):
        args = (juneau.reference_policy, juneau_exog, juneau.coefficients,
                juneau_init, juneau.feedback)
        env_first = run_scenario(_by_name("Environment First"), *args)
        infra = run_scenario(_by_name("Infrastructure-Led"), *args)
        assert env_first.objectives().environment >= infra.objectives().environment

    def test_community_focus_beats_balanced_on_satisfaction(self, juneau,
                                                            juneau_exog,
                                                            juneau_init):
        args = (juneau.reference_policy, juneau_exog, juneau.coefficients,
                juneau_init, juneau.feedback)
        community = run_scenario(_by_name("Community Focus"), *args)
        balanced = run_scenario(_by_name("Balanced Growth"), *args)
        assert community.objectives().satisfaction >= balanced.objectives().satisfaction


class TestCompareScenarios:
    def test_single_scenario_equals_run(self, juneau, juneau_exog, juneau_init):
        alloc = _by_name("Balanced Growth")
        comp = compare_scenarios([alloc], juneau.reference_policy, juneau_exog,
                                 juneau.coefficients, juneau_init, juneau.feedback)
        solo = run_scenario(alloc, juneau.reference_policy, juneau_exog,
                            juneau.coefficients, juneau_init, juneau.feedback)
        assert comp["summary"][0]["f1"] == solo.objectives().revenue
        assert len(comp["results"]) == 1

    def test_four_scenarios_aligned_series(self, juneau, juneau_exog, juneau_init):
        comp = compare_scenarios(DEFAULT_SCENARIOS, juneau.reference_policy,
                                 juneau_exog, juneau.coefficients, juneau_init,
                                 juneau.feedback)
        years = {r[1] for r in comp["rows"]}
        assert years == set(range(2008, 2025))
        names = {r[0] for r in comp["rows"]}
        assert len(names) == 4
        # per scenario: 3 vars for the first year + 4 for the rest
        per_scenario = 3 + 4 * 16
        assert len(comp["rows"]) == 4 * per_scenario

    def test_duplicate_scenarios_identical(self, juneau, juneau_exog, juneau_init):
        alloc = _by_name("Community Focus")
        comp = compare_scenarios([alloc, alloc], juneau.reference_policy,
                                 juneau_exog, juneau.coefficients, juneau_init,
                                 juneau.feedback)
        a, b = comp["summary"]
        assert (a["f1"], a["f2"], a["f3"]) == (b["f1"], b["f2"], b["f3"])

    def test_empty_list_rejected(self, juneau, juneau_exog, juneau_init):
        with pytest.raises(ValueError):
            compare_scenarios([], juneau.reference_policy, juneau_exog,
                              juneau.coefficients, juneau_init, juneau.feedback)


class TestYearLoopOnArrays:
    """The feedback stage of the shared year loop, run on arrays of policy
    rows, against one ``run_scenario`` per row."""

    @pytest.mark.parametrize("preset_name", ["juneau", "iceland"])
    def test_feedback_rows_match_run_scenario(self, preset_name):
        preset = tp.get_preset(preset_name)
        coeffs, fb = preset.coefficients, preset.feedback
        plain = tp.synth_dataset(preset, seed=0)
        init = tp.initial_state(preset, plain, seed=0)
        rng = np.random.default_rng(17)
        lo, hi = preset.bounds.lows(), preset.bounds.highs()
        genomes = lo + (hi - lo) * rng.random((120, len(lo)))
        p = SimpleNamespace(**dict(zip(POLICY_FIELDS, genomes.T)))
        over = AllocationPolicy("Over-committed", 0.9, 0.8, 0.7, 0.6)
        surplus_signs = set()
        # tenfold baseline expenditure puts negative-surplus years in the runs
        for exog in (plain, plain.with_scaled("EXP_gov_base", 10.0)):
            for alloc in DEFAULT_SCENARIOS + (over,):
                used, _ = alloc.normalized()
                years = []

                def record(stage1, flows, exp_env, env, sat, amounts, capacity):
                    years.append((stage1[0], env, sat, flows[5], capacity))

                with np.errstate(all="ignore"):
                    env, sat, cum = _years(exog, _run_constants(p, coeffs), coeffs,
                                           init.env_index, init.satisfaction,
                                           init.net_revenue_cum, p.capacity_limit,
                                           used, fb, record)
                want_years, want_final = [], []
                for genome in genomes:
                    res = run_scenario(alloc, tp.PolicyVector.from_array(genome),
                                       exog, coeffs, init, fb)
                    tr = res.trajectory
                    want_years.append([(s.visitors, s.env_index, s.satisfaction,
                                        s.net_revenue_cum, k)
                                       for s, k in zip(tr.states[1:],
                                                       res.effective_capacity)])
                    want_final.append(res.objectives())
                    surplus_signs.update(r < 0 for r in tr.r_net)
                got_years = np.array(years)
                want_years = np.array(want_years).transpose(1, 2, 0)
                assert got_years.shape == want_years.shape == (16, 5, 120)
                assert np.array_equal(got_years.view(np.int64),
                                      want_years.view(np.int64)), alloc.name
                got_final = np.column_stack([cum, env, sat])
                assert np.array_equal(got_final.view(np.int64),
                                      np.array(want_final).view(np.int64)), alloc.name
        assert surplus_signs == {True, False}
