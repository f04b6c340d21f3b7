import math

import numpy as np
import pytest
from helpers import redistribute_reference

from touropt import flow
from touropt.errors import DataError
from touropt.flow import (
    SCHEDULE_FIELDS,
    IslandParams,
    SiteState,
    constant_schedule,
    iceland_redistribution_schedule,
    iceland_sites,
    redistribute,
    schedule_steps,
)

# every attractiveness coefficient zero but the marketing one: a site's
# score is exp(ln(1 + marketing)) = 1 + marketing
MARKETING_ONLY = dict(a0=0.0, a1=0.0, a2=0.0, a3=1.0, a4=0.0)


def _site(**overrides):
    base = dict(name="s", env_index=0.6, satisfaction=0.5, visitors=4e5,
                capacity=8e5, population=5000.0, price=1.0, marketing=1.5,
                env_fund=0.0, community_fund=0.0, co2=5e3)
    base.update(overrides)
    return SiteState(**base)


def _run(sites, schedule=None, n_years=2, **params):
    """``redistribute`` over ``n_years`` years from 2024."""
    return redistribute(sites, IslandParams(**params), schedule or {},
                        list(range(2024, 2024 + n_years)))


class TestTotalPotential:
    """The island-wide potential steps as
    max(0, total * (1 + phi * (price_avg + env_avg - 1.5)) + dev_boost)."""

    def test_neutral_bracket(self):
        # prices average 0.9 and environment indices 0.6
        sites = [_site(name="a", visitors=5e5, capacity=2e6, price=0.8, env_index=0.5),
                 _site(name="b", visitors=5e5, capacity=2e6, price=1.0, env_index=0.7)]
        res = _run(sites, phi=0.2, dev_boost=0.0)
        assert res.totals[1] == pytest.approx(1e6)

    def test_hand_value(self):
        site = _site(visitors=1e6, capacity=2e6, price=1.0, env_index=1.0)
        assert _run([site], phi=0.2, dev_boost=0.0).totals[1] == pytest.approx(1.1e6)

    def test_zero_sensitivity(self):
        site = _site(visitors=1e6, capacity=2e6, price=5.0, env_index=1.0)
        assert _run([site], phi=0.0, dev_boost=2e4).totals[1] == pytest.approx(1.02e6)

    def test_floor_at_zero(self):
        site = _site(visitors=1e6, capacity=2e6, price=0.0, env_index=0.0)
        res = _run([site], phi=10.0, dev_boost=0.0)
        assert res.totals[1] == 0.0 and res.visitors[0, 1] == 0.0


class TestAttractiveness:
    """Shares follow exp(a0 + a1 E + a2 S + a3 ln(1 + marketing) - a4 price)."""

    def test_all_zero_coefficients(self):
        sites = [_site(name="a", env_index=0.1, marketing=4.0, price=3.0),
                 _site(name="b", env_index=0.9, marketing=0.0, price=0.5)]
        res = _run(sites, a0=0, a1=0, a2=0, a3=0, a4=0)
        assert list(res.weights[:, 0]) == [0.5, 0.5]

    def test_marketing_ratio(self):
        sites = [_site(name="a", marketing=math.e - 1.0), _site(name="b", marketing=0.0)]
        w = _run(sites, **MARKETING_ONLY).weights[:, 0]
        assert w[0] / w[1] == pytest.approx(math.e)

    def test_price_strictly_lowers(self):
        w = _run([_site(name="a", price=2.0), _site(name="b", price=1.0)]).weights[:, 0]
        assert w[0] < w[1]

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match=r"^attractiveness exponent \S+ out of range "
                                             r"for s in 2024$"):
            _run([_site(marketing=1e6)], a3=300.0)

    def test_overflow_message_names_site_and_year_in_short_form(self):
        # a price of 1e300 gives an exponent of -5e299: %g keeps it short
        sites = [_site(name="a"), _site(name="b", price=1e300)]
        with pytest.raises(ValueError, match=r"^attractiveness exponent -5e\+299 out of "
                                             r"range for b in 2030$"):
            redistribute(sites, IslandParams(), {}, [2030, 2031])


class TestAllocationWeights:
    def test_uniform(self):
        res = _run([_site(name=f"s{i}") for i in range(4)], n_years=4)
        assert np.allclose(res.weights, 0.25)

    def test_proportional(self):
        sites = [_site(name="a", marketing=2.0), _site(name="b", marketing=0.0)]
        assert np.allclose(_run(sites, **MARKETING_ONLY).weights[:, 0], [0.75, 0.25])

    def test_single_site(self):
        assert np.allclose(_run([_site()], n_years=4).weights, 1.0)

    def test_empty_rejected(self):
        for n_years in (1, 2, 5):
            with pytest.raises(DataError, match="^need at least one site$"):
                _run([], n_years=n_years)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            sites = [_site(name=f"s{i}", marketing=float(rng.uniform(0.0, 10.0)),
                           price=float(rng.uniform(0.5, 2.0)))
                     for i in range(int(rng.integers(1, 12)))]
            res = _run(sites, n_years=3)
            assert np.max(np.abs(res.weights.sum(axis=0) - 1.0)) <= 1e-12


class TestAssignVisitors:
    """The potential splits by weight and is clamped per site; what a
    clamped site cannot take is lost, not reassigned."""

    def test_slack_capacity(self):
        sites = [_site(name="a", marketing=0.5, visitors=5e5, capacity=1e9),
                 _site(name="b", marketing=0.0, visitors=5e5, capacity=1e9)]
        res = _run(sites, phi=0.0, dev_boost=0.0, **MARKETING_ONLY)
        assert np.allclose(res.visitors[:, 1], [6e5, 4e5])

    def test_one_site_bound(self):
        sites = [_site(name="a", marketing=0.5, visitors=1e5, capacity=1e5),
                 _site(name="b", marketing=0.0, visitors=9e5, capacity=1e9)]
        res = _run(sites, phi=0.0, dev_boost=0.0, **MARKETING_ONLY)
        assert np.allclose(res.visitors[:, 1], [1e5, 4e5])

    def test_never_exceeds_total(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            caps = rng.uniform(1e4, 1e6, int(rng.integers(1, 9)))
            sites = [_site(name=f"s{i}", capacity=float(c), visitors=float(rng.uniform(0, c)),
                           marketing=float(rng.uniform(0.1, 5.0)))
                     for i, c in enumerate(caps)]
            res = _run(sites, phi=0.0, dev_boost=float(rng.uniform(0, 1e6)))
            assert res.visitors[:, 1].sum() <= res.totals[1] + 1e-9


class TestSiteUpdates:
    """Each site's E and S step under the load it was assigned that year."""

    def test_recovery_only(self):
        res = _run([_site(env_index=0.5, visitors=0, co2=0)],
                   alpha_g=0, beta_crowd=0, beta_co2=0, delta=0.1)
        assert res.env[0, 1] == pytest.approx(0.55)

    def test_pristine_site_stays_at_ceiling(self):
        res = _run([_site(env_index=1.0, visitors=0, co2=0, env_fund=1e6)],
                   beta_crowd=0, beta_co2=0, delta=0.0, alpha_g=1e-6)
        assert res.env[0, 1] == 1.0

    def test_crowding_clamps_to_zero(self):
        res = _run([_site(visitors=8e5, capacity=8e5)], beta_crowd=50.0)
        assert res.visitors[0, 1] == 8e5 and res.env[0, 1] == 0.0

    def test_social_identity(self):
        res = _run([_site(satisfaction=0.5)], rho_comm=0, rho_over=0, rho_e=0)
        assert res.env[0, 1] != res.env[0, 0] and res.sat[0, 1] == 0.5

    def test_social_env_pull(self):
        res = _run([_site(satisfaction=0.5, env_index=0.9, visitors=0)],
                   rho_comm=0, rho_over=0, rho_e=0.5,
                   alpha_g=0, beta_crowd=0, beta_co2=0, delta=0.0)
        assert res.env[0, 1] == 0.9 and res.sat[0, 1] == pytest.approx(0.7)

    def test_overtourism_clamps_to_zero(self):
        res = _run([_site(visitors=8e5, population=100.0)], rho_over=10.0, rho_comm=0, rho_e=0)
        assert res.visitors[0, 1] > 0.0 and res.sat[0, 1] == 0.0


def _random_case(rng):
    """Sites, ``IslandParams``, a partial schedule and years: 1-11
    sites, 1-14 years, and in a fifth of the cases coefficients that may
    push an attractiveness exponent past 500."""
    n, n_years = int(rng.integers(1, 12)), int(rng.integers(1, 15))
    sites = []
    for i in range(n):
        cap = float(rng.uniform(1e4, 2e6))
        sites.append(SiteState(
            f"s{i}", float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
            float(rng.uniform(0, cap)), cap, float(rng.uniform(100, 5e4)),
            float(rng.uniform(0.3, 3)), float(rng.uniform(0, 5)),
            float(rng.uniform(0, 1e6)), float(rng.uniform(0, 1e6)), float(rng.uniform(0, 3e4))))
    default = IslandParams()
    params = {name: float(getattr(default, name) * rng.uniform(0, 4) or rng.uniform(0, 1))
              for name in default.__dataclass_fields__ if rng.random() < 0.5}
    if rng.random() < 0.2:
        params.update(a0=float(rng.uniform(-300, 0)), a3=float(rng.uniform(100, 400)))
    schedule = {s.name: {fld: list(rng.uniform(0, 4, n_years - 1 + int(rng.integers(0, 3))))
                         for fld in SCHEDULE_FIELDS if rng.random() < 0.5}
                for s in sites if rng.random() < 0.6}
    return sites, IslandParams(**params), schedule, list(range(2024, 2024 + n_years))


def _outcome(fn, case):
    try:
        res = fn(*case)
    except (ValueError, DataError) as e:
        return type(e), str(e)
    return (res.years, res.site_names,
            *[(a.shape, a.tobytes()) for a in (res.visitors, res.env, res.sat,
                                              res.weights, res.totals)])


class TestRedistribute:
    def test_matches_reference_bytes(self):
        rng = np.random.default_rng(18)
        cases = [_random_case(rng) for _ in range(400)]
        years = list(range(2024, 2034))
        for schedule in (constant_schedule, iceland_redistribution_schedule):
            cases.append((iceland_sites(), IslandParams(),
                          schedule(iceland_sites(), years), years))
        raised = 0
        for case in cases:
            expected = _outcome(redistribute_reference, case)
            assert _outcome(redistribute, case) == expected
            raised += len(expected) == 2
        assert 0 < raised < len(cases) // 10

    def test_uniform_sites_stay_symmetric(self):
        years = list(range(2024, 2034))
        twins = [_site(name=f"s{i}") for i in range(5)]
        sched = constant_schedule(twins, years)
        res = redistribute(twins, IslandParams(), sched, years)
        for arr in (res.visitors, res.env, res.sat):
            assert np.max(np.abs(arr - arr[0])) == 0.0
        assert np.allclose(res.weights, 1.0 / 5.0)

    def test_marketing_shift_moves_share(self):
        years = list(range(2024, 2030))
        a = _site(name="a", marketing=2.0)
        b = _site(name="b", marketing=2.0)
        sched = {
            "a": {"marketing": [0.5] * len(years)},
            "b": {"marketing": [3.5] * len(years)},
        }
        res = redistribute([a, b], IslandParams(), sched, years)
        assert res.weights[1, 0] > res.weights[0, 0]
        assert res.visitors[1, -1] > res.visitors[0, -1]

    def test_same_year_weight_monotone_in_marketing(self):
        w0 = _run([_site(name="a", marketing=1.0), _site(name="b", marketing=1.0)]).weights
        w1 = _run([_site(name="a", marketing=2.0), _site(name="b", marketing=1.0)]).weights
        assert w1[0, 0] >= w0[0, 0]

    def test_weights_sum_to_one_and_indices_clamped(self):
        years = list(range(2024, 2034))
        sites = iceland_sites()
        sched = iceland_redistribution_schedule(sites, years)
        res = redistribute(sites, IslandParams(), sched, years)
        assert np.max(np.abs(res.weights.sum(axis=0) - 1.0)) <= 1e-12
        assert np.all(res.env >= 0.0) and np.all(res.env <= 1.0)
        assert np.all(res.sat >= 0.0) and np.all(res.sat <= 1.0)
        shares = res.visitors / res.totals[None, :]
        assert np.all(shares.sum(axis=0) <= 1.0 + 1e-9)

    def test_random_schedules_keep_indices_in_bounds(self):
        rng = np.random.default_rng(9)
        years = list(range(2024, 2031))
        for _ in range(20):
            sites = [_site(name=f"s{i}",
                           env_index=float(rng.uniform(0, 1)),
                           satisfaction=float(rng.uniform(0, 1)),
                           visitors=float(rng.uniform(0, 5e5)),
                           capacity=float(rng.uniform(5e5, 1e6)),
                           population=float(rng.uniform(500, 2e4)))
                     for i in range(4)]
            sched = {s.name: {
                "marketing": list(rng.uniform(0, 5, len(years))),
                "price": list(rng.uniform(0.5, 2.0, len(years))),
                "env_fund": list(rng.uniform(0, 1e6, len(years))),
                "community_fund": list(rng.uniform(0, 1e6, len(years))),
            } for s in sites}
            res = redistribute(sites, IslandParams(), sched, years)
            assert np.all((res.env >= 0) & (res.env <= 1))
            assert np.all((res.sat >= 0) & (res.sat <= 1))

    def test_final_shares_sum_to_one(self):
        years = list(range(2024, 2034))
        sites = iceland_sites()
        res = redistribute(sites, IslandParams(),
                           constant_schedule(sites, years), years)
        assert sum(res.final_shares().values()) == pytest.approx(1.0)

    def test_short_schedule_rejected(self):
        years = list(range(2024, 2030))
        sites = [_site(name="a")]
        with pytest.raises(DataError, match=r"^schedule for a\.marketing too short "
                                            r"\(need index 1\)$"):
            redistribute(sites, IslandParams(),
                         {"a": {"marketing": [1.0]}}, years)

    def test_site_validation_names_field_and_redistribute_adds_site(self):
        with pytest.raises(ValueError, match="^capacity must be > 0$"):
            _site(name="a", capacity=-5.0).validate()
        with pytest.raises(ValueError, match="^a: capacity must be > 0$"):
            redistribute([_site(name="a", capacity=-5.0)], IslandParams(), {},
                         [2024, 2025])

    def test_unknown_site_in_schedule_rejected(self):
        with pytest.raises(DataError, match="^schedule for ghost names no site$"):
            redistribute([_site(name="a")], IslandParams(),
                         {"ghost": {"marketing": [1.0] * 3}}, [2024, 2025, 2026])

    @pytest.mark.parametrize("schedule", [
        {"a": {"co2": [0.0] * 2}},
        {"ghost": {"marketing": [1.0] * 5}},
        {"b": {"marketing": [1.0, 2.0, -0.5, 1.0, 1.0]}},
    ], ids=["short", "unknown_site", "negative_marketing"])
    def test_errors_keep_type_and_message(self, schedule):
        case = ([_site(name="a"), _site(name="b")], IslandParams(), schedule,
                list(range(2024, 2030)))
        outcome = _outcome(redistribute, case)
        assert len(outcome) == 2 and outcome == _outcome(redistribute_reference, case)

    def test_negative_scheduled_marketing_rejected(self):
        with pytest.raises(ValueError, match=r"^schedule for a\.marketing must be >= 0$"):
            _run([_site(name="a")], {"a": {"marketing": [-1.0]}})
        # an entry past the last year step is never used
        _run([_site(name="a")], {"a": {"marketing": [1.0, -1.0]}})

    @pytest.mark.parametrize("field", ["phi", "dev_boost", "a3", "delta"])
    def test_non_finite_island_param_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, not nan$"):
            IslandParams(**{field: math.nan}).validate()
        with pytest.raises(ValueError, match=f"^{field} must be finite, not inf$"):
            _run(iceland_sites(), n_years=3, **{field: math.inf})

    @pytest.mark.parametrize("field", ["capacity", "population", "price", "marketing",
                                       "env_fund", "community_fund", "co2"])
    def test_non_finite_site_field_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, not nan$"):
            _site(**{field: math.nan}).validate()
        with pytest.raises(ValueError, match=f"^a: {field} must be finite, not -inf$"):
            _run([_site(name="a", **{field: -math.inf})])

    @pytest.mark.parametrize("field", SCHEDULE_FIELDS)
    def test_non_finite_scheduled_value_rejected(self, field):
        with pytest.raises(ValueError, match=rf"^schedule for b\.{field} must be a list "
                                             r"of finite numbers$"):
            _run([_site(name="a"), _site(name="b")],
                 {"b": {field: [1.0, math.nan, 1.0]}}, n_years=4)

    def test_scheduled_values_whose_sum_overflows_run(self):
        res = _run([_site(name="a")], {"a": {"env_fund": [1e308, 1e308]}}, n_years=3)
        assert res.env[0, -1] == 1.0

    def test_unknown_schedule_field_rejected(self):
        years = list(range(2024, 2034))
        sites = iceland_sites()
        schedule = constant_schedule(sites, years)
        schedule["Blue Lagoon"]["marketting"] = [0.0] * len(years)
        with pytest.raises(DataError, match=r"^schedule for Blue Lagoon\.marketting is not one of "):
            redistribute(sites, IslandParams(), schedule, years)

    @pytest.mark.parametrize("entry, error, message", [
        ({"marketing": "222"}, ValueError, "a.marketing must be a list of finite numbers"),
        ({"marketing": [True, False]}, ValueError,
         "a.marketing must be a list of finite numbers"),
        ({"price": 3.0}, ValueError, "a.price must be a list of finite numbers"),
        ({"price": [1.0, "2"]}, ValueError, "a.price must be a list of finite numbers"),
        ({"co2": [1.0, 10 ** 400]}, ValueError, "a.co2 must be a list of finite numbers"),
        # one year step uses only the first entry; the second is checked too
        ({"price": [1.0, math.nan]}, ValueError, "a.price must be a list of finite numbers"),
        (None, DataError, "a must be a map of per-year lists, not None"),
        ([1.0, 2.0], DataError, "a must be a map of per-year lists, not [1.0, 2.0]"),
    ], ids=["string", "booleans", "scalar", "string_value", "int_past_floats",
            "nan_past_the_years", "null_entry", "list_entry"])
    def test_schedule_types_are_checked(self, entry, error, message):
        with pytest.raises(error) as exc:
            _run([_site(name="a")], {"a": entry})
        assert str(exc.value) == f"schedule for {message}"
        with pytest.raises(error) as exc:
            schedule_steps([_site(name="a")], {"a": entry}, 1)
        assert str(exc.value) == message

    def test_schedule_takes_tuples_arrays_and_ints(self):
        case = ([_site(name="a"), _site(name="b")], IslandParams())
        years = [2024, 2025, 2026]
        want = _outcome(redistribute, (*case, {"a": {"price": [2.0, 3.0]}}, years))
        for price in ((2, 3), np.array([2.0, 3.0]), np.array([2, 3])):
            assert _outcome(redistribute, (*case, {"a": {"price": price}}, years)) == want

    def test_hotspot_share_declines_under_redistribution(self):
        years = list(range(2024, 2034))
        sites = iceland_sites()
        sched = iceland_redistribution_schedule(sites, years)
        res = redistribute(sites, IslandParams(), sched, years)
        hot = res.visitors[:3, :].sum(axis=0) / res.visitors.sum(axis=0)
        assert hot[-1] < hot[0]


class TestFloatSums:
    """Sums of floats do not depend on the Python version: from 3.12 the
    builtin ``sum`` of floats is compensated, so ``flow`` folds left."""

    def test_left_fold_from_zero(self):
        values = [1e16, 1.0, -1e16]
        assert flow._sum(values) == 0.0
        assert math.fsum(values) == 1.0  # what a compensated sum gives
        assert flow._sum([]) == 0.0 and flow._sum([-0.0]) == 0.0

    def test_first_total_is_the_left_fold(self):
        # 1e16 + 1.0 rounds back to 1e16 twice; a compensated sum keeps the 2
        sites = [_site(name=f"s{i}", visitors=v, capacity=2e16)
                 for i, v in enumerate([1e16, 1.0, 1.0])]
        res = redistribute(sites, IslandParams(), {}, [2024])
        assert res.totals[0] == 1e16 != math.fsum([1e16, 1.0, 1.0])

    def test_no_builtin_sum(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("flow calls the builtin sum")

        monkeypatch.setattr(flow, "sum", forbidden, raising=False)
        years = list(range(2024, 2034))
        sites = iceland_sites()
        res = redistribute(sites, IslandParams(),
                           iceland_redistribution_schedule(sites, years), years)
        assert res.totals.shape == (len(years),)
