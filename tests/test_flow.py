import math

import numpy as np
import pytest

from touropt.errors import DataError
from touropt.flow import (
    IslandParams,
    SiteState,
    allocation_weights,
    assign_visitors,
    attractiveness,
    constant_schedule,
    iceland_redistribution_schedule,
    iceland_sites,
    redistribute,
    site_environment_update,
    site_social_update,
    total_potential,
)


def _site(**overrides):
    base = dict(name="s", env_index=0.6, satisfaction=0.5, visitors=4e5,
                capacity=8e5, population=5000.0, price=1.0, marketing=1.5,
                env_fund=0.0, community_fund=0.0, co2=5e3)
    base.update(overrides)
    return SiteState(**base)


class TestTotalPotential:
    def test_neutral_bracket(self):
        p = IslandParams(phi=0.2, dev_boost=0.0)
        assert total_potential(1e6, 0.9, 0.6, p) == pytest.approx(1e6)

    def test_hand_value(self):
        p = IslandParams(phi=0.2, dev_boost=0.0)
        assert total_potential(1e6, 1.0, 1.0, p) == pytest.approx(1.1e6)

    def test_zero_sensitivity(self):
        p = IslandParams(phi=0.0, dev_boost=2e4)
        assert total_potential(1e6, 5.0, 5.0, p) == pytest.approx(1.02e6)

    def test_floor_at_zero(self):
        p = IslandParams(phi=10.0, dev_boost=0.0)
        assert total_potential(1e6, 0.0, 0.0, p) == 0.0


class TestAttractiveness:
    def test_all_zero_coefficients(self):
        p = IslandParams(a0=0, a1=0, a2=0, a3=0, a4=0)
        assert attractiveness(_site(), p) == 1.0

    def test_marketing_ratio(self):
        p = IslandParams(a0=0, a1=0, a2=0, a3=1.0, a4=0)
        a_hi = attractiveness(_site(marketing=math.e - 1.0), p)
        a_lo = attractiveness(_site(marketing=0.0), p)
        assert a_hi / a_lo == pytest.approx(math.e)

    def test_price_strictly_lowers(self):
        p = IslandParams()
        assert attractiveness(_site(price=2.0), p) < attractiveness(_site(price=1.0), p)

    def test_overflow_guard(self):
        p = IslandParams(a3=300.0)
        with pytest.raises(ValueError):
            attractiveness(_site(marketing=1e6), p)


class TestAllocationWeights:
    def test_uniform(self):
        w = allocation_weights([2.0, 2.0, 2.0, 2.0])
        assert np.allclose(w, 0.25)

    def test_proportional(self):
        assert np.allclose(allocation_weights([3.0, 1.0]), [0.75, 0.25])

    def test_single_site(self):
        assert np.allclose(allocation_weights([7.3]), [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            allocation_weights([])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = allocation_weights(rng.uniform(0.01, 10.0, rng.integers(1, 12)))
            assert abs(w.sum() - 1.0) <= 1e-12


class TestAssignVisitors:
    def test_slack_capacity(self):
        v = assign_visitors(1e6, [0.6, 0.4], [1e9, 1e9])
        assert np.allclose(v, [6e5, 4e5])

    def test_one_site_bound(self):
        v = assign_visitors(1e6, [0.6, 0.4], [1e5, 1e9])
        assert np.allclose(v, [1e5, 4e5])

    def test_never_exceeds_total(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            w = allocation_weights(rng.uniform(0.1, 5.0, n))
            caps = rng.uniform(1e4, 1e6, n)
            total = float(rng.uniform(0, 5e6))
            assert assign_visitors(total, w, caps).sum() <= total + 1e-9


class TestSiteUpdates:
    def test_recovery_only(self):
        p = IslandParams(alpha_g=0, beta_crowd=0, beta_co2=0, delta=0.1)
        e = site_environment_update(_site(env_index=0.5, visitors=0, co2=0), p)
        assert e == pytest.approx(0.55)

    def test_pristine_site_stays_at_ceiling(self):
        p = IslandParams(beta_crowd=0, beta_co2=0, delta=0.0, alpha_g=1e-6)
        e = site_environment_update(
            _site(env_index=1.0, visitors=0, co2=0, env_fund=1e6), p)
        assert e == 1.0

    def test_crowding_clamps_to_zero(self):
        p = IslandParams(beta_crowd=50.0)
        e = site_environment_update(_site(visitors=8e5, capacity=8e5), p)
        assert e == 0.0

    def test_social_identity(self):
        p = IslandParams(rho_comm=0, rho_over=0, rho_e=0)
        assert site_social_update(_site(satisfaction=0.5), 0.9, p) == 0.5

    def test_social_env_pull(self):
        p = IslandParams(rho_comm=0, rho_over=0, rho_e=0.5)
        s = site_social_update(_site(satisfaction=0.5, visitors=0), 0.9, p)
        assert s == pytest.approx(0.7)

    def test_overtourism_clamps_to_zero(self):
        p = IslandParams(rho_over=10.0, rho_comm=0, rho_e=0)
        s = site_social_update(_site(visitors=8e5, population=100.0), 0.5, p)
        assert s == 0.0


class TestRedistribute:
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
        p = IslandParams()
        base = [_site(name="a", marketing=1.0), _site(name="b", marketing=1.0)]
        w0 = allocation_weights([attractiveness(s, p) for s in base])
        bumped = [_site(name="a", marketing=2.0), _site(name="b", marketing=1.0)]
        w1 = allocation_weights([attractiveness(s, p) for s in bumped])
        assert w1[0] >= w0[0]

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
        with pytest.raises(DataError):
            redistribute(sites, IslandParams(),
                         {"a": {"marketing": [1.0]}}, years)

    def test_site_validation_names_field_and_redistribute_adds_site(self):
        with pytest.raises(ValueError, match="^capacity must be > 0$"):
            _site(name="a", capacity=-5.0).validate()
        with pytest.raises(ValueError, match="^a: capacity must be > 0$"):
            redistribute([_site(name="a", capacity=-5.0)], IslandParams(), {},
                         [2024, 2025])

    def test_unknown_site_in_schedule_rejected(self):
        with pytest.raises(DataError):
            redistribute([_site(name="a")], IslandParams(),
                         {"ghost": {"marketing": [1.0] * 3}}, [2024, 2025, 2026])

    def test_hotspot_share_declines_under_redistribution(self):
        years = list(range(2024, 2034))
        sites = iceland_sites()
        sched = iceland_redistribution_schedule(sites, years)
        res = redistribute(sites, IslandParams(), sched, years)
        hot = res.visitors[:3, :].sum(axis=0) / res.visitors.sum(axis=0)
        assert hot[-1] < hot[0]
