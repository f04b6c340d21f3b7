"""Multi-attraction visitor redistribution.

An island-wide visitor potential evolves with average price and
environmental conditions, is split across attractions in proportion to an
exponential attractiveness score (environment, satisfaction, marketing,
price), and is clamped per site by capacity -- overflow is dropped, not
reassigned.  Each site then updates its own environment and satisfaction
indices under the assigned load.

Ships with a seven-site Iceland preset (three crowded hotspots, four
underutilized sites) and a marketing-shift schedule that moves promotion
toward the lesser-known sites over a ten-year window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "SiteState",
    "IslandParams",
    "FlowResult",
    "total_potential",
    "attractiveness",
    "allocation_weights",
    "assign_visitors",
    "site_environment_update",
    "site_social_update",
    "redistribute",
    "iceland_sites",
    "constant_schedule",
    "iceland_redistribution_schedule",
]

# schedule fields a site entry may carry, aligned with the run's years
SCHEDULE_FIELDS = ("marketing", "price", "env_fund", "community_fund", "co2")


@dataclass
class SiteState:
    """Per-attraction state for one year."""

    name: str
    env_index: float        # in [0, 1]
    satisfaction: float     # in [0, 1]
    visitors: float
    capacity: float
    population: float
    price: float            # normalized price level
    marketing: float        # normalized promotion effort
    env_fund: float = 0.0    # USD/year
    community_fund: float = 0.0
    co2: float = 0.0         # tons/year

    def validate(self) -> None:
        """Raise ValueError for the first out-of-range field; the message
        starts with the field's name."""
        if not 0.0 <= self.env_index <= 1.0:
            raise ValueError("env_index outside [0, 1]")
        if not 0.0 <= self.satisfaction <= 1.0:
            raise ValueError("satisfaction outside [0, 1]")
        if self.capacity <= 0:
            raise ValueError("capacity must be > 0")
        if self.population <= 0:
            raise ValueError("population must be > 0")
        if not 0.0 <= self.visitors <= self.capacity:
            raise ValueError("visitors outside [0, capacity]")
        if self.marketing < 0:
            raise ValueError("marketing must be >= 0")


@dataclass(frozen=True)
class IslandParams:
    """Coefficients of the island-wide and per-site updates."""

    phi: float = 0.1            # demand response to (price_avg + env_avg - 1.5)
    dev_boost: float = 2e4      # campaign-driven visitors per year
    a0: float = 0.0             # attractiveness intercept
    a1: float = 0.5             # weight of the site environment index
    a2: float = 0.3             # weight of site satisfaction
    a3: float = 1.0             # weight of ln(1 + marketing)
    a4: float = 0.5             # price penalty
    beta_crowd: float = 0.05    # env loss per unit of V/C
    beta_co2: float = 5e-7      # env loss per ton of CO2
    delta: float = 0.1          # natural recovery toward E = 1
    rho_comm: float = 1e-8      # satisfaction per USD of community funding
    rho_over: float = 5e-5      # satisfaction loss per visitor-per-resident
    rho_e: float = 0.3          # pull of the site environment on satisfaction
    alpha_g: float = 1e-8       # env gain per USD of environment funding

    def validate(self) -> None:
        for name in ("a4", "beta_crowd", "beta_co2", "rho_comm", "rho_over",
                     "rho_e", "delta", "alpha_g"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def total_potential(total: float, price_avg: float, env_avg: float,
                    p: IslandParams) -> float:
    """Next year's island-wide potential, floored at zero."""
    if total < 0:
        raise ValueError("total potential must be >= 0")
    nxt = total * (1.0 + p.phi * (price_avg + env_avg - 1.5)) + p.dev_boost
    return max(0.0, nxt)


def attractiveness(site: SiteState, p: IslandParams) -> float:
    """Exponential appeal score; strictly positive."""
    if site.marketing < 0:
        raise ValueError("marketing must be >= 0")
    exponent = (p.a0 + p.a1 * site.env_index + p.a2 * site.satisfaction
                + p.a3 * math.log1p(site.marketing) - p.a4 * site.price)
    if abs(exponent) > 500.0:  # exp would overflow/underflow
        raise ValueError(f"attractiveness exponent {exponent:.1f} out of range")
    return math.exp(exponent)


def allocation_weights(scores) -> np.ndarray:
    """Proportional shares of the scores; they sum to exactly 1."""
    a = np.asarray(list(scores), dtype=float)
    if a.size == 0:
        raise ValueError("no sites to allocate over")
    if np.any(a <= 0):
        raise ValueError("attractiveness scores must be > 0")
    return a / a.sum()


def assign_visitors(total_next: float, weights, capacities) -> np.ndarray:
    """Split the potential by weight and clamp per site; overflow is lost."""
    w = np.asarray(weights, dtype=float)
    c = np.asarray(capacities, dtype=float)
    raw = w * total_next
    return np.minimum(raw, c)


def site_environment_update(site: SiteState, p: IslandParams) -> float:
    """Next-year site environment index, clamped to [0, 1]."""
    if site.capacity <= 0:
        raise ValueError(f"{site.name}: capacity must be > 0")
    e = (site.env_index
         + p.alpha_g * site.env_fund
         - p.beta_crowd * site.visitors / site.capacity
         - p.beta_co2 * site.co2
         + p.delta * (1.0 - site.env_index))
    return _clamp01(e)


def site_social_update(site: SiteState, env_next: float, p: IslandParams) -> float:
    """Next-year site satisfaction, clamped to [0, 1]."""
    if site.population <= 0:
        raise ValueError(f"{site.name}: population must be > 0")
    s = (site.satisfaction
         + p.rho_comm * site.community_fund
         - p.rho_over * site.visitors / site.population
         + p.rho_e * (env_next - site.satisfaction))
    return _clamp01(s)


@dataclass
class FlowResult:
    years: list
    site_names: list
    visitors: np.ndarray   # (n_sites, n_years)
    env: np.ndarray
    sat: np.ndarray
    weights: np.ndarray    # (n_sites, n_years - 1), each column sums to 1
    totals: np.ndarray     # island-wide potential per year

    def final_shares(self) -> dict:
        """Each site's share of the last year's visitors; all 0 if there
        were none."""
        v = self.visitors[:, -1]
        total = v.sum() or math.inf
        return {name: float(v[i] / total) for i, name in enumerate(self.site_names)}


def _schedule_value(schedule: dict, site: str, fld: str, idx: int, fallback: float) -> float:
    entry = schedule.get(site) if schedule else None
    if not entry or fld not in entry:
        return fallback
    seq = entry[fld]
    if idx >= len(seq):
        raise DataError(f"schedule for {site}.{fld} too short (need index {idx})")
    return float(seq[idx])


def redistribute(sites, params: IslandParams, schedule: dict, years) -> FlowResult:
    """Run the yearly redistribution loop over the given calendar years.

    ``schedule`` maps site name -> {field -> per-year sequence} for any of
    marketing, price, env_fund, community_fund, co2; a missing field keeps
    the site's initial value.  The transition into year t+1 uses the
    schedule entry at the index of year t.
    """
    sites = [SiteState(**s.__dict__) for s in sites]  # work on copies
    years = [int(y) for y in years]
    if len(years) < 1:
        raise DataError("need at least one year")
    params.validate()
    for s in sites:
        try:
            s.validate()
        except ValueError as e:
            raise ValueError(f"{s.name}: {e}") from None
    if schedule:
        for name in schedule:
            if name not in {s.name for s in sites}:
                raise DataError(f"schedule references unknown site {name!r}")
    n_sites, n_years = len(sites), len(years)
    visitors = np.zeros((n_sites, n_years))
    env = np.zeros((n_sites, n_years))
    sat = np.zeros((n_sites, n_years))
    weights = np.zeros((n_sites, max(0, n_years - 1)))
    totals = np.zeros(n_years)
    for i, s in enumerate(sites):
        visitors[i, 0], env[i, 0], sat[i, 0] = s.visitors, s.env_index, s.satisfaction
    total = float(sum(s.visitors for s in sites))
    totals[0] = total
    for t in range(n_years - 1):
        for i, s in enumerate(sites):
            s.marketing = _schedule_value(schedule, s.name, "marketing", t, s.marketing)
            s.price = _schedule_value(schedule, s.name, "price", t, s.price)
            s.env_fund = _schedule_value(schedule, s.name, "env_fund", t, s.env_fund)
            s.community_fund = _schedule_value(schedule, s.name, "community_fund",
                                               t, s.community_fund)
            s.co2 = _schedule_value(schedule, s.name, "co2", t, s.co2)
        price_avg = sum(s.price for s in sites) / n_sites
        env_avg = sum(s.env_index for s in sites) / n_sites
        total = total_potential(total, price_avg, env_avg, params)
        w = allocation_weights([attractiveness(s, params) for s in sites])
        assigned = assign_visitors(total, w, [s.capacity for s in sites])
        for i, s in enumerate(sites):
            s.visitors = float(assigned[i])
            e_next = site_environment_update(s, params)
            s_next = site_social_update(s, e_next, params)
            s.env_index, s.satisfaction = e_next, s_next
            visitors[i, t + 1] = s.visitors
            env[i, t + 1] = e_next
            sat[i, t + 1] = s_next
            weights[i, t] = w[i]
        totals[t + 1] = total
    return FlowResult(years=years, site_names=[s.name for s in sites],
                      visitors=visitors, env=env, sat=sat,
                      weights=weights, totals=totals)


def iceland_sites() -> list:
    """Seven-attraction preset: three crowded hotspots, four quiet sites.

    Initial loads, capacities, and index levels are preset assumptions
    shaped to a hotspot/underutilized split; populations are the
    surrounding regions' residents.
    """
    mk = SiteState
    return [
        mk("Blue Lagoon", 0.55, 0.50, 1.2e6, 1.3e6, 20000, 1.2, 3.0, co2=24000),
        mk("Vatnajokull", 0.60, 0.55, 9.0e5, 1.1e6, 5000, 1.0, 2.5, co2=18000),
        mk("Golden Circle", 0.55, 0.50, 1.1e6, 1.2e6, 15000, 1.0, 3.0, co2=22000),
        mk("Snaefellsnes", 0.75, 0.65, 3.0e5, 8.0e5, 4000, 0.8, 1.0, co2=6000),
        mk("Myvatn", 0.75, 0.65, 2.5e5, 7.0e5, 2500, 0.8, 1.0, co2=5000),
        mk("Latrabjarg", 0.85, 0.70, 1.0e5, 5.0e5, 7000, 0.7, 0.5, co2=2000),
        mk("Hengifoss", 0.85, 0.70, 8.0e4, 4.0e5, 10000, 0.7, 0.5, co2=1600),
    ]


def constant_schedule(sites, years, **overrides) -> dict:
    """Hold every site's controls at their current values (or overrides)."""
    n = len(list(years))
    out = {}
    for s in sites:
        entry = {
            "marketing": [s.marketing] * n,
            "price": [s.price] * n,
            "env_fund": [s.env_fund] * n,
            "community_fund": [s.community_fund] * n,
            "co2": [s.co2] * n,
        }
        for key, val in overrides.items():
            entry[key] = [val] * n
        out[s.name] = entry
    return out


HOTSPOTS = ("Blue Lagoon", "Vatnajokull", "Golden Circle")


def iceland_redistribution_schedule(sites, years) -> dict:
    """Marketing shifts from hotspots to quiet sites over the window,
    hotspot prices rise (dynamic pricing), and quiet sites receive growing
    environment/community funds as their load builds."""
    n = len(list(years))
    ramp = np.linspace(0.0, 1.0, max(n, 2))[:n]
    out = {}
    for s in sites:
        hot = s.name in HOTSPOTS
        if hot:
            marketing = s.marketing + (2.0 - s.marketing) * ramp  # fade toward 2.0
            price = s.price + 0.2 * ramp
            env_fund = np.full(n, 5e5)
            community_fund = np.full(n, 2e5)
        else:
            marketing = s.marketing + (2.0 - s.marketing) * ramp  # build toward 2.0
            price = np.full(n, s.price)
            env_fund = 4e5 * ramp
            community_fund = 4e5 * ramp
        out[s.name] = {
            "marketing": list(map(float, marketing)),
            "price": list(map(float, price)),
            "env_fund": list(map(float, env_fund)),
            "community_fund": list(map(float, community_fund)),
            "co2": [s.co2] * n,
        }
    return out
