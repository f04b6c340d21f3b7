"""Multi-attraction visitor redistribution.

An island-wide visitor potential evolves with average price and
environmental conditions, is split across attractions in proportion to an
exponential attractiveness score (environment, satisfaction, marketing,
price), and is clamped per site by capacity -- overflow is dropped, not
reassigned.  Each site then updates its own environment and satisfaction
indices under the assigned load.  ``redistribute`` is that year loop, on
Python floats per site; it resolves and checks the whole schedule, with
``schedule_steps``, before the first year step.

Ships with a seven-site Iceland preset (three crowded hotspots, four
underutilized sites) and a marketing-shift schedule that moves promotion
toward the lesser-known sites over a ten-year window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DataError

__all__ = [
    "SiteState",
    "IslandParams",
    "FlowResult",
    "redistribute",
    "schedule_steps",
    "iceland_sites",
    "constant_schedule",
    "iceland_redistribution_schedule",
]

# schedule fields a site entry may carry, aligned with the run's years
SCHEDULE_FIELDS = ("marketing", "price", "env_fund", "community_fund", "co2")


def _sum(values) -> float:
    """``values`` added left to right from 0.0: the bits of the builtin
    ``sum`` up to Python 3.11 on every version (3.12 made its float sum
    compensated)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _refuse_non_finite(obj, first=0) -> None:
    """Raise ValueError naming the first non-finite field of ``obj`` from
    field ``first`` on.  One sum screens them all; only a sum that is not
    finite (it may have overflowed) is looked into field by field."""
    if not math.isfinite(_sum(list(vars(obj).values())[first:])):
        for name, value in list(vars(obj).items())[first:]:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")


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
        """Raise ValueError for the first non-finite or out-of-range field;
        the message starts with the field's name."""
        _refuse_non_finite(self, first=1)  # every field after the name
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
        _refuse_non_finite(self)
        for name in ("a4", "beta_crowd", "beta_co2", "rho_comm", "rho_over",
                     "rho_e", "delta", "alpha_g"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


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


def schedule_steps(sites, schedule: dict, steps: int) -> list:
    """Per year step, one tuple of site values per ``SCHEDULE_FIELDS``
    field: the schedule's entry at that step, else the site's own value.
    It owns the schedule's types and rules: a site's entry is a map, and a
    field's a list, tuple or array of finite numbers (every one, also past
    ``steps``; no strings or booleans), at least ``steps`` long, with
    marketing >= 0 where used.  Each message starts with the ``<site>`` or
    ``<site>.<field>`` it names."""
    names = [s.name for s in sites]
    scheduled = {}  # (site, field) -> the values of the year steps
    for name, entry in (schedule or {}).items():
        if name not in names:
            raise DataError(f"{name} names no site")
        if not isinstance(entry, dict):
            raise DataError(f"{name} must be a map of per-year lists, not {entry!r}")
        for fld, seq in entry.items():
            if fld not in SCHEDULE_FIELDS:
                raise DataError(f"{name}.{fld} is not one of {SCHEDULE_FIELDS}")
            try:  # float() would also read a numeric string and a boolean
                kinds, values = set(map(type, seq)) - {float, int}, list(map(float, seq))
            except (TypeError, ValueError, OverflowError):  # OverflowError: an int past floats
                kinds = {object}  # no sequence of numbers
            # the sum screens the values; it may also overflow, so check each on a hit
            if (not isinstance(seq, (list, tuple, np.ndarray))
                    or (kinds and not all(issubclass(k, Real) and k is not bool for k in kinds))
                    or (not math.isfinite(_sum(values)) and not all(map(math.isfinite, values)))):
                raise ValueError(f"{name}.{fld} must be a list of finite numbers")
            if len(values) < steps:
                raise DataError(f"{name}.{fld} too short (need index {len(values)})")
            values = scheduled[name, fld] = values[:steps]
            if fld == "marketing" and any(v < 0 for v in values):
                raise ValueError(f"{name}.{fld} must be >= 0")
    columns = [list(zip(*[scheduled.get((s.name, fld)) or [getattr(s, fld)] * steps
                          for s in sites])) for fld in SCHEDULE_FIELDS]
    return list(zip(*columns))


def redistribute(sites, params: IslandParams, schedule: dict, years) -> FlowResult:
    """Run the yearly redistribution loop over the given calendar years.

    ``schedule`` maps site name -> {field -> per-year sequence} for any of
    ``SCHEDULE_FIELDS``; a missing field keeps the site's initial value.
    The transition into year t+1 uses the schedule entry at the index of
    year t.  Every input check runs before the first year step; the
    schedule's are :func:`schedule_steps`'s, raised with "schedule for "
    before the message.  An attractiveness exponent beyond +-500 is a
    ValueError naming the site and year.
    """
    sites = list(sites)
    years = [int(y) for y in years]
    if len(years) < 1:
        raise DataError("need at least one year")
    if not sites:
        raise DataError("need at least one site")
    params.validate()
    for s in sites:
        try:
            s.validate()
        except ValueError as e:
            raise ValueError(f"{s.name}: {e}") from None
    p, n, steps = params, len(sites), len(years) - 1
    capacity, population = [s.capacity for s in sites], [s.population for s in sites]
    cap = np.asarray(capacity, dtype=float)
    env, sat = [s.env_index for s in sites], [s.satisfaction for s in sites]
    visitors, env_out, sat_out = (np.zeros((n, steps + 1)) for _ in range(3))
    weights, totals = np.zeros((n, steps)), np.zeros(steps + 1)
    visitors[:, 0], env_out[:, 0], sat_out[:, 0] = [s.visitors for s in sites], env, sat
    total = totals[0] = float(_sum(s.visitors for s in sites))
    try:
        controls = schedule_steps(sites, schedule, steps)
    except (DataError, ValueError) as e:
        raise type(e)(f"schedule for {e}") from None
    for t, (mk, pr, fe, fc, c2) in enumerate(controls):
        total = max(0.0, total * (1.0 + p.phi * (_sum(pr) / n + _sum(env) / n - 1.5))
                    + p.dev_boost)
        scores = []
        for i in range(n):
            x = (p.a0 + p.a1 * env[i] + p.a2 * sat[i] + p.a3 * math.log1p(mk[i])
                 - p.a4 * pr[i])
            if abs(x) > 500.0:  # exp would overflow/underflow
                raise ValueError(f"attractiveness exponent {x:g} out of range for "
                                 f"{sites[i].name} in {years[t]}")
            scores.append(math.exp(x))
        a = np.asarray(scores, dtype=float)
        w = a / a.sum()
        v = np.minimum(w * total, cap)  # overflow above capacity is lost
        for i, vi in enumerate(v.tolist()):
            e = _clamp01(env[i] + p.alpha_g * fe[i] - p.beta_crowd * vi / capacity[i]
                         - p.beta_co2 * c2[i] + p.delta * (1.0 - env[i]))
            sat[i] = _clamp01(sat[i] + p.rho_comm * fc[i] - p.rho_over * vi / population[i]
                              + p.rho_e * (e - sat[i]))
            env[i] = e
        visitors[:, t + 1], env_out[:, t + 1], sat_out[:, t + 1] = v, env, sat
        weights[:, t], totals[t + 1] = w, total
    return FlowResult(years=years, site_names=[s.name for s in sites],
                      visitors=visitors, env=env_out, sat=sat_out,
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


def constant_schedule(sites, years) -> dict:
    """Hold every site's controls at their current values."""
    n = len(list(years))
    return {s.name: {fld: [getattr(s, fld)] * n for fld in SCHEDULE_FIELDS} for s in sites}


HOTSPOTS = ("Blue Lagoon", "Vatnajokull", "Golden Circle")


def iceland_redistribution_schedule(sites, years) -> dict:
    """Marketing shifts from hotspots to quiet sites over the window,
    hotspot prices rise (dynamic pricing), and quiet sites receive growing
    environment/community funds as their load builds."""
    n = len(list(years))
    ramp = np.linspace(0.0, 1.0, max(n, 2))[:n]
    out = {}
    for s in sites:
        marketing = s.marketing + (2.0 - s.marketing) * ramp  # toward 2.0 at every site
        if s.name in HOTSPOTS:
            price = s.price + 0.2 * ramp
            env_fund = np.full(n, 5e5)
            community_fund = np.full(n, 2e5)
        else:
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
