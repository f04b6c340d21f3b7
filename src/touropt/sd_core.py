"""Year-by-year simulation of a tourism economy as four coupled subsystems.

The model advances annual stocks -- visitor volume V, an environment index
E in [0, 1], resident satisfaction S in [0, 1], and cumulative net public
revenue -- under a seven-variable policy (tax rate, environment budget
share, development incentive, visitor capacity, vessel limit, per-visitor
carbon fee, glacier share of the environment budget).

Each simulated year applies, in order:

1. visitors    -- demand scaled by price elasticity and destination
                  attractiveness (glacier condition, E, S), capped by
                  capacity and vessel limits, cut by social resistance
                  when satisfaction is below threshold;
2. finance     -- tourism levies plus baseline budget, an environment
                  appropriation, and the year's net surplus;
3. environment -- protection spending (split between glacier works and
                  waste treatment), degradation from glacier retreat and
                  emissions, natural recovery;
4. social      -- morale gains from visible protection spending, crowding
                  and unemployment pressure, and pull toward the
                  environment index.

With ``allocation`` (shares theta_env/_infra/_community/_marketing) and
``feedback`` (infra_/marketing_/community_efficiency), as held by
``scenario.AllocationPolicy`` and ``FeedbackCoefficients``, ``simulate``
ends each year with:

5. feedback    -- max(0, r_net) is split across the four channels;
                  community money lifts S at once, infrastructure money
                  raises capacity for good, environment and marketing
                  money add to next year's protection budget and demand.

Everything here is a pure function of its inputs: identical inputs give
bit-identical outputs, and many policies can be simulated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DataError

__all__ = [
    "PolicyVector",
    "PolicyBounds",
    "JUNEAU_BOUNDS",
    "ICELAND_BOUNDS",
    "ModelCoefficients",
    "ExogenousSeries",
    "SimState",
    "Trajectory",
    "ObjectiveTriple",
    "FinanceFlows",
    "ChannelAmounts",
    "glacier_factor",
    "attraction_factor",
    "price_factor",
    "step_visitors",
    "step_finance",
    "step_environment",
    "step_social",
    "allocate_surplus",
    "simulate",
]

POLICY_FIELDS = (
    "tax_rate",
    "env_ratio",
    "dev_incentive",
    "capacity_limit",
    "ship_limit",
    "carbon_fee",
    "glacier_ratio",
)


@dataclass(frozen=True)
class PolicyVector:
    """The seven policy levers searched by the optimizer.

    tax_rate        fraction of the base ticket price collected as tax
    env_ratio       fraction of total government revenue spent on environment
    dev_incentive   development push in [0, 1], scales extra demand and grants
    capacity_limit  maximum visitors per year the destination can absorb
    ship_limit      maximum vessel (or flight) slots per year
    carbon_fee      per-visitor emission fee, USD
    glacier_ratio   share of the environment budget devoted to glacier works
    """

    tax_rate: float = 0.0
    env_ratio: float = 0.0
    dev_incentive: float = 0.0
    capacity_limit: float = 4e6
    ship_limit: float = 800.0
    carbon_fee: float = 0.0
    glacier_ratio: float = 0.5

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in POLICY_FIELDS], dtype=float)

    @classmethod
    def from_array(cls, genome) -> "PolicyVector":
        vals = [float(v) for v in genome]
        if len(vals) != len(POLICY_FIELDS):
            raise ValueError(f"expected {len(POLICY_FIELDS)} genes, got {len(vals)}")
        return cls(**dict(zip(POLICY_FIELDS, vals)))


@dataclass(frozen=True)
class PolicyBounds:
    """Per-variable [low, high] box for :class:`PolicyVector`."""

    tax_rate: tuple = (0.0, 0.3)
    env_ratio: tuple = (0.0, 0.5)
    dev_incentive: tuple = (0.0, 1.0)
    capacity_limit: tuple = (1e6, 4e6)
    ship_limit: tuple = (600.0, 800.0)
    carbon_fee: tuple = (0.0, 100.0)
    glacier_ratio: tuple = (0.0, 1.0)

    def lows(self) -> np.ndarray:
        return np.array([getattr(self, f)[0] for f in POLICY_FIELDS], dtype=float)

    def highs(self) -> np.ndarray:
        return np.array([getattr(self, f)[1] for f in POLICY_FIELDS], dtype=float)

    def contains(self, policy: PolicyVector, tol: float = 0.0) -> bool:
        x = policy.to_array()
        return bool(np.all(x >= self.lows() - tol) and np.all(x <= self.highs() + tol))

    def clip(self, genome) -> np.ndarray:
        return np.clip(np.asarray(genome, dtype=float), self.lows(), self.highs())

    def validate(self) -> None:
        lo, hi = self.lows(), self.highs()
        if np.any(lo >= hi):
            bad = [f for f, a, b in zip(POLICY_FIELDS, lo, hi) if a >= b]
            raise ValueError(f"degenerate bounds for {bad}")


JUNEAU_BOUNDS = PolicyBounds()
ICELAND_BOUNDS = PolicyBounds(
    capacity_limit=(1e6, 5e6),
    ship_limit=(500.0, 900.0),
    carbon_fee=(0.0, 120.0),
)


@dataclass(frozen=True)
class ModelCoefficients:
    """Calibration constants of the dynamics.

    alpha, k1, K_gov_dev, alpha_gov_base, S_threshold and R_social carry
    their published values.  The remaining effectiveness / impact
    coefficients are calibration inputs: the defaults below keep a
    zero-policy Juneau run's E and S inside [0.2, 0.9] over the 2008-2024
    horizon and are meant to be overridden per region.

    Units: alpha_g/alpha_w and p_glacier/p_waste are index gain per USD;
    beta1 is index loss per foot of retreat; beta2 per ton of CO2;
    p2 multiplies visitors-per-resident; eps_crowd is a small population
    guard in persons.
    """

    alpha: float = 0.5                  # weight of (E + S - 1) in attractiveness
    k1: float = 100.0                   # carbon-fee normalizer in the price factor
    eps_price: float = -0.5             # price elasticity (negative: fees cut demand)
    kappa: float = 0.2                  # glacier-retreat sensitivity of appeal
    G_retreat_baseline: float = 250.0   # ft/year of retreat regarded as "normal"
    P_visitor_base: float = 100.0       # base ticket price, USD
    P_ship_capacity: float = 5000.0     # visitors per vessel slot
    K_dev: float = 5e4                  # extra visitors per unit dev_incentive
    K_gov_dev: float = 1e5              # USD of grants per unit dev_incentive
    alpha_gov_base: float = 0.3         # tourism-linked share of baseline expenditure
    S_threshold: float = 0.3            # satisfaction floor triggering resistance
    R_social: float = 0.8               # arrival multiplier under resistance
    alpha_g: float = 1.2e-8             # env index gain per USD of glacier works
    alpha_w: float = 1.0e-8             # env index gain per USD of waste treatment
    beta1: float = 8e-5                 # env index loss per ft of retreat
    beta2: float = 2.5e-7               # env index loss per ton of CO2
    delta: float = 0.05                 # natural recovery rate toward E = 1
    p_glacier: float = 4e-9             # satisfaction gain per USD of glacier works
    p_waste: float = 3e-9               # satisfaction gain per USD of waste treatment
    p2: float = 5e-4                    # crowding impact per visitor-per-resident
    p3: float = 0.25                    # pull of the environment index on S
    p4: float = 0.1                     # satisfaction loss per unit unemployment
    eps_crowd: float = 1.0              # denominator guard, persons

    def validate(self) -> None:
        nonneg = (
            "alpha", "kappa", "P_visitor_base", "P_ship_capacity", "K_dev",
            "K_gov_dev", "alpha_gov_base", "S_threshold", "R_social",
            "alpha_g", "alpha_w", "beta1", "beta2", "p_glacier", "p_waste",
            "p2", "p3", "p4",
        )
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ValueError(f"coefficient {name} must be >= 0")
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if self.G_retreat_baseline <= 0:
            raise ValueError("G_retreat_baseline must be > 0")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")
        if self.eps_crowd <= 0:
            raise ValueError("eps_crowd must be > 0")


SERIES_FIELDS = (
    "V_base",
    "R_gov_base",
    "EXP_gov_base",
    "G_retreat",
    "CO2_emission",
    "population",
    "unemployment",
    "S_sat_base",
)


@dataclass(frozen=True)
class ExogenousSeries:
    """Annual baseline series driving the simulation.

    All arrays share the length of ``years``; years are consecutive.
    """

    years: np.ndarray          # calendar years, strictly increasing by 1
    V_base: np.ndarray         # baseline visitor forecast, visitors/year
    R_gov_base: np.ndarray     # baseline government revenue, USD/year
    EXP_gov_base: np.ndarray   # baseline government expenditure, USD/year
    G_retreat: np.ndarray      # glacier retreat, ft/year
    CO2_emission: np.ndarray   # emissions, tons/year
    population: np.ndarray     # residents
    unemployment: np.ndarray   # fraction in [0, 1]
    S_sat_base: np.ndarray     # surveyed baseline satisfaction in [0, 1]

    def __post_init__(self):
        years = np.asarray(self.years)
        object.__setattr__(self, "years", years.astype(int))
        for name in SERIES_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != years.shape:
                raise DataError(f"series {name} length {arr.shape} != years {years.shape}")

    def validate(self) -> None:
        if len(self.years) == 0:
            raise DataError("empty series")
        if len(self.years) > 1 and not np.all(np.diff(self.years) == 1):
            raise DataError("years must increase by exactly 1")
        for name in SERIES_FIELDS:
            arr = getattr(self, name)
            if np.any(~np.isfinite(arr)):
                raise DataError(f"series {name} contains non-finite values")
            if np.any(arr < 0):
                raise DataError(f"series {name} contains negative values")
        for name in ("unemployment", "S_sat_base"):
            arr = getattr(self, name)
            if np.any(arr > 1.0):
                raise DataError(f"series {name} must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.years)

    def with_scaled(self, name: str, factor: float) -> "ExogenousSeries":
        """Copy with one series multiplied by ``factor`` (demand stress etc.)."""
        if name not in SERIES_FIELDS:
            raise KeyError(name)
        return replace(self, **{name: getattr(self, name) * factor})


@dataclass(frozen=True)
class SimState:
    """Stocks at the end of one simulated year."""

    visitors: float
    env_index: float        # clamped to [0, 1]
    satisfaction: float     # clamped to [0, 1]
    net_revenue_cum: float  # running sum of annual net surplus, USD

    def validate(self) -> None:
        if not 0.0 <= self.env_index <= 1.0:
            raise ValueError("env_index outside [0, 1]")
        if not 0.0 <= self.satisfaction <= 1.0:
            raise ValueError("satisfaction outside [0, 1]")
        if self.visitors < 0:
            raise ValueError("visitors must be >= 0")


class ObjectiveTriple(NamedTuple):
    """(cumulative net revenue, final environment index, final satisfaction).

    All three are maximized.  Serialized as f1/f2/f3 in output files.
    """

    revenue: float
    environment: float
    satisfaction: float


class FinanceFlows(NamedTuple):
    """One year of government account flows, USD."""

    r_tourism: float
    r_gov_total: float
    exp_env: float
    exp_gov_total: float
    r_net: float
    r_net_cum: float


class ChannelAmounts(NamedTuple):
    """One year's surplus spending per feedback channel, USD."""

    env: float
    infra: float
    community: float
    marketing: float


@dataclass
class Trajectory:
    """Full time series of a run: one state per year plus annual flows.

    ``states`` has one entry per calendar year covered (the first entry is
    the initial state); the diagnostic lists cover the transitions, so
    their length is ``len(states) - 1``.  ``channel_spend`` (ChannelAmounts)
    and ``effective_capacity`` are filled only by runs with an allocation.
    """

    years: list = field(default_factory=list)
    states: list = field(default_factory=list)
    f_glacier: list = field(default_factory=list)
    f_attraction: list = field(default_factory=list)
    f_price: list = field(default_factory=list)
    r_tourism: list = field(default_factory=list)
    r_gov_total: list = field(default_factory=list)
    exp_env: list = field(default_factory=list)
    exp_gov_total: list = field(default_factory=list)
    r_net: list = field(default_factory=list)
    channel_spend: list = field(default_factory=list)
    effective_capacity: list = field(default_factory=list)

    def final_state(self) -> SimState:
        return self.states[-1]

    def objectives(self) -> ObjectiveTriple:
        last = self.states[-1]
        return ObjectiveTriple(last.net_revenue_cum, last.env_index, last.satisfaction)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def glacier_factor(g_retreat: float, g_baseline: float, kappa: float) -> float:
    """Scenic-appeal multiplier, 1 at baseline retreat, floored at 0."""
    if g_baseline <= 0:
        raise ValueError("g_baseline must be > 0")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    return max(0.0, 1.0 - kappa * (g_retreat / g_baseline - 1.0))


def attraction_factor(env_index: float, satisfaction: float,
                      f_glacier: float, alpha: float) -> float:
    """Composite appeal: (1 + alpha*(E + S - 1)) scaled by glacier appeal."""
    return (1.0 + alpha * (env_index + satisfaction - 1.0)) * f_glacier


def price_factor(eps_price: float, tax_rate: float, carbon_fee: float,
                 k1: float) -> float:
    """Demand response to levies: 1 + eps * (tax + fee/k1).

    May go negative for strong elasticities; the visitor step clamps it
    at 0 before use.
    """
    if k1 <= 0:
        raise ValueError("k1 must be > 0")
    return 1.0 + eps_price * (tax_rate + carbon_fee / k1)


def step_visitors(prev: SimState, exog: ExogenousSeries, t_next: int,
                  policy: PolicyVector, coeffs: ModelCoefficients,
                  v_base_bonus: float = 0.0,
                  capacity_limit: float | None = None) -> tuple:
    """Arrivals for the year being entered (index ``t_next`` of ``exog``).

    Demand = baseline forecast (plus any marketing bonus) scaled by the
    price and attractiveness factors, plus the development push; arrivals
    are then capped by capacity and by whole vessel slots, and cut by the
    social-resistance multiplier when the previous year's satisfaction sat
    below threshold.

    Returns (visitors, f_price, f_glacier, f_attraction).
    """
    if t_next >= len(exog) or t_next < 0:
        raise DataError(f"exogenous data missing for year index {t_next}")
    f_gla = glacier_factor(float(exog.G_retreat[t_next]),
                           coeffs.G_retreat_baseline, coeffs.kappa)
    f_att = attraction_factor(prev.env_index, prev.satisfaction, f_gla, coeffs.alpha)
    f_pr = max(0.0, price_factor(coeffs.eps_price, policy.tax_rate,
                                 policy.carbon_fee, coeffs.k1))
    v_base = float(exog.V_base[t_next]) + v_base_bonus
    v_unconstrained = v_base * f_pr * f_att + policy.dev_incentive * coeffs.K_dev
    # whole vessels only: floor keeps arrivals within ship_limit * capacity
    ship_cap = math.floor(policy.ship_limit) * coeffs.P_ship_capacity
    cap = policy.capacity_limit if capacity_limit is None else capacity_limit
    visitors = min(v_unconstrained, cap, ship_cap)
    if prev.satisfaction < coeffs.S_threshold:
        visitors *= coeffs.R_social
    return max(0.0, visitors), f_pr, f_gla, f_att


def step_finance(v_next: float, exog: ExogenousSeries, t: int,
                 policy: PolicyVector, coeffs: ModelCoefficients,
                 prev_cum: float) -> FinanceFlows:
    """Government accounts for the transition year (exogenous index ``t``)."""
    if v_next < 0:
        raise ValueError("visitor count must be >= 0")
    r_tourism = v_next * (coeffs.P_visitor_base * policy.tax_rate + policy.carbon_fee)
    r_gov_total = float(exog.R_gov_base[t]) + r_tourism \
        + policy.dev_incentive * coeffs.K_gov_dev
    exp_env = policy.env_ratio * r_gov_total
    exp_gov_total = coeffs.alpha_gov_base * float(exog.EXP_gov_base[t]) + exp_env
    r_net = r_gov_total - exp_gov_total
    return FinanceFlows(r_tourism, r_gov_total, exp_env, exp_gov_total,
                        r_net, prev_cum + r_net)


def step_environment(env_index: float, exp_env: float, exog: ExogenousSeries,
                     t: int, policy: PolicyVector,
                     coeffs: ModelCoefficients) -> float:
    """Next year's environment index, clamped to [0, 1].

    The environment budget splits by glacier_ratio into glacier works and
    waste treatment; both act with a (1 - E) saturation, so money matters
    most when the index is low.
    """
    exp_glacier = policy.glacier_ratio * exp_env
    exp_waste = (1.0 - policy.glacier_ratio) * exp_env
    headroom = 1.0 - env_index
    gain = (coeffs.alpha_g * exp_glacier + coeffs.alpha_w * exp_waste) * headroom
    loss = coeffs.beta1 * float(exog.G_retreat[t]) \
        + coeffs.beta2 * float(exog.CO2_emission[t])
    recover = coeffs.delta * headroom
    return _clamp01(env_index + gain - loss + recover)


def step_social(satisfaction: float, env_next: float, v_next: float,
                exp_glacier: float, exp_waste: float, exog: ExogenousSeries,
                t: int, coeffs: ModelCoefficients) -> float:
    """Next year's satisfaction index, clamped to [0, 1].

    Spending on visible protection lifts morale (saturating via 1 - S);
    crowding (visitors per resident) and unemployment depress it; the
    index is also pulled toward the new environment index.
    """
    pop = float(exog.population[t])
    if pop <= 0:
        raise DataError(f"population must be > 0 at year index {t}")
    headroom = 1.0 - satisfaction
    gain = (coeffs.p_glacier * exp_glacier + coeffs.p_waste * exp_waste) * headroom
    crowd = coeffs.p2 * v_next / (pop + coeffs.eps_crowd)
    unemp = coeffs.p4 * float(exog.unemployment[t])
    env_pull = coeffs.p3 * (env_next - satisfaction)
    return _clamp01(satisfaction + gain - crowd - unemp + env_pull)


def allocate_surplus(r_net: float, allocation) -> ChannelAmounts:
    """Channel dollars for one year: max(0, surplus) times each share.

    Plain products of the shares as stored; normalization of over-committed
    vectors happens when a scenario run starts, not here.
    """
    surplus = max(0.0, r_net)
    return ChannelAmounts(
        env=surplus * allocation.theta_env,
        infra=surplus * allocation.theta_infra,
        community=surplus * allocation.theta_community,
        marketing=surplus * allocation.theta_marketing,
    )


def simulate(policy: PolicyVector, exog: ExogenousSeries,
             coeffs: ModelCoefficients, init: SimState,
             allocation=None, feedback=None) -> tuple:
    """Run the full horizon and return (Trajectory, ObjectiveTriple).

    The horizon is the year range of ``exog``: the initial state stands
    for the first year, and one transition is applied per remaining year.
    With ``allocation`` and ``feedback`` each year's surplus feeds back
    into the dynamics (step 5 of the module docstring).
    Deterministic: identical inputs give bit-identical outputs.
    """
    if (allocation is None) != (feedback is None):
        raise ValueError("allocation and feedback must be given together")
    if policy.tax_rate < 0 or policy.carbon_fee < 0 or coeffs.P_visitor_base < 0:
        raise ValueError("tax_rate, carbon_fee and P_visitor_base must be >= 0")
    init.validate()
    traj = Trajectory(years=list(exog.years), states=[init])
    state = init
    capacity, v_base_bonus, extra_env = policy.capacity_limit, 0.0, 0.0
    for t in range(len(exog) - 1):
        visitors, f_pr, f_gla, f_att = step_visitors(
            state, exog, t + 1, policy, coeffs, v_base_bonus, capacity)
        flows = step_finance(visitors, exog, t, policy, coeffs,
                             state.net_revenue_cum)
        # a plain run adds nothing, not even 0.0, so a -0.0 budget stays -0.0
        exp_env = flows.exp_env if allocation is None else flows.exp_env + extra_env
        env_next = step_environment(state.env_index, exp_env, exog, t,
                                    policy, coeffs)
        exp_glacier = policy.glacier_ratio * exp_env
        exp_waste = (1.0 - policy.glacier_ratio) * exp_env
        sat_next = step_social(state.satisfaction, env_next, visitors,
                               exp_glacier, exp_waste, exog, t, coeffs)
        if allocation is not None:
            amounts = allocate_surplus(flows.r_net, allocation)
            sat_next = min(1.0, max(0.0, sat_next + feedback.community_efficiency
                                    * amounts.community * (1.0 - sat_next)))
            capacity = capacity + feedback.infra_efficiency * amounts.infra
            v_base_bonus = feedback.marketing_efficiency * amounts.marketing
            extra_env = amounts.env
            traj.channel_spend.append(amounts)
            traj.effective_capacity.append(capacity)
        state = SimState(visitors, env_next, sat_next, flows.r_net_cum)
        traj.states.append(state)
        traj.f_glacier.append(f_gla)
        traj.f_attraction.append(f_att)
        traj.f_price.append(f_pr)
        traj.r_tourism.append(flows.r_tourism)
        traj.r_gov_total.append(flows.r_gov_total)
        traj.exp_env.append(exp_env)
        traj.exp_gov_total.append(flows.exp_gov_total)
        traj.r_net.append(flows.r_net)
    return traj, traj.objectives()
