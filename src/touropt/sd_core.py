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

Each stage is written once, as a private helper that runs on Python
floats or on numpy arrays of runs, and one private year loop runs them in
order.  ``simulate`` runs the loop on floats and records the full
:class:`Trajectory` year by year; ``simulate_batch`` runs it on arrays,
vectorised over runs that override any policy or coefficient field row by
row, and returns only the objectives, bit for bit those of ``simulate``.
Terms fixed by the policy and the coefficients are computed once per run
(``simulate``) or per block of rows (``simulate_batch``) by one helper that
both share.

Everything here is a pure function of its inputs: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
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
    "ChannelAmounts",
    "allocate_surplus",
    "simulate",
    "simulate_batch",
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

    The library does not range-check the levers: ``PolicyVector(
    capacity_limit=-5)`` is accepted, and ``simulate`` rejects only a
    negative tax rate or carbon fee and a non-finite vessel limit.  The CLI
    is the boundary that rejects any negative or non-finite lever, in
    ``policy`` and in ``space`` bounds alike; ``validate`` holds its
    range, and nothing in the library calls it.
    """

    tax_rate: float = 0.0
    env_ratio: float = 0.0
    dev_incentive: float = 0.0
    capacity_limit: float = 4e6
    ship_limit: float = 800.0
    carbon_fee: float = 0.0
    glacier_ratio: float = 0.5

    def validate(self) -> None:
        """Raise ValueError for the first negative lever; the message starts
        with the field's name."""
        for name in POLICY_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

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
        """Raise ValueError for the first out-of-range field; the message
        starts with the field's name."""
        nonneg = (
            "alpha", "kappa", "P_visitor_base", "P_ship_capacity", "K_dev",
            "K_gov_dev", "alpha_gov_base", "S_threshold", "R_social",
            "alpha_g", "alpha_w", "beta1", "beta2", "p_glacier", "p_waste",
            "p2", "p3", "p4",
        )
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if self.G_retreat_baseline <= 0:
            raise ValueError("G_retreat_baseline must be > 0")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")
        if self.eps_crowd <= 0:
            raise ValueError("eps_crowd must be > 0")


COEFF_FIELDS = tuple(ModelCoefficients.__dataclass_fields__)

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


# The year equations below are written once, as private stage helpers that
# run on Python floats or, row by row, on numpy arrays.  On arrays a stage
# makes one fresh temporary and goes on in place, with augmented operations;
# its branches are masked writes into it under strict comparisons (_put,
# _pos, _clip01), and the pure _where, _max and _min serve values a caller
# does not own.  Python's max(a, b) keeps ``a`` unless ``b > a``,
# so NaN, -0.0 and ties resolve the same way on floats and arrays.

# Rows per simulate_batch block.  The rows are independent, so the block
# size changes no bits, only speed: a year step makes about 60 numpy calls
# per block, so small blocks are bound by call overhead and large ones
# spill their temporaries out of L2.  Both presets' Sobol designs (n=512)
# ran at 4096 rows as fast as at 5000, 6656 or 8192, and 1.4x faster than
# at 2048 (interleaved medians of 25, 2 vCPU, 4 MiB L2 per core).
_BLOCK = 4096
_DRIVERS = ("G_retreat", "V_base", "R_gov_base", "EXP_gov_base",
            "CO2_emission", "population", "unemployment")


def _where(cond, a, b):
    """``a if cond else b``, row by row when ``cond`` is an array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _max(a, b):
    """Python's ``max(a, b)``: ``b`` only where ``b > a``."""
    return _where(b > a, b, a)


def _min(a, b):
    """Python's ``min(a, b)``: ``b`` only where ``b < a``."""
    return _where(b < a, b, a)


def _floor(x):
    """Whole units as a float; -0.0 becomes 0.0, as through ``math.floor``.

    On floats NaN raises ValueError and infinity OverflowError.
    """
    if isinstance(x, np.ndarray):
        return np.floor(x) + 0.0
    return float(math.floor(x))


def _put(x, value, cond):
    """``_where(cond, value, x)``, into ``x`` when it is an owned array."""
    if not isinstance(x, np.ndarray):
        return _where(cond, value, x)
    np.copyto(x, value, where=cond)
    return x


def _pos(x):
    """``_max(0.0, x)``, into ``x`` when it is an owned array."""
    if not isinstance(x, np.ndarray):
        return x if x > 0.0 else 0.0
    x[~(x > 0.0)] = 0.0
    return x


def _clip01(x):
    """``x`` clamped to [0, 1], into ``x`` when it is an owned array."""
    if not isinstance(x, np.ndarray):
        return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)
    x[x < 0.0] = 0.0
    x[x > 1.0] = 1.0
    return x


def _glacier(g_retreat, g_baseline, kappa):
    return _pos(1.0 - kappa * (g_retreat / g_baseline - 1.0))


def _attraction(env_index, satisfaction, f_glacier, alpha):
    a = env_index + satisfaction
    a -= 1.0
    a *= alpha
    a += 1.0
    a *= f_glacier
    return a


def _price(eps_price, tax_rate, carbon_fee, k1):
    return 1.0 + eps_price * (tax_rate + carbon_fee / k1)


class _Run(NamedTuple):
    """Terms of the year equations fixed by the policy and the coefficients."""

    f_price: float        # max(0, price factor)
    ship_cap: float       # whole vessel slots times visitors per slot
    dev_visitors: float   # dev_incentive * K_dev
    levy: float           # USD per visitor: P_visitor_base * tax_rate + carbon_fee
    dev_grants: float     # dev_incentive * K_gov_dev
    env_ratio: float
    glacier_ratio: float
    waste_ratio: float    # 1 - glacier_ratio


def _run_constants(p, c) -> _Run:
    """The :class:`_Run` terms of policy ``p`` under coefficients ``c``.

    Computed once per run on floats and once per block on arrays, with the
    operations and operands the year equations used, so the bits are those
    of the per-year terms.
    """
    return _Run(_pos(_price(c.eps_price, p.tax_rate, p.carbon_fee, c.k1)),
                # whole vessels only: floor keeps arrivals within ship_limit * capacity
                _floor(p.ship_limit) * c.P_ship_capacity,
                p.dev_incentive * c.K_dev,
                c.P_visitor_base * p.tax_rate + p.carbon_fee,
                p.dev_incentive * c.K_gov_dev, p.env_ratio, p.glacier_ratio,
                1.0 - p.glacier_ratio)


def _visitors(env, sat, g_retreat, v_base, v_base_bonus, cap, run, c) -> tuple:
    """Stage 1: (visitors, f_price, f_glacier, f_attraction) of the year entered."""
    f_gla = _glacier(g_retreat, c.G_retreat_baseline, c.kappa)
    f_att = _attraction(env, sat, f_gla, c.alpha)
    # the bonus is added even when it is 0.0: that turns a -0.0 demand into 0.0
    v = (v_base + v_base_bonus) * run.f_price
    v *= f_att
    v += run.dev_visitors
    v = _put(v, cap, cap < v)
    v = _put(v, run.ship_cap, run.ship_cap < v)
    v = _put(v, v * c.R_social, sat < c.S_threshold)
    return _pos(v), run.f_price, f_gla, f_att


def _finance(v, r_gov_base, exp_gov_base, run, c, prev_cum) -> tuple:
    """Stage 2: (r_tourism, r_gov_total, exp_env, exp_gov_total, r_net,
    cumulative r_net), USD."""
    r_tourism = v * run.levy
    r_gov_total = r_gov_base + r_tourism + run.dev_grants
    exp_env = run.env_ratio * r_gov_total
    exp_gov_total = c.alpha_gov_base * exp_gov_base + exp_env
    r_net = r_gov_total - exp_gov_total
    return r_tourism, r_gov_total, exp_env, exp_gov_total, r_net, prev_cum + r_net


def _environment(env, exp_env, g_retreat, co2, run, c) -> tuple:
    """Stage 3: (next E, glacier works spend, waste treatment spend)."""
    exp_glacier = run.glacier_ratio * exp_env
    exp_waste = run.waste_ratio * exp_env
    headroom = 1.0 - env
    e = c.alpha_g * exp_glacier + c.alpha_w * exp_waste
    e *= headroom
    e += env
    e -= c.beta1 * g_retreat + c.beta2 * co2
    headroom *= c.delta
    e += headroom
    return _clip01(e), exp_glacier, exp_waste


def _social(sat, env_next, v, exp_glacier, exp_waste, pop, unemployment, c):
    """Stage 4: next S."""
    s = c.p_glacier * exp_glacier + c.p_waste * exp_waste
    s *= 1.0 - sat
    s += sat
    s -= c.p2 * v / (pop + c.eps_crowd)
    s -= c.p4 * unemployment
    s += c.p3 * (env_next - sat)
    return _clip01(s)


def _feedback(r_net, sat, capacity, allocation, feedback) -> tuple:
    """Stage 5: (ChannelAmounts, lifted S, new capacity, next year's demand bonus)."""
    amounts = allocate_surplus(r_net, allocation)
    sat = _min(1.0, _max(0.0, sat + feedback.community_efficiency
                         * amounts.community * (1.0 - sat)))
    capacity = capacity + feedback.infra_efficiency * amounts.infra
    return amounts, sat, capacity, feedback.marketing_efficiency * amounts.marketing


def allocate_surplus(r_net: float, allocation) -> ChannelAmounts:
    """Channel dollars for one year: max(0, surplus) times each share.

    Plain products of the shares as stored; normalization of over-committed
    vectors happens when a scenario run starts, not here.
    """
    surplus = _max(0.0, r_net)
    return ChannelAmounts(
        env=surplus * allocation.theta_env,
        infra=surplus * allocation.theta_infra,
        community=surplus * allocation.theta_community,
        marketing=surplus * allocation.theta_marketing,
    )


def _years(exog, run, c, env, sat, cum, capacity, allocation=None,
           feedback=None, record=None) -> tuple:
    """The year loop: stages 1-5 over the horizon of ``exog``.

    Runs on Python floats or on arrays of rows alike, from the initial E,
    S, cumulative revenue and capacity, and returns the final (E, S,
    cumulative revenue).  Stage 5 runs only with an ``allocation``.  After
    each year ``record(stage1, flows, exp_env, env, sat, amounts,
    capacity)`` gets the tuples of :func:`_visitors` and :func:`_finance`,
    the environment budget spent, the new E and S, the ChannelAmounts (None
    without an allocation) and the capacity for the next year.
    """
    g_retreat, v_base, r_gov, exp_gov, co2, pop, unemp = (
        getattr(exog, name).tolist() for name in _DRIVERS)
    v_base_bonus = extra_env = 0.0
    amounts = None
    for t in range(len(pop) - 1):
        stage1 = _visitors(env, sat, g_retreat[t + 1], v_base[t + 1], v_base_bonus,
                           capacity, run, c)
        flows = _finance(stage1[0], r_gov[t], exp_gov[t], run, c, cum)
        exp_env = flows[2]
        if allocation is not None:
            # a plain run adds nothing, not even 0.0, so a -0.0 budget stays -0.0
            exp_env = exp_env + extra_env
        env_next, exp_glacier, exp_waste = _environment(
            env, exp_env, g_retreat[t], co2[t], run, c)
        if pop[t] <= 0:
            raise DataError(f"population must be > 0 at year index {t}")
        sat = _social(sat, env_next, stage1[0], exp_glacier, exp_waste, pop[t],
                      unemp[t], c)
        if allocation is not None:
            amounts, sat, capacity, v_base_bonus = _feedback(
                flows[4], sat, capacity, allocation, feedback)
            extra_env = amounts.env
        env, cum = env_next, flows[5]
        if record is not None:
            record(stage1, flows, exp_env, env, sat, amounts, capacity)
    return env, sat, cum


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
    run = None
    if len(exog) > 1:
        # the visitor stage's coefficient checks and the run's constant
        # terms, once: they hold for every year
        if coeffs.G_retreat_baseline <= 0:
            raise ValueError("g_baseline must be > 0")
        if coeffs.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if coeffs.k1 <= 0:
            raise ValueError("k1 must be > 0")
        run = _run_constants(policy, coeffs)
    traj = Trajectory(years=list(exog.years), states=[init])

    def record(stage1, flows, exp_env, env, sat, amounts, capacity):
        visitors, f_pr, f_gla, f_att = stage1
        r_tourism, r_gov_total, _, exp_gov_total, r_net, cum = flows
        if amounts is not None:
            traj.channel_spend.append(amounts)
            traj.effective_capacity.append(capacity)
        traj.states.append(SimState(visitors, env, sat, cum))
        traj.f_glacier.append(f_gla)
        traj.f_attraction.append(f_att)
        traj.f_price.append(f_pr)
        traj.r_tourism.append(r_tourism)
        traj.r_gov_total.append(r_gov_total)
        traj.exp_env.append(exp_env)
        traj.exp_gov_total.append(exp_gov_total)
        traj.r_net.append(r_net)

    _years(exog, run, coeffs, init.env_index, init.satisfaction,
           init.net_revenue_cum, policy.capacity_limit, allocation, feedback, record)
    return traj, traj.objectives()


def _raise_first_failure(policy, coeffs, exog, init, rows: dict, n: int) -> None:
    """Raise what ``simulate`` raises on the first failing row, if any.

    Only rows that may fail -- a bad input the checks look at, or a
    negative ``eps_crowd`` that can zero the crowding denominator -- are
    run through ``simulate`` to find out.  A bad initial state or
    population fails every row, so the first row then reports.
    """
    def value(name, owner):
        return rows.get(name, getattr(owner, name))

    maybe = ((value("tax_rate", policy) < 0) | (value("carbon_fee", policy) < 0)
             | (value("P_visitor_base", coeffs) < 0))
    if len(exog) > 1:
        maybe = (maybe | (value("G_retreat_baseline", coeffs) <= 0)
                 | (value("kappa", coeffs) < 0) | (value("k1", coeffs) <= 0)
                 | ~np.isfinite(value("ship_limit", policy))
                 | (value("eps_crowd", coeffs) < 0))
    try:
        init.validate()
        shared = len(exog) > 1 and bool(np.any(exog.population[:-1] <= 0))
    except ValueError:
        shared = True
    suspects = range(min(n, 1)) if shared else np.flatnonzero(
        np.broadcast_to(maybe, (n,)))
    for i in suspects:
        one = {name: float(col[i]) for name, col in rows.items()}
        simulate(replace(policy, **{k: v for k, v in one.items() if k in POLICY_FIELDS}),
                 exog,
                 replace(coeffs, **{k: v for k, v in one.items() if k not in POLICY_FIELDS}),
                 init)


def simulate_batch(policy: PolicyVector, exog: ExogenousSeries,
                   coeffs: ModelCoefficients, init: SimState,
                   rows: dict) -> np.ndarray:
    """Objectives of N runs at once, as an (N, 3) float64 array of f1, f2, f3.

    ``rows`` maps :class:`PolicyVector` or :class:`ModelCoefficients`
    field names to (N,) arrays; row i overrides those fields of ``policy``
    and ``coeffs``.  The year loop of ``simulate`` runs on arrays of
    ``_BLOCK`` rows, so row i holds the bits of ``simulate``'s
    ObjectiveTriple for the same inputs.  Errors are those
    ``simulate`` raises on the first row that fails.  No allocation
    feedback and no trajectory: use ``simulate`` for those.
    """
    rows = {name: np.asarray(col, dtype=float) for name, col in rows.items()}
    unknown = sorted(set(rows) - set(POLICY_FIELDS) - set(COEFF_FIELDS))
    if unknown:
        raise ValueError(f"unknown row fields {unknown}")
    shapes = {col.shape for col in rows.values()}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise ValueError(f"rows must be 1-D arrays of one length, got shapes {sorted(shapes)}")
    n = shapes.pop()[0]
    _raise_first_failure(policy, coeffs, exog, init, rows, n)
    out = np.empty((n, 3))
    for lo in range(0, n, _BLOCK):
        block = {name: col[lo:lo + _BLOCK] for name, col in rows.items()}
        p = SimpleNamespace(**{f: block.get(f, getattr(policy, f)) for f in POLICY_FIELDS})
        c = SimpleNamespace(**{f: block.get(f, getattr(coeffs, f)) for f in COEFF_FIELDS})
        # overflow to inf and inf - inf = NaN pass silently, as on floats
        with np.errstate(all="ignore"):
            run = _run_constants(p, c) if len(exog) > 1 else None
            env, sat, cum = _years(exog, run, c, init.env_index, init.satisfaction,
                                   init.net_revenue_cum, p.capacity_limit)
        chunk = out[lo:lo + _BLOCK]
        chunk[:, 0], chunk[:, 1], chunk[:, 2] = cum, env, sat
    return out
