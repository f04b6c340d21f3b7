"""Budget-allocation scenario engine.

Each year's net surplus is split across four channels -- environment,
infrastructure, community, marketing -- and fed back into the dynamics:
environment money joins next year's protection budget, infrastructure
permanently raises effective capacity, community programs lift
satisfaction immediately, and marketing adds to next year's baseline
demand.  Negative-surplus years allocate nothing.

The feedback is step 5 of the one year loop that ``sd_core.simulate``
runs, so a zero allocation equals the plain run by construction.  This
module holds the allocation and feedback parameters and lines scenario
runs up.

Allocation vectors whose shares sum above 1 are scaled down to sum 1
before a run (a surplus cannot be over-spent); the scaling is recorded on
the result so reports can show it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sd_core import (
    ChannelAmounts,
    ExogenousSeries,
    ModelCoefficients,
    PolicyVector,
    SimState,
    Trajectory,
    allocate_surplus,
    simulate,
)

__all__ = [
    "AllocationPolicy",
    "FeedbackCoefficients",
    "ChannelAmounts",
    "ScenarioResult",
    "DEFAULT_SCENARIOS",
    "allocate_surplus",
    "run_scenario",
    "compare_scenarios",
]


@dataclass(frozen=True)
class AllocationPolicy:
    """Shares of the annual surplus routed to each feedback channel."""

    name: str
    theta_env: float
    theta_infra: float
    theta_community: float
    theta_marketing: float

    def __post_init__(self):
        for f in ("theta_env", "theta_infra", "theta_community", "theta_marketing"):
            v = getattr(self, f)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f} = {v} outside [0, 1]")

    def total(self) -> float:
        return (self.theta_env + self.theta_infra
                + self.theta_community + self.theta_marketing)

    def normalized(self) -> tuple:
        """Scaled copy summing to at most 1, plus the scale applied.

        Vectors already summing to <= 1 come back unchanged (scale 1).
        """
        s = self.total()
        if s <= 1.0 or s == 0.0:
            return self, 1.0
        return AllocationPolicy(
            self.name,
            self.theta_env / s,
            self.theta_infra / s,
            self.theta_community / s,
            self.theta_marketing / s,
        ), 1.0 / s


@dataclass(frozen=True)
class FeedbackCoefficients:
    """How channel dollars turn into model quantities.

    infra_efficiency      visitors of capacity gained per USD
    marketing_efficiency  extra baseline demand (visitors) per USD
    community_efficiency  satisfaction gain per USD, applied with a (1-S)
                          saturation; environment money needs no
                          coefficient here, it reuses the core spending
                          effectiveness.
    """

    infra_efficiency: float = 0.03
    marketing_efficiency: float = 0.02
    community_efficiency: float = 5e-9

    def __post_init__(self):
        for f in ("infra_efficiency", "marketing_efficiency", "community_efficiency"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")


# the four canonical comparison scenarios
DEFAULT_SCENARIOS = (
    AllocationPolicy("Environment First", 0.7, 0.1, 0.1, 0.2),
    AllocationPolicy("Balanced Growth", 0.3, 0.25, 0.25, 0.25),
    AllocationPolicy("Infrastructure-Led", 0.3, 0.6, 0.1, 0.0),
    AllocationPolicy("Community Focus", 0.2, 0.2, 0.6, 0.3),
)


@dataclass
class ScenarioResult:
    name: str
    trajectory: Trajectory
    allocation: AllocationPolicy    # as run (normalized if needed)
    normalization_scale: float      # 1.0 when no scaling was applied
    channel_spend: list             # ChannelAmounts per transition year
    effective_capacity: list        # effective cap per transition year

    def objectives(self):
        return self.trajectory.objectives()


def run_scenario(alloc: AllocationPolicy, policy: PolicyVector,
                 exog: ExogenousSeries, coeffs: ModelCoefficients,
                 init: SimState,
                 feedback: FeedbackCoefficients | None = None) -> ScenarioResult:
    """Simulate with surplus allocation feeding back each year.

    One ``sd_core.simulate`` call with the normalized allocation, so an
    all-zero allocation reproduces the plain simulation bit-for-bit.
    """
    fb = feedback if feedback is not None else FeedbackCoefficients()
    used, scale = alloc.normalized()
    traj, _ = simulate(policy, exog, coeffs, init, used, fb)
    return ScenarioResult(alloc.name, traj, used, scale, traj.channel_spend,
                          traj.effective_capacity)


def compare_scenarios(allocs, policy: PolicyVector, exog: ExogenousSeries,
                      coeffs: ModelCoefficients, init: SimState,
                      feedback: FeedbackCoefficients | None = None) -> dict:
    """Run each scenario on the same base and align the outputs.

    Returns {"results": [ScenarioResult...],
             "rows": long-format (scenario, year, variable, value) tuples,
             "summary": per-scenario dict with f1/f2/f3 and scaling}.
    """
    allocs = list(allocs)
    if not allocs:
        raise ValueError("need at least one scenario")
    results = [run_scenario(a, policy, exog, coeffs, init, feedback)
               for a in allocs]
    rows = []
    for res in results:
        tr = res.trajectory
        for i, year in enumerate(tr.years):
            st = tr.states[i]
            rows.append((res.name, int(year), "visitors", st.visitors))
            rows.append((res.name, int(year), "env_index", st.env_index))
            rows.append((res.name, int(year), "satisfaction", st.satisfaction))
            if i > 0:
                rows.append((res.name, int(year), "net_revenue", tr.r_net[i - 1]))
    summary = []
    for res in results:
        f1, f2, f3 = res.objectives()
        summary.append({
            "scenario": res.name,
            "f1": f1,
            "f2": f2,
            "f3": f3,
            "theta_scale": res.normalization_scale,
        })
    return {"results": results, "rows": rows, "summary": summary}
