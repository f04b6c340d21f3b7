"""Decision toolkit for sustainable tourism policy.

A deterministic system-dynamics core (visitors, finance, environment,
community satisfaction) plus the machinery around it: NSGA-II
multi-objective policy search, Morris/Sobol global sensitivity analysis,
budget-allocation scenario runs, and a multi-attraction visitor
redistribution model.  See the demos/ directory for narrative walkthroughs
and the ``touropt`` command for batch runs.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, EvaluationError, TouroptError
from .sd_core import (
    ICELAND_BOUNDS,
    JUNEAU_BOUNDS,
    POLICY_FIELDS,
    ExogenousSeries,
    ModelCoefficients,
    ObjectiveTriple,
    PolicyBounds,
    PolicyVector,
    SimState,
    Trajectory,
    simulate,
    simulate_batch,
)
from .moea import EAConfig, EvolveResult, Individual, ParetoFront, evolve, hypervolume_3d
from .gsa import (
    AnalysisReport,
    MorrisResult,
    ParameterSpace,
    SobolResult,
    analyze_model,
    full_space,
    morris_indices,
    morris_sample,
    saltelli_sample,
    sobol_indices,
    uncertainty_space,
)
from .scenario import (
    DEFAULT_SCENARIOS,
    AllocationPolicy,
    FeedbackCoefficients,
    ScenarioResult,
    allocate_surplus,
    compare_scenarios,
    run_scenario,
)
from .flow import (
    FlowResult,
    IslandParams,
    SiteState,
    iceland_redistribution_schedule,
    iceland_sites,
    redistribute,
)
from .dataio import (
    PRESETS,
    RegionPreset,
    get_preset,
    initial_state,
    read_series,
    synth_dataset,
    validate_ranges,
    write_series,
)
