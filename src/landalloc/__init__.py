"""Multi-objective land-use allocation: model, engines, indicators, harness."""

from .engines import (
    ALGORITHMS,
    EngineConfig,
    Population,
    RelaxationSchedule,
    RunRecord,
    apply_relaxation_phase,
    crowding_distance,
    fast_non_dominated_sort,
    run_engine,
)
from .instance_io import (
    GeneratorSpec,
    generate_synthetic,
    instance_from_dict,
    instance_to_json,
    load_instance,
    parse_instance,
    save_instance,
)
from .metrics import (
    NormalizationBounds,
    gd,
    gd_plus,
    hypervolume_2d,
    igd,
    igd_plus,
    indicator_suite,
    normalize,
    pareto_filter,
)
from .model import (
    LandUse,
    Plot,
    ProblemInstance,
)
from .operators import OperatorConfig
from .stats import (
    CldAssignment,
    PairwiseResult,
    SampleGroup,
    compact_letter_display,
    dunn_posthoc,
    kruskal_wallis,
)

__version__ = "0.1.0"
