"""flowfit: macroscopic traffic modelling calibrated against traffic counts.

Pipeline: trip generation from zonal attributes, gravity distribution with
Furness balancing, shortest-path assignment with optional MSA congestion
feedback, GEH scoring against observed counts, and derivative-free
calibration of the per-stratum weights (mu, beta).
"""

from .assignment import (
    AssignmentResult,
    assign,
    assign_all_or_nothing,
    assign_iterative,
)
from .calibrate import (
    CalibrationResult,
    ModelObjective,
    WeightVector,
    calibrate,
    nelder_mead,
    simulated_annealing,
    split_test,
)
from .demand import (
    DemandStratum,
    ODMatrix,
    TripEnds,
    Zone,
    ZoneAttributes,
    derive_jobs,
    deterrence,
    distribute,
    furness_balance,
    seed_matrix,
)
from .metrics import (
    EvaluationReport,
    SplitExperimentResult,
    TrafficCount,
    evaluate,
    geh_from_daily,
    geh_hourly,
    geh_objective,
    report_text,
    split_counts,
)
from .network import (
    CostMatrix,
    Link,
    Network,
    Node,
    PathSet,
    free_flow_times,
    shortest_path_tree,
    validate,
    volume_delay,
)

__version__ = "0.1.0"
