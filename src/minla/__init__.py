"""Online minimum linear arrangement over clique and line collections.

Library and CLI for maintaining an optimal node arrangement while a graph is
revealed merge by merge: a deterministic closest-arrangement strategy, a
randomized strategy with exact rational coins, exact offline optima, hard
instance generators, and a seeded Monte Carlo harness.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConfigError,
    InstanceMismatchError,
    InvariantError,
    MinlaError,
    ProtocolError,
    TraceFormatError,
    TraceValidationError,
)
from .perm import Permutation, count_inversions, kendall_tau
from .trace import (
    ComponentPartition,
    Model,
    RevealEvent,
    RevealTrace,
    emit_trace,
    parse_trace,
    validate_trace,
)
from .feasibility import arrangement_cost, is_minla
from .algorithms import (
    AlgoState,
    closest_feasible,
    det_step,
    rand_step,
    run,
    run_trials,
)
from .oracle import (
    OptResult,
    bound_for_trace,
    check_harmonic_bounds,
    check_identity_lemmas,
    dp_opt,
    exhaustive_opt,
    harmonic_number,
    left_right_probability,
    orientation_probability,
)
from .adversaries import (
    MiddleLineAdversary,
    TreeAdversaryConfig,
    random_trace,
    tree_adversary,
)
from .harness import (
    DuelReport,
    Experiment,
    ExperimentConfig,
    TrialStats,
    VerifyReport,
    derive_trial_seed,
    duel,
    run_experiment,
    splitmix64,
    verify_lemma,
)

__all__ = [
    "__version__",
    "MinlaError",
    "InstanceMismatchError",
    "TraceFormatError",
    "TraceValidationError",
    "CapacityError",
    "InvariantError",
    "ProtocolError",
    "ConfigError",
    "Permutation",
    "kendall_tau",
    "count_inversions",
    "Model",
    "RevealEvent",
    "RevealTrace",
    "ComponentPartition",
    "validate_trace",
    "parse_trace",
    "emit_trace",
    "arrangement_cost",
    "is_minla",
    "AlgoState",
    "closest_feasible",
    "det_step",
    "rand_step",
    "run",
    "run_trials",
    "OptResult",
    "dp_opt",
    "exhaustive_opt",
    "left_right_probability",
    "orientation_probability",
    "harmonic_number",
    "check_harmonic_bounds",
    "check_identity_lemmas",
    "bound_for_trace",
    "TreeAdversaryConfig",
    "tree_adversary",
    "MiddleLineAdversary",
    "random_trace",
    "ExperimentConfig",
    "Experiment",
    "TrialStats",
    "run_experiment",
    "VerifyReport",
    "verify_lemma",
    "DuelReport",
    "duel",
    "splitmix64",
    "derive_trial_seed",
]
