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
    MinlaError,
    ProtocolError,
    TraceFormatError,
    TraceValidationError,
)
from .perm import (
    BlockRange,
    Permutation,
    count_inversions,
    kendall_tau,
    move_block,
)
from .trace import (
    ComponentPartition,
    Model,
    RevealEvent,
    RevealTrace,
    emit_trace,
    parse_trace,
    replay_components,
    validate_trace,
)
from .feasibility import arrangement_cost, is_minla
from .algorithms import (
    AlgoState,
    CoinWeights,
    RearrangeCoin,
    StepReport,
    closest_feasible,
    det_step,
    rand_clique_step,
    rand_line_step,
    run,
    steplog_to_jsonl,
)
from .oracle import (
    HarmonicBounds,
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
    "ProtocolError",
    "ConfigError",
    "Permutation",
    "BlockRange",
    "kendall_tau",
    "move_block",
    "count_inversions",
    "Model",
    "RevealEvent",
    "RevealTrace",
    "ComponentPartition",
    "validate_trace",
    "replay_components",
    "parse_trace",
    "emit_trace",
    "arrangement_cost",
    "is_minla",
    "AlgoState",
    "StepReport",
    "CoinWeights",
    "RearrangeCoin",
    "closest_feasible",
    "det_step",
    "rand_clique_step",
    "rand_line_step",
    "run",
    "steplog_to_jsonl",
    "OptResult",
    "dp_opt",
    "exhaustive_opt",
    "left_right_probability",
    "orientation_probability",
    "harmonic_number",
    "HarmonicBounds",
    "check_harmonic_bounds",
    "check_identity_lemmas",
    "bound_for_trace",
    "TreeAdversaryConfig",
    "tree_adversary",
    "MiddleLineAdversary",
    "random_trace",
    "ExperimentConfig",
    "TrialStats",
    "run_experiment",
    "VerifyReport",
    "verify_lemma",
    "DuelReport",
    "duel",
    "splitmix64",
    "derive_trial_seed",
]
