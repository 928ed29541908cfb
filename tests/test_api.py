"""The package's public names.  ``minla/__init__.py`` star-imports each
listed module and exports the union of their ``__all__`` lists, so a name
added to or dropped from one of those lists changes the package's API;
this test pins it."""

import re
import sys

import numpy as np
import pytest

import minla
from minla import (
    ComponentPartition,
    ExperimentConfig,
    MiddleLineAdversary,
    Model,
    Permutation,
    TreeAdversaryConfig,
    derive_trial_seed,
    duel,
    harmonic_number,
    random_trace,
    run,
    run_trials,
    tree_adversary,
    verify_lemma,
)

PUBLIC = [
    "AlgoState",
    "CapacityError",
    "ComponentPartition",
    "ConfigError",
    "DuelReport",
    "Experiment",
    "ExperimentConfig",
    "InstanceMismatchError",
    "InvariantError",
    "MiddleLineAdversary",
    "MinlaError",
    "Model",
    "OptResult",
    "Permutation",
    "ProtocolError",
    "RevealEvent",
    "RevealTrace",
    "TraceFormatError",
    "TraceValidationError",
    "TreeAdversaryConfig",
    "TrialStats",
    "VerifyReport",
    "__version__",
    "arrangement_cost",
    "bound_for_trace",
    "check_harmonic_bounds",
    "check_identity_lemmas",
    "closest_feasible",
    "count_inversions",
    "derive_trial_seed",
    "det_step",
    "dp_opt",
    "duel",
    "emit_trace",
    "exhaustive_opt",
    "harmonic_number",
    "is_minla",
    "kendall_tau",
    "left_right_probability",
    "orientation_probability",
    "parse_trace",
    "rand_step",
    "random_trace",
    "run",
    "run_experiment",
    "run_trials",
    "tree_adversary",
    "validate_trace",
    "verify_lemma",
]

REEXPORTED = (
    "errors", "perm", "trace", "algorithms", "oracle",
    "adversaries", "harness",
)


def test_package_exports_exactly_the_public_names():
    assert sorted(minla.__all__) == PUBLIC
    assert len(minla.__all__) == len(set(minla.__all__))
    for name in minla.__all__:
        assert hasattr(minla, name), name


def test_each_reexported_name_is_its_modules_own():
    names = ["__version__"]
    for module_name in REEXPORTED:
        module = sys.modules[f"minla.{module_name}"]
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"
            assert getattr(minla, name) is getattr(module, name), name
        names.extend(module.__all__)
    assert sorted(names) == PUBLIC


_TRACE = random_trace(Model.LINES, 4, seed=1)

# Each public callable that takes an int, by the parameter whose value the
# call passes; every other argument is valid.
INT_PARAMETERS = [
    ("Permutation.identity", "n", lambda v: Permutation.identity(v)),
    ("harmonic_number", "s", lambda v: harmonic_number(v)),
    ("derive_trial_seed", "master_seed", lambda v: derive_trial_seed(v, 0)),
    ("derive_trial_seed", "trial_index", lambda v: derive_trial_seed(0, v)),
    ("random_trace", "n", lambda v: random_trace(Model.LINES, v, seed=0)),
    ("random_trace", "events", lambda v: random_trace(Model.LINES, 4, seed=0, events=v)),
    ("tree_adversary", "q", lambda v: tree_adversary(TreeAdversaryConfig(q=v, seed=0))),
    ("MiddleLineAdversary", "n", lambda v: MiddleLineAdversary(v)),
    ("duel", "n", lambda v: duel(v)),
    ("ComponentPartition", "n", lambda v: ComponentPartition(v, Model.LINES)),
    ("ExperimentConfig", "trials", lambda v: ExperimentConfig(_TRACE, "x", "rand", v, 0)),
    ("ExperimentConfig", "master_seed",
     lambda v: ExperimentConfig(_TRACE, "x", "rand", 1, v)),
    ("verify_lemma", "trials", lambda v: verify_lemma("harmonic", trials=v, seed=0)),
    ("verify_lemma", "seed", lambda v: verify_lemma("harmonic", trials=1_000, seed=v)),
    ("run", "seed", lambda v: run("rand", _TRACE, v)),
    ("run_trials", "seed", lambda v: list(run_trials(_TRACE, [v]))),
]


@pytest.mark.parametrize("value", [True, np.int64(1), 1.0], ids=["bool", "numpy", "float"])
@pytest.mark.parametrize("name, parameter, call", INT_PARAMETERS,
                         ids=[f"{name}-{parameter}" for name, parameter, _ in INT_PARAMETERS])
def test_int_parameters_refuse_int_likes(name, parameter, call, value):
    # A bool, a numpy int or a float is refused, not read as the int it
    # equals, and the error names the parameter.
    with pytest.raises(TypeError) as caught:
        call(value)
    assert re.search(rf"\b{parameter}\b", str(caught.value)), str(caught.value)
