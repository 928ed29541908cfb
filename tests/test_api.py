"""The package's public names.  ``minla/__init__.py`` star-imports each
listed module and exports the union of their ``__all__`` lists, so a name
added to or dropped from one of those lists changes the package's API;
this test pins it."""

import sys

import minla

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
