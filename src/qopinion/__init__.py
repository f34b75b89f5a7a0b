"""Qubit opinion-state toolkit.

Models yes/no judgments as measurements of non-commuting two-outcome
observables on a single qubit, detects conjunction-fallacy effects as
interference corrections to the law of total probability, and provides
parameter sweeps, seeded population Monte Carlo, a small experiment
language and a CLI.

Every public name, and every module that defines one, is imported on first
access through the module ``__getattr__`` below (PEP 562), so
``import qopinion`` loads no submodule and the scalar names never load
numpy, which only the array and crowd modules need.
"""

import importlib as _importlib

# The public names, each under the module that defines it.
_HOMES = {
    "analysis": ("SweepResult", "sweep_fallacy_map", "uncertainty_sum_minimum"),
    "dsl": ("GridRange",),
    "errors": (
        "ImpossibleOutcomeError", "QOpinionError", "SingularityError", "ValidationError",
    ),
    "fallacy": (
        "DecompositionResult", "FallacyReport", "RegimeClass", "UnderextensionEstimate",
        "classify_regime", "decompose_total_probability", "fallacy_inequalities",
        "fallacy_report", "underextension_estimate",
    ),
    "measurement": (
        "OutcomeStep", "collapse", "consecutive_probability", "mean_value",
        "ordering_flip_probability", "outcome_probability", "sample_answer", "variance",
    ),
    "observables": (
        "BasisRelation", "Question", "change_basis", "commutator_is_zero",
        "compose_relations", "conditional_probability", "eigenvectors_in_reference",
        "from_basis", "relative_relation",
    ),
    "population": (
        "PopulationComponent", "PopulationSpec", "SimulationTable",
        "predicted_fallacy_rate", "simulate_population",
    ),
    "states": (
        "MAXIMALLY_MIXED", "MixedState", "PureState", "density_from_pure", "is_pure",
        "mix", "pure_from_angles",
    ),
}
_MODULES = (
    "analysis", "dsl", "errors", "kernels", "measurement", "observables",
    "population", "states",
)
_HOME = {name: home for home, names in _HOMES.items() for name in names}

__all__ = [*_MODULES, *_HOME]
__version__ = "0.1.0"

# Every home module is an attribute too, fallacy included.
_HOME.update((module, module) for module in (*_MODULES, *_HOMES))


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _importlib.import_module(f".{home}", __name__)
    # Bound here, so later accesses are plain attribute lookups.
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
