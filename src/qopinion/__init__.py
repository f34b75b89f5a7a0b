"""Qubit opinion-state toolkit.

Models yes/no judgments as measurements of non-commuting two-outcome
observables on a single qubit, detects conjunction-fallacy effects as
interference corrections to the law of total probability, and provides
parameter sweeps, seeded population Monte Carlo, a small experiment
language and a CLI.
"""

import importlib as _importlib

from .dsl import GridRange
from .errors import (
    ImpossibleOutcomeError,
    PreconditionError,
    QOpinionError,
    SingularityError,
    ValidationError,
)
from .fallacy import (
    DecompositionResult,
    FallacyReport,
    RegimeClass,
    UnderextensionEstimate,
    classify_regime,
    decompose_total_probability,
    fallacy_inequalities,
    fallacy_report,
    mixed_state_total_probability,
    underextension_estimate,
)
from .measurement import (
    OutcomeStep,
    collapse,
    consecutive_probability,
    mean_value,
    ordering_flip_probability,
    outcome_probability,
    sample_answer,
    variance,
)
from .observables import (
    BasisRelation,
    Question,
    change_basis,
    commutator_is_zero,
    compose_relations,
    conditional_probability,
    eigenvectors_in_reference,
    from_basis,
    relative_relation,
)
from .states import (
    MAXIMALLY_MIXED,
    MixedState,
    PureState,
    density_from_pure,
    is_pure,
    mix,
    pure_from_angles,
)

# The array and crowd names load numpy, which the scalar tasks never need:
# they, and the modules that define them, are imported on first access
# through the module __getattr__ below (PEP 562).
_LAZY = {
    "analysis": "analysis",
    "kernels": "kernels",
    "population": "population",
    "SweepResult": "analysis",
    "sweep_fallacy_map": "analysis",
    "uncertainty_sum_minimum": "analysis",
    "PopulationComponent": "population",
    "PopulationSpec": "population",
    "SimulationTable": "population",
    "predicted_fallacy_rate": "population",
    "simulate_population": "population",
}


def __getattr__(name):
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _importlib.import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    # modules
    "analysis", "dsl", "errors", "kernels", "measurement", "observables",
    "population", "states",
    # dsl
    "GridRange",
    # errors
    "ImpossibleOutcomeError", "PreconditionError", "QOpinionError",
    "SingularityError", "ValidationError",
    # fallacy
    "DecompositionResult", "FallacyReport", "RegimeClass", "UnderextensionEstimate",
    "classify_regime", "decompose_total_probability", "fallacy_inequalities",
    "fallacy_report", "mixed_state_total_probability", "underextension_estimate",
    # analysis
    "SweepResult", "sweep_fallacy_map", "uncertainty_sum_minimum",
    # measurement
    "OutcomeStep", "collapse", "consecutive_probability", "mean_value",
    "ordering_flip_probability", "outcome_probability", "sample_answer", "variance",
    # observables
    "BasisRelation", "Question", "change_basis", "commutator_is_zero",
    "compose_relations", "conditional_probability", "eigenvectors_in_reference",
    "from_basis", "relative_relation",
    # population
    "PopulationComponent", "PopulationSpec", "SimulationTable",
    "predicted_fallacy_rate", "simulate_population",
    # states
    "MAXIMALLY_MIXED", "MixedState", "PureState", "density_from_pure", "is_pure",
    "mix", "pure_from_angles",
]
__version__ = "0.1.0"
