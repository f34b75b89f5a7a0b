"""Qubit opinion-state toolkit.

Models yes/no judgments as measurements of non-commuting two-outcome
observables on a single qubit, detects conjunction-fallacy effects as
interference corrections to the law of total probability, and provides
parameter sweeps, seeded population Monte Carlo, a small experiment
language and a CLI.
"""

from .analysis import (
    DecompositionResult,
    FallacyReport,
    GridRange,
    RegimeClass,
    SweepResult,
    UnderextensionEstimate,
    classify_regime,
    decompose_total_probability,
    fallacy_inequalities,
    fallacy_report,
    mixed_state_total_probability,
    sweep_fallacy_map,
    underextension_estimate,
    uncertainty_sum_minimum,
)
from .errors import (
    ImpossibleOutcomeError,
    PreconditionError,
    QOpinionError,
    SingularityError,
    ValidationError,
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
from .population import (
    PopulationComponent,
    PopulationSpec,
    SimulationTable,
    predicted_fallacy_rate,
    simulate_population,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
