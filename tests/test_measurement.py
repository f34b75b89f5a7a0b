import math

import pytest

from qopinion import (
    BasisRelation,
    ImpossibleOutcomeError,
    conditional_probability,
    decompose_total_probability,
    MAXIMALLY_MIXED,
    OutcomeStep,
    Question,
    ValidationError,
    collapse,
    consecutive_probability,
    density_from_pure,
    mean_value,
    mix,
    ordering_flip_probability,
    outcome_probability,
    pure_from_angles,
    sample_answer,
    variance,
)
from qopinion.observables import eigenvectors_in_reference


class _FixedStream:
    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


A = Question("a")
B = Question("b", BasisRelation(0.2, 0.0))


def test_outcome_probabilities_sum_to_one():
    rho = density_from_pure(pure_from_angles(1.8, 0.7))
    p0 = outcome_probability(rho, B, 0)
    p1 = outcome_probability(rho, B, 1)
    assert abs(p0 + p1 - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        outcome_probability(rho, B, 2)


# Every entry point that takes an answer checks it with states._check_outcome,
# for a pure state and for a mixed one not diagonal in a's basis.
_NOT_DIAGONAL = pure_from_angles(0.7, 0.2)
_OUTCOME_TAKERS = {
    "outcome_probability": lambda o: outcome_probability(density_from_pure(_NOT_DIAGONAL), B, o),
    "OutcomeStep": lambda o: OutcomeStep(A, o),
    "decompose_total_probability": lambda o: decompose_total_probability(_NOT_DIAGONAL, A, B, o),
    "mixed_state_total_probability": lambda o: decompose_total_probability(
        mix([(0.5, density_from_pure(_NOT_DIAGONAL)), (0.5, MAXIMALLY_MIXED)]), A, B, o),
    "conditional_probability_from": lambda o: conditional_probability(A, o, B, 1),
    "conditional_probability_to": lambda o: conditional_probability(A, 0, B, o),
}


@pytest.mark.parametrize("bad", [2, -1, 0.5])
@pytest.mark.parametrize("taker", sorted(_OUTCOME_TAKERS))
def test_every_outcome_taker_rejects_a_non_answer_alike(taker, bad):
    with pytest.raises(ValidationError) as info:
        _OUTCOME_TAKERS[taker](bad)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"outcome must be 0 or 1, got {bad!r}"


def test_mean_and_variance():
    rho = density_from_pure(pure_from_angles(1.8, 0.0))
    p1 = outcome_probability(rho, A, 1)
    assert mean_value(rho, A) == pytest.approx(p1, abs=1e-14)
    assert variance(rho, A) == pytest.approx(p1 * (1.0 - p1), abs=1e-14)


def test_collapse_is_prior_independent():
    target = density_from_pure(eigenvectors_in_reference(B)[1])
    for prior in (density_from_pure(pure_from_angles(0.4, 1.0)), MAXIMALLY_MIXED):
        post = collapse(prior, B, 1)
        assert abs(post.m00 - target.m00) < 1e-14
        assert abs(post.m11 - target.m11) < 1e-14
        assert abs(post.m01 - target.m01) < 1e-14


def test_collapse_rejects_impossible_outcome():
    rho = density_from_pure(eigenvectors_in_reference(A)[0])
    with pytest.raises(ImpossibleOutcomeError):
        collapse(rho, A, 1)


def test_outcome_step_validation():
    with pytest.raises(ValidationError):
        OutcomeStep(A, 2)


def test_consecutive_probability_chain():
    rho = density_from_pure(pure_from_angles(1.8, 0.0))
    chain = consecutive_probability(rho, [OutcomeStep(A, 1), OutcomeStep(B, 1)])
    expected = math.sin(1.8) ** 2 * math.cos(0.2) ** 2
    assert chain == pytest.approx(expected, abs=1e-14)
    with pytest.raises(ValidationError):
        consecutive_probability(rho, [])


def test_consecutive_probability_zero_intermediate():
    rho = density_from_pure(eigenvectors_in_reference(A)[0])
    # Second step asks A again after collapsing onto a=0: a=1 is impossible,
    # so the chain value is 0 rather than an error.
    p = consecutive_probability(rho, [OutcomeStep(A, 0), OutcomeStep(A, 1), OutcomeStep(B, 1)])
    assert p == 0.0


def test_ordering_flip_probability_closed_form():
    assert ordering_flip_probability(A, B) == pytest.approx(
        math.sin(0.4) ** 2 / 2.0, abs=1e-14
    )
    quarter = Question("q", BasisRelation(math.pi / 4, 0.0))
    assert ordering_flip_probability(A, quarter) == pytest.approx(0.5, abs=1e-14)
    assert ordering_flip_probability(A, A) == 0.0


def test_sample_answer_threshold_and_collapse():
    rho = density_from_pure(pure_from_angles(1.8, 0.0))
    p1 = outcome_probability(rho, A, 1)
    out_low, post = sample_answer(rho, A, _FixedStream([p1 - 1e-6]))
    assert out_low == 1
    assert abs(post.m11 - 1.0) < 1e-14
    out_high, post = sample_answer(rho, A, _FixedStream([p1 + 1e-6]))
    assert out_high == 0
    assert abs(post.m00 - 1.0) < 1e-14
