"""Born-rule probabilities, collapse, ordered answer chains and sampling.

Probabilities are computed unclamped internally and clamped to [0, 1] only
at the operation boundary, after a 1e-12 validity check; this keeps
decomposition identities testable downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .errors import ImpossibleOutcomeError, ValidationError
from .observables import Question, eigenvectors_in_reference, relative_relation
from .states import MixedState, density_from_pure

_PROB_TOL = 1e-12


class UniformStream(Protocol):
    """Anything producing one uniform variate in [0, 1) per call.

    ``numpy.random.Generator`` satisfies this.  A single stream must be
    driven from one logical thread of control at a time.
    """

    def random(self) -> float: ...


@dataclass(frozen=True)
class OutcomeStep:
    """One link of an ordered answer chain: a question and its answer."""

    question: Question
    outcome: int

    def __post_init__(self) -> None:
        if self.outcome not in (0, 1):
            raise ValidationError(f"outcome must be 0 or 1, got {self.outcome!r}")


def outcome_probability(rho: MixedState, q: Question, i: int) -> float:
    """Tr(rho |q_i><q_i|), clamped to [0, 1] on return."""
    if i not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {i!r}")
    vec = eigenvectors_in_reference(q)[i]
    p = rho.expectation(vec)
    if p < -_PROB_TOL or p > 1.0 + _PROB_TOL:
        raise ValidationError(f"probability {p!r} outside [0, 1] tolerance")
    return min(max(p, 0.0), 1.0)


def mean_value(rho: MixedState, q: Question) -> float:
    """Tr(rho Q) = sum_i q_i P(q_i), which is P(q = 1) for 0/1 eigenvalues."""
    return outcome_probability(rho, q, 1)


def variance(rho: MixedState, q: Question) -> float:
    """<Q^2> - <Q>^2; reduces to P(1)*P(0) for 0/1 eigenvalues."""
    p1 = outcome_probability(rho, q, 1)
    return p1 * (1.0 - p1)


def collapse(rho: MixedState, q: Question, i: int) -> MixedState:
    """Post-answer state |q_i><q_i|, independent of the prior state.

    Raises :class:`ImpossibleOutcomeError` when the outcome has probability
    at or below 1e-12: the caller asserts the answer actually occurred.
    """
    p = outcome_probability(rho, q, i)
    if p <= _PROB_TOL:
        raise ImpossibleOutcomeError(
            f"cannot collapse onto zero-probability outcome {q.name}={i}"
        )
    return density_from_pure(eigenvectors_in_reference(q)[i])


def chain_table(rho: MixedState, questions: Sequence[Question],
                answers: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], float]]:
    """``(answers, probability)`` of each chain asking ``questions`` in order
    with its k-th answer in ``answers[k]``, in ``itertools.product(*answers)`` order.

    An answer leaves its eigenprojector, so each step probability is computed
    once per (previous answer, answer), 2 + 4(k-1) for a full table.  A row
    multiplies its steps left to right, and a zero step makes it 0.0.
    """
    rows = [((), 1.0)]
    states = {(): rho}  # keyed by the previous answer, as a 0- or 1-tuple
    for q, outs in zip(questions, answers, strict=True):
        step = {(prev, o): outcome_probability(s, q, o)
                for prev, s in states.items() for o in outs}
        rows = [(chain + (o,), 0.0 if (p := step[chain[-1:], o]) == 0.0 else total * p)
                for chain, total in rows for o in outs]
        states = {(o,): density_from_pure(eigenvectors_in_reference(q)[o]) for o in outs}
    return rows


def consecutive_probability(rho: MixedState, steps: Iterable[OutcomeStep]) -> float:
    """Chain probability P(step1) * P(step2 | collapsed) * ...: a one-row :func:`chain_table`.

    A zero-probability intermediate makes the whole chain probability zero;
    unlike :func:`collapse` this is a quantity, not an asserted event, so no
    error is raised.
    """
    steps = list(steps)
    if not steps:
        raise ValidationError("consecutive_probability: empty step list")
    [(_, total)] = chain_table(rho, [s.question for s in steps], [(s.outcome,) for s in steps])
    return total


def ordering_flip_probability(first: Question, second: Question) -> float:
    """Probability that asking first, second, first again flips the first
    answer, starting from either eigenstate of ``first``.

    Summing over the middle outcome gives 2 cos^2(t) sin^2(t) = sin^2(2t)/2
    where t is the relative tilt; the expression is the same for both
    starting eigenstates.
    """
    t = relative_relation(first, second).theta
    return math.sin(2.0 * t) ** 2 / 2.0


def sample_answer(
    state: MixedState, q: Question, rng_stream: UniformStream
) -> tuple[int, MixedState]:
    """Draw one answer by the Born rule and return it with the collapsed state.

    Consumes exactly one uniform variate: the answer is 1 iff the variate is
    below P(1).  Fixed consumption order keeps runs reproducible.
    """
    p1 = outcome_probability(state, q, 1)
    outcome = 1 if rng_stream.random() < p1 else 0
    return outcome, density_from_pure(eigenvectors_in_reference(q)[outcome])
