"""Independent reference computations used only for cross-validation.

Nothing here shares arithmetic with the main modules: the expansions are
written out literally, term by term, so a bug in the production path cannot
hide behind shared code.  Performance is a non-goal.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import ValidationError
from .observables import BasisRelation, Question
from .states import MixedState, PureState

if TYPE_CHECKING:
    from .population import PopulationSpec


def brute_force_outcome_probability(
    s: PureState, rel: BasisRelation, j: int
) -> float:
    """|coefficient|^2 of component ``j`` of ``s`` rewritten in the rotated basis.

    Literal term-by-term expansion of

        s = [a0 cos(t) - a1 sin(t) e^{-i p}] |b0>
          + [a0 sin(t) e^{i p} + a1 cos(t)] |b1>
    """
    if j not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {j!r}")
    a0, a1 = s.amp0, s.amp1
    t, p = rel.theta, rel.phi
    if j == 0:
        coeff = a0 * math.cos(t) - a1 * math.sin(t) * cmath.exp(-1j * p)
    else:
        coeff = a0 * math.sin(t) * cmath.exp(1j * p) + a1 * math.cos(t)
    return coeff.real * coeff.real + coeff.imag * coeff.imag


def classical_total_probability(
    p_a1: float, cond_b1_given_a0: float, cond_b1_given_a1: float
) -> float:
    """Two-path law of total probability for genuinely classical inputs.

    The result can never fall below p_a1 * cond_b1_given_a1: classically the
    conjunction is never more probable than either single event.
    """
    for name, v in (
        ("p_a1", p_a1),
        ("cond_b1_given_a0", cond_b1_given_a0),
        ("cond_b1_given_a1", cond_b1_given_a1),
    ):
        if not (0.0 <= v <= 1.0):
            raise ValidationError(f"{name} must lie in [0, 1], got {v!r}")
    return (1.0 - p_a1) * cond_b1_given_a0 + p_a1 * cond_b1_given_a1


def _density_matrix(prep: PureState | MixedState) -> list[list[complex]]:
    """rho as a 2x2 nested list: |s><s| for a pure state, else its entries."""
    if isinstance(prep, PureState):
        a0, a1 = prep.amp0, prep.amp1
        return [
            [a0 * a0.conjugate(), a0 * a1.conjugate()],
            [a1 * a0.conjugate(), a1 * a1.conjugate()],
        ]
    return [[complex(prep.m00), prep.m01], [prep.m01.conjugate(), complex(prep.m11)]]


def _projector(q: Question, j: int) -> list[list[complex]]:
    """|q_j><q_j| in the reference basis, with

        |q_0> = ( cos(t), -sin(t) e^{i p} ),   |q_1> = ( sin(t) e^{-i p}, cos(t) )
    """
    t, p = q.relation_to_reference.theta, q.relation_to_reference.phi
    if j == 0:
        v = (complex(math.cos(t)), -math.sin(t) * cmath.exp(1j * p))
    else:
        v = (math.sin(t) * cmath.exp(-1j * p), complex(math.cos(t)))
    return [[v[r] * v[c].conjugate() for c in range(2)] for r in range(2)]


def _product(x: list[list[complex]], y: list[list[complex]]) -> list[list[complex]]:
    return [[x[r][0] * y[0][c] + x[r][1] * y[1][c] for c in range(2)] for r in range(2)]


def _ordered_pair_probability(
    rho: list[list[complex]], first: Question, i: int, second: Question, j: int
) -> float:
    """Tr(P_j P_i rho P_i P_j): answer i to ``first``, then j to ``second``."""
    p_i, p_j = _projector(first, i), _projector(second, j)
    m = _product(p_j, _product(p_i, _product(rho, _product(p_i, p_j))))
    return (m[0][0] + m[1][1]).real


def crowd_code_distribution(
    pop: PopulationSpec, a: Question, b: Question
) -> tuple[float, ...]:
    """Exact probability of each of the 16 answer codes of a population's agents.

    An agent drawn from component c (probability its fraction w_c) answers
    x to a then y to b, and, on a fresh copy of its preparation rho_c, u to b
    then v to a.  With P^q_j the projector onto answer j of question q,

        P(x, y, u, v) = sum_c w_c Tr(P^b_y P^a_x rho_c P^a_x P^b_y)
                                  Tr(P^a_v P^b_u rho_c P^b_u P^a_v)

    at code x | y<<1 | u<<2 | v<<3, the packing of :mod:`kernels`.
    """
    dist = [0.0] * 16
    for comp in pop.components:
        rho = _density_matrix(comp.preparation)
        for code in range(16):
            x, y, u, v = ((code >> bit) & 1 for bit in range(4))
            dist[code] += (
                comp.fraction
                * _ordered_pair_probability(rho, a, x, b, y)
                * _ordered_pair_probability(rho, b, u, a, v)
            )
    return tuple(dist)
