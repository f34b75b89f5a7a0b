"""Two-outcome question operators and the rotation linking their eigenbases.

A question is a hermitian observable with eigenvalues exactly 0 and 1.  Its
eigenbasis is located relative to a fixed reference basis by a
:class:`BasisRelation` (theta, phi), with eigenvectors

    |q0> = cos(theta)|r0> - sin(theta) e^{i phi}|r1>
    |q1> = sin(theta) e^{-i phi}|r0> + cos(theta)|r1>

The reference question itself carries the identity relation (0, 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .states import PureState, _check_finite

_TWO_PI = 2.0 * math.pi
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class BasisRelation:
    """Rotation angles (theta, phi) between two eigenbases.

    Canonicalized on construction to theta in [0, pi) and phi in [0, 2*pi):
    shifting theta by pi only flips eigenvector signs, which is unobservable.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        _check_finite("BasisRelation", self.theta, self.phi)
        object.__setattr__(self, "theta", self.theta % math.pi)
        object.__setattr__(self, "phi", self.phi % _TWO_PI)


IDENTITY_RELATION = BasisRelation(0.0, 0.0)


@dataclass(frozen=True)
class Question:
    """Named two-outcome observable with eigenvalues {0, 1}."""

    name: str
    relation_to_reference: BasisRelation = field(default=IDENTITY_RELATION)


def _rotation_terms(rel: BasisRelation) -> tuple[float, float, complex]:
    """(cos theta, sin theta, e^{i phi}): what rotating into a basis needs."""
    return math.cos(rel.theta), math.sin(rel.theta), cmath.exp(1j * rel.phi)


def eigenvectors_in_reference(q: Question) -> tuple[PureState, PureState]:
    """Eigenvectors (|q0>, |q1>) of ``q`` expressed in the reference basis."""
    c, s, phase = _rotation_terms(q.relation_to_reference)
    return PureState(complex(c), -s * phase), PureState(s / phase, complex(c))


def change_basis(s: PureState, rel: BasisRelation) -> PureState:
    """Re-express ``s`` in the basis rotated by ``rel``.

    The output components are beta_j = <q_j|s>:

        beta0 = alpha0 cos(theta) - alpha1 sin(theta) e^{-i phi}
        beta1 = alpha0 sin(theta) e^{i phi} + alpha1 cos(theta)
    """
    return PureState(*rotate_amplitudes(s.amp0, s.amp1, *_rotation_terms(rel)))


def rotate_amplitudes(amp0, amp1, c, sn, phase):
    """The arithmetic of :func:`change_basis` on bare amplitudes.

    ``c``, ``sn`` and ``phase`` are cos(theta), sin(theta) and e^{i phi}.
    Any argument may instead be a batch of values (numpy arrays, or complex
    batches held as real and imaginary arrays), so one rotation and a whole
    raster of them run the same operations.
    """
    return amp0 * c - amp1 * sn / phase, amp0 * sn * phase + amp1 * c


def from_basis(s: PureState, rel: BasisRelation) -> PureState:
    """Inverse of :func:`change_basis`: coordinates given in the rotated
    basis, result expressed in the reference basis: the rotation by -theta."""
    c, sn, phase = _rotation_terms(rel)
    return PureState(*rotate_amplitudes(s.amp0, s.amp1, c, -sn, phase))


def inverse_relation(rel: BasisRelation) -> BasisRelation:
    # The inverse rotation has the same tilt with phi advanced by pi.
    return BasisRelation(rel.theta, rel.phi + math.pi)


def _relation_from_columns(v00: complex, v10: complex) -> BasisRelation:
    """Extract canonical (theta, phi) from the first column of a basis
    transition matrix, after rephasing the column so v00 is real >= 0."""
    theta = math.atan2(abs(v10), abs(v00))
    if abs(v10) <= _DEGENERATE_TOL:
        phi = 0.0
    elif abs(v00) <= _DEGENERATE_TOL:
        phi = cmath.phase(-v10)
    else:
        phi = cmath.phase(-v10) - cmath.phase(v00)
    return BasisRelation(theta, phi)


def relative_relation(from_q: Question, to_q: Question) -> BasisRelation:
    """Canonical relation of ``to_q``'s eigenbasis seen from ``from_q``'s.

    Eigenvector phases are rephased so the transition matrix takes the same
    (theta, phi) form used throughout; probabilities are unaffected.
    """
    f_rel = from_q.relation_to_reference
    t_rel = to_q.relation_to_reference
    if f_rel == IDENTITY_RELATION:
        return t_rel
    if t_rel == IDENTITY_RELATION:
        return inverse_relation(f_rel)
    t0, _ = eigenvectors_in_reference(to_q)
    col0 = change_basis(t0, f_rel)
    # col0 components are (<f0|t0>, <f1|t0>); canonical column 0 of the
    # eigenvector matrix is (cos(theta), -sin(theta) e^{i phi}).
    return _relation_from_columns(col0.amp0, col0.amp1)


def compose_relations(base: BasisRelation, local: BasisRelation) -> BasisRelation:
    """Relation to the reference of a basis specified relative to ``base``."""
    if base == IDENTITY_RELATION:
        return local
    if local == IDENTITY_RELATION:
        return base
    c, s, phase = _rotation_terms(local)
    col0 = from_basis(PureState(complex(c), -s * phase), base)
    return _relation_from_columns(col0.amp0, col0.amp1)


def conditional_probability(
    from_q: Question, i: int, to_q: Question, j: int
) -> float:
    """P(to_q = j | from_q = i) = |<t_j|f_i>|^2.

    Equal to cos^2 of the relative tilt for matching outcomes and sin^2
    otherwise, hence symmetric under exchanging the two (question, outcome)
    pairs.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValidationError(f"outcomes must be 0 or 1, got ({i}, {j})")
    rel = relative_relation(from_q, to_q)
    c2 = math.cos(rel.theta) ** 2
    return c2 if i == j else 1.0 - c2


def question_matrix(q: Question) -> list[list[complex]]:
    """The operator 0*|q0><q0| + 1*|q1><q1| as a dense 2x2 matrix."""
    _, q1 = eigenvectors_in_reference(q)
    a0, a1 = q1.amp0, q1.amp1
    return [
        [a0 * a0.conjugate(), a0 * a1.conjugate()],
        [a1 * a0.conjugate(), a1 * a1.conjugate()],
    ]


def commutator_is_zero(a: Question, b: Question) -> bool:
    """True iff the operator norm of AB - BA is below 1e-12.

    For two projectors whose eigenbases are tilted by t that norm is
    |cos t sin t| = |sin 2t| / 2, so it is read off the relative tilt.
    """
    return abs(math.sin(2.0 * relative_relation(a, b).theta)) / 2.0 < _DEGENERATE_TOL
