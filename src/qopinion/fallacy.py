"""Interference decompositions and conjunction-fallacy detection at a point.

Write the state as rho = (I + r.sigma)/2 and let m_q be the Bloch vector of
answer 1 to question q, so that P(q1) = (1 + r.m_q)/2 and, with t the tilt
between the bases of ``a`` and ``b``, P(b1 | a1) = cos^2 t = (1 + m_a.m_b)/2.
The total probability of answering 1 on ``b`` splits as

    P(b1) = sum_i P(a_i) P(b1 | a_i)  +  I
          = (1 + (r.m_a)(m_a.m_b))/2  +  (r - (r.m_a) m_a).m_b / 2

where the classical part is the two-path law of total probability, P(b1) of
the state dephased in a's basis, and the interference term is what r's
coherence in that basis adds along m_b; answer 0 has the vector -m_b.  A
negative interference term can push P(b1) below P(a1) P(b1 | a1), the
conjunction-fallacy signature; a positive one can push it above by more
than classically possible (the reverse fallacy).  r is :func:`_bloch` of a
pure or mixed state; a classical mixture of a's answers has r along m_a, no
interference, and obeys the law of total probability.

Convention note: the basis transformation used everywhere maps a real state
with amplitude angle t_a to angle t_a + theta in the rotated basis, so the
one closed form of :func:`closed_form_fallacy`, valid for any pure state and
phase, reads at phi = 0 as :func:`fallacy_inequalities` gives it.

The decomposition is real arithmetic, affine in r: only ``+``, ``-``, ``*``
and ``/`` on floats, which float64 arrays round exactly as Python floats
do, one operation at a time.  So the raster over many points,
:mod:`analysis`, passes arrays through the same :func:`_fallacy` and each
cell equals the scalar report for its point by construction.  This module
is scalar ``math``/``cmath`` code and never imports numpy.
"""

from __future__ import annotations

import cmath
import enum
import math

from .errors import SingularityError, ValidationError
from .measurement import OutcomeStep, consecutive_probability, outcome_probability
from .observables import (
    BasisRelation,
    Question,
    _rotation_terms,
    conditional_probability,
    eigenvectors_in_reference,
    relative_relation,
    rotate_amplitudes,
)
from .states import (
    MixedState, PureState, _as_density, _check_finite, _check_outcome, _Record,
    pure_from_angles,
)

FALLACY_GUARD = 1e-12
POLE_GUARD = 1e-9


class DecompositionResult(_Record):
    """Total probability split into classical two-path part plus interference."""

    __slots__ = ("total", "classical_part", "interference")


class FallacyReport(_Record):
    """Both sides of the fallacy comparison at one point: P(b1) through a's
    basis and P(a1) through b's, each as classical part plus interference,
    and the direct and reverse flags on each side.

    The fields, ``_fields``, are the fallacy columns of the CLI's CSV, in
    order: six floats, then four flags.  Reports compare by identity.
    """

    __slots__ = (
        "p_a1", "p_b1", "classical_b1", "interference_b1", "classical_a1", "interference_a1",
        "fallacy_b", "fallacy_a", "reverse_b", "reverse_a",
    )
    __eq__, __hash__ = object.__eq__, object.__hash__


class RegimeClass(enum.Enum):
    CORRELATED = "correlated"
    UNCORRELATED = "uncorrelated"
    ANTICORRELATED = "anticorrelated"


class UnderextensionEstimate(_Record):
    """Order-interval bounds on the conjunction and the derived or-range.

    The conjunction has no unique order-free value here, so ``and_low`` and
    ``and_high`` bracket the two ordered chain probabilities; the or-range
    follows by inclusion-exclusion.  ``underextension`` flags or_high falling
    more than the 1e-12 guard below one of the single-event probabilities,
    which exact arithmetic never does: and_low is at most P(x1) P(y1|x1)
    <= P(x1), so or_high is at least both.
    """

    __slots__ = ("and_low", "and_high", "or_low", "or_high", "mu_a", "mu_b", "underextension")


def _bloch(state: PureState | MixedState) -> tuple[float, float, float]:
    """r = (2 Re rho01, -2 Im rho01, rho00 - rho11), so rho = (I + r.sigma)/2; a
    pure state's entries are its amplitudes' products, as density_from_pure
    writes them, but with no MixedState built and checked."""
    if isinstance(state, PureState):
        rho01 = state.amp0 * state.amp1.conjugate()
        diagonal = abs(state.amp0) ** 2 - abs(state.amp1) ** 2
    else:
        rho01, diagonal = state.m01, state.m00 - state.m11
    return 2.0 * rho01.real, -2.0 * rho01.imag, diagonal


def _axis(q: Question) -> tuple[float, float, float]:
    """m_q, the Bloch vector of answer 1's eigenvector, so that
    P(q1) = (1 + r.m_q)/2."""
    return _bloch(eigenvectors_in_reference(q)[1])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _split(r, m_a, m_b):
    """(classical part, interference) of P(b1) = (1 + r.m_b)/2, for Bloch
    vectors r of the state and m_a, m_b of answer 1 to a and b.

    The classical part is P(b1) of the state dephased in a's basis, r
    replaced by its component (r.m_a) m_a; the interference is what the
    rest of r, its coherence in a's basis, adds along m_b.  Each component
    may be a float or an array, and they broadcast.
    """
    along = _dot(r, m_a)
    classical = (1.0 + along * _dot(m_a, m_b)) / 2.0
    interference = _dot([x - along * y for x, y in zip(r, m_a)], m_b) / 2.0
    return classical, interference


def _fallacy(r, m_a, m_b, cond) -> tuple:
    """The fields of a :class:`FallacyReport`, in order: the arithmetic
    shared by :func:`fallacy_report`, ``predicted_fallacy_rate`` and a
    point-wise ``run`` sweep (floats) and :func:`analysis.sweep_fallacy_map`
    (float arrays).

    ``r`` is the state's Bloch vector, ``m_a``/``m_b`` are :func:`_axis` of
    the two questions and ``cond`` is P(b1 | a1) = P(a1 | b1) = cos^2 t.
    """
    classical_b, interference_b = _split(r, m_a, m_b)
    classical_a, interference_a = _split(r, m_b, m_a)
    p_b1 = classical_b + interference_b
    p_a1 = classical_a + interference_a
    thr_b = p_a1 * cond
    thr_a = p_b1 * cond
    return (
        p_a1, p_b1, classical_b, interference_b, classical_a, interference_a,
        p_b1 < thr_b - FALLACY_GUARD,  # fallacy_b
        p_a1 < thr_a - FALLACY_GUARD,  # fallacy_a
        (p_b1 > thr_b + FALLACY_GUARD) & (interference_b > 0.0),  # reverse_b
        (p_a1 > thr_a + FALLACY_GUARD) & (interference_a > 0.0),  # reverse_a
    )


def _pair(a: Question, b: Question) -> tuple:
    """``(m_a, m_b, cos^2 t)``: what :func:`_fallacy` takes for the pair (a, b)."""
    return _axis(a), _axis(b), conditional_probability(a, 1, b, 1)


def _report(state: PureState | MixedState, pair: tuple) -> FallacyReport:
    """The report of ``state``, pure or mixed, for the terms of :func:`_pair`."""
    return FallacyReport(*_fallacy(_bloch(state), *pair))


def decompose_total_probability(
    state: PureState | MixedState, a: Question, b: Question, j: int
) -> DecompositionResult:
    """Split P(b = j) for a pure or mixed ``state`` into classical part plus
    interference, both affine in its Bloch vector.

    ``state`` is given in the reference basis.  Commuting pairs are allowed:
    m_b is then +-m_a.  Then, and for a state diagonal in a's basis (a
    classical mixture of a's answers), the interference is zero up to
    rounding and the total reduces to the classical two-path sum.
    """
    _check_outcome(j)
    m_b = _axis(b)
    if j == 0:  # answer 0's Bloch vector is -m_b
        m_b = tuple(-x for x in m_b)
    classical, interference = _split(_bloch(state), _axis(a), m_b)
    return DecompositionResult(classical + interference, classical, interference)


def fallacy_report(s: PureState, a: Question, b: Question) -> FallacyReport:
    """Direct fallacy check from probabilities: P(b1) against P(a1)P(b1|a1)
    and symmetrically for the a side, with a 1e-12 guard band so boundary
    cells are deterministic.  Pure states only (ValidationError otherwise):
    the reverse flags' unguarded interference test would flag rounding noise
    on a mixture diagonal in a question's basis."""
    if not isinstance(s, PureState):
        raise ValidationError(f"fallacy_report takes a pure state, not {type(s).__name__}")
    return _report(s, _pair(a, b))


def closed_form_fallacy(s: PureState, x: Question, y: Question) -> bool:
    """Whether asking ``x`` then ``y`` shows the fallacy, by the closed form
    1 + 2 Re[(g1 / g0) e^{-i p}] cot(t) < 0: (g0, g1) are ``s`` in x's basis,
    (t, p) = relative_relation(x, y), and the form is the margin
    P(y1) - P(x1) cos^2(t) over |g0|^2 sin^2(t), in complex amplitudes.
    SingularityError within 1e-9 of g0 = 0 or sin t = 0.
    """
    g0, g1 = rotate_amplitudes(s.amp0, s.amp1, *_rotation_terms(x.relation_to_reference))
    rel = relative_relation(x, y)
    sin_t = math.sin(rel.theta)
    if abs(g0) < POLE_GUARD or abs(sin_t) < POLE_GUARD:
        raise SingularityError(f"closed form has a pole at g0={g0!r}, sin(t)={sin_t!r}")
    shift = (g1 / g0 * cmath.exp(-1j * rel.phi)).real
    return 1.0 + 2.0 * shift * math.cos(rel.theta) / sin_t < 0.0


def fallacy_inequalities(theta_a: float, theta: float) -> tuple[bool, bool]:
    """:func:`closed_form_fallacy` on (a, b) and on (b, a) for the real state
    at angle ``theta_a`` and b at (``theta``, 0): at phi = 0 the b side reads
    1 + 2 tan(theta_a) cot(theta) < 0 and the a side, where p = pi,
    1 - 2 tan(theta_a + theta) cot(theta) < 0, as :func:`fallacy_report`
    (acceptance criterion 5).  The paper's printed a side, with theta_a - theta,
    is both-true where the direct flags never are (acceptance criterion 6).
    """
    s = pure_from_angles(theta_a, 0.0)
    a, b = Question("a"), Question("b", BasisRelation(theta, 0.0))
    return closed_form_fallacy(s, a, b), closed_form_fallacy(s, b, a)


def classify_regime(theta: float) -> RegimeClass:
    """Correlation regime bands with fixed pi/8 half-widths.

    Band edges are assigned to the lower class so rasters are reproducible.
    """
    _check_finite("classify_regime", theta)
    t = theta % math.pi
    if t <= math.pi / 8.0:
        return RegimeClass.CORRELATED
    if t <= 3.0 * math.pi / 8.0:
        return RegimeClass.UNCORRELATED
    return RegimeClass.ANTICORRELATED


def underextension_estimate(
    s: PureState | MixedState, a: Question, b: Question
) -> UnderextensionEstimate:
    """Bracket mu(A and B) for a pure or mixed state by the two ordered chain
    probabilities and derive the inclusion-exclusion range for mu(A or B)."""
    rho = _as_density(s)
    mu_a = outcome_probability(rho, a, 1)
    mu_b = outcome_probability(rho, b, 1)
    p_ab = consecutive_probability(rho, [OutcomeStep(a, 1), OutcomeStep(b, 1)])
    p_ba = consecutive_probability(rho, [OutcomeStep(b, 1), OutcomeStep(a, 1)])
    and_low, and_high = min(p_ab, p_ba), max(p_ab, p_ba)
    or_low = mu_a + mu_b - and_high
    or_high = mu_a + mu_b - and_low
    return UnderextensionEstimate(
        and_low, and_high, or_low, or_high, mu_a, mu_b,
        or_high < max(mu_a, mu_b) - FALLACY_GUARD,  # underextension
    )
