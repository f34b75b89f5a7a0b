"""Interference decompositions and conjunction-fallacy detection at a point.

For a pure state with coordinates (alpha0, alpha1) in the basis of question
``a``, the total probability of answering ``j`` on question ``b`` splits as

    P(b_j) = sum_i P(a_i) P(b_j | a_i)  +  I

where the classical part is the two-path law of total probability and the
interference term is

    I = +- Re[alpha0 * conj(alpha1) * sin(2 theta) * e^{i phi}]

with (theta, phi) the relation from ``a``'s basis to ``b``'s and the sign
positive for j = 1.  A negative interference term can push P(b_1) below
P(a_1) P(b_1 | a_1), the conjunction-fallacy signature; a positive one can
push it above by more than classically possible (the reverse fallacy).

Convention note: the basis transformation used everywhere maps a real state
with amplitude angle t_a to angle t_a + theta in the rotated basis, so the
one closed form of :func:`closed_form_fallacy`, valid for any pure state and
phase, reads at phi = 0 as :func:`fallacy_inequalities` gives it.

This module is scalar ``math``/``cmath`` code and never imports numpy; the
raster over many points, :mod:`analysis`, runs the same arithmetic on arrays.
"""

from __future__ import annotations

import cmath
import enum
import math

from .errors import PreconditionError, SingularityError
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
    MixedState, PureState, _check_finite, _check_outcome, _Record, density_from_pure,
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


def _abs2(z):
    """``abs(z) ** 2``, or ``z.abs2()`` for a batch that defines it: an
    :class:`analysis.ComplexArray` squares through the same libm pow."""
    abs2 = getattr(z, "abs2", None)
    return abs(z) ** 2 if abs2 is None else abs2()


def _relation_terms(rel: BasisRelation) -> tuple[float, float, complex]:
    """(cos^2 theta, sin 2 theta, e^{i phi}): what a decomposition needs."""
    return math.cos(rel.theta) ** 2, math.sin(2.0 * rel.theta), cmath.exp(1j * rel.phi)


def _split(alpha0, alpha1, c2, sin2t, phase, j=1):
    """(classical part, interference) of P(b = j).

    ``alpha0, alpha1`` are the state's coordinates in a's basis and
    (c2, sin2t, phase) are :func:`_relation_terms` of b seen from a.  All
    may be scalars or broadcastable batches.
    """
    p_a0, p_a1 = _abs2(alpha0), _abs2(alpha1)
    # The path through a = j keeps b = j with probability c2.
    other, same = (p_a0, p_a1) if j == 1 else (p_a1, p_a0)
    classical = other * (1.0 - c2) + same * c2
    cross = (alpha0 * alpha1.conjugate() * phase).real * sin2t
    return classical, cross if j == 1 else -cross


def _fallacy(amp0, amp1, rotate_a, rotate_b, a_to_b, b_to_a) -> tuple:
    """The fields of a :class:`FallacyReport`, in order: the arithmetic
    shared by :func:`fallacy_report` (scalars) and
    :func:`analysis.sweep_fallacy_map` (arrays).

    ``amp0, amp1`` are the state's amplitudes in the reference basis,
    ``rotate_a``/``rotate_b`` the :func:`observables._rotation_terms` of
    a's and b's relation to the reference, ``a_to_b``/``b_to_a`` the
    :func:`_relation_terms` of b seen from a and of a seen from b.
    """
    classical_b, interference_b = _split(
        *rotate_amplitudes(amp0, amp1, *rotate_a), *a_to_b
    )
    classical_a, interference_a = _split(
        *rotate_amplitudes(amp0, amp1, *rotate_b), *b_to_a
    )
    p_b1 = classical_b + interference_b
    p_a1 = classical_a + interference_a
    cond = a_to_b[0]  # P(b1 | a1) = P(a1 | b1)
    thr_b = p_a1 * cond
    thr_a = p_b1 * cond
    return (
        p_a1, p_b1, classical_b, interference_b, classical_a, interference_a,
        p_b1 < thr_b - FALLACY_GUARD,  # fallacy_b
        p_a1 < thr_a - FALLACY_GUARD,  # fallacy_a
        (p_b1 > thr_b + FALLACY_GUARD) & (interference_b > 0.0),  # reverse_b
        (p_a1 > thr_a + FALLACY_GUARD) & (interference_a > 0.0),  # reverse_a
    )


def decompose_total_probability(
    s: PureState, a: Question, b: Question, j: int
) -> DecompositionResult:
    """Split P(b = j) for state ``s`` into classical part plus interference.

    ``s`` is given in the reference basis.  Commuting pairs are allowed: the
    interference factor sin(2 theta) is then zero and the total reduces to
    the classical sum.
    """
    _check_outcome(j)
    alpha = rotate_amplitudes(s.amp0, s.amp1, *_rotation_terms(a.relation_to_reference))
    classical, interference = _split(
        *alpha, *_relation_terms(relative_relation(a, b)), j
    )
    return DecompositionResult(classical + interference, classical, interference)


def mixed_state_total_probability(
    rho: MixedState, a: Question, b: Question, j: int
) -> float:
    """Law of total probability for a state diagonal in ``a``'s basis.

    Diagonal mixtures carry no interference term, so the result is exactly
    the classical two-path sum and can never fall below P(a1) P(b_j | a1).
    """
    _check_outcome(j)
    a0, a1 = eigenvectors_in_reference(a)
    off = rho.element(a0, a1)
    if abs(off) > 1e-12:
        raise PreconditionError(
            f"state is not diagonal in the {a.name} basis (off-diagonal {off!r})"
        )
    p_a0 = rho.expectation(a0)
    p_a1 = rho.expectation(a1)
    return p_a0 * conditional_probability(a, 0, b, j) + p_a1 * conditional_probability(
        a, 1, b, j
    )


def fallacy_report(s: PureState, a: Question, b: Question) -> FallacyReport:
    """Direct fallacy check from probabilities: P(b1) against P(a1)P(b1|a1)
    and symmetrically for the a side, with a 1e-12 guard band so boundary
    cells are deterministic."""
    return FallacyReport(
        *_fallacy(
            s.amp0,
            s.amp1,
            _rotation_terms(a.relation_to_reference),
            _rotation_terms(b.relation_to_reference),
            _relation_terms(relative_relation(a, b)),
            _relation_terms(relative_relation(b, a)),
        )
    )


def closed_form_fallacy(s: PureState, x: Question, y: Question) -> bool:
    """Whether asking ``x`` then ``y`` shows the fallacy, by the closed form
    1 + 2 Re[(g1 / g0) e^{-i p}] cot(t) < 0: (g0, g1) are ``s`` in x's basis,
    (t, p) = relative_relation(x, y), and the form is :func:`_split`'s margin
    over |g0|^2 sin^2(t).  SingularityError within 1e-9 of g0 = 0 or sin t = 0.
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
    s: PureState, a: Question, b: Question
) -> UnderextensionEstimate:
    """Bracket mu(A and B) by the two ordered chain probabilities and derive
    the inclusion-exclusion range for mu(A or B)."""
    rho = density_from_pure(s)
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
