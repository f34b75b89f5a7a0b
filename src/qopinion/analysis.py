"""Interference decompositions and conjunction-fallacy detection.

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
with amplitude angle t_a to angle t_a + theta in the rotated basis.  The
closed-form fallacy inequalities below are derived under that same
convention, so they agree with the direct probability computation on every
non-singular point.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .dsl import GridRange
from .errors import PreconditionError, SingularityError, ValidationError
from .measurement import OutcomeStep, consecutive_probability, outcome_probability
from .observables import (
    BasisRelation,
    Question,
    conditional_probability,
    eigenvectors_in_reference,
    relative_relation,
    rotate_amplitudes,
)
from .states import MixedState, PureState, density_from_pure, pure_from_angles

FALLACY_GUARD = 1e-12
POLE_GUARD = 1e-9


@dataclass(frozen=True)
class DecompositionResult:
    """Total probability split into classical two-path part plus interference."""

    total: float
    classical_part: float
    interference: float
    target_question: Question
    target_outcome: int


@dataclass(frozen=True)
class FallacyReport:
    """Flags for the direct and reverse conjunction fallacy on both sides.

    ``margins`` holds, in order, (threshold_b - P(b1), threshold_a - P(a1),
    P(b1) - threshold_b, P(a1) - threshold_a): positive first-pair entries
    point toward the direct fallacy, positive second-pair entries toward the
    reverse side.  P(b1) and P(a1) are the totals of ``decomposition_b``
    (P(b1) through a's basis) and ``decomposition_a`` (P(a1) through b's).
    """

    fallacy_on_b: bool
    fallacy_on_a: bool
    reverse_on_b: bool
    reverse_on_a: bool
    margins: tuple[float, float, float, float]
    decomposition_b: DecompositionResult
    decomposition_a: DecompositionResult


class RegimeClass(enum.Enum):
    CORRELATED = "correlated"
    UNCORRELATED = "uncorrelated"
    ANTICORRELATED = "anticorrelated"


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Fallacy raster over (theta, theta_a) as a struct of arrays.

    Each per-cell array has shape ``(len(theta), len(theta_a))``: row i holds
    ``theta[i]``, so flattening is row-major in theta.  ``p_b1`` and
    ``p_a1`` are the totals of the two decompositions (P(b1) through a's
    basis, P(a1) through b's); ``margins`` are as in :class:`FallacyReport`;
    ``regime`` holds one class per theta row.
    """

    theta: np.ndarray
    theta_a: np.ndarray
    phi: float
    p_a1: np.ndarray
    p_b1: np.ndarray
    classical_b1: np.ndarray
    interference_b1: np.ndarray
    classical_a1: np.ndarray
    interference_a1: np.ndarray
    fallacy_b: np.ndarray
    fallacy_a: np.ndarray
    reverse_b: np.ndarray
    reverse_a: np.ndarray
    margins: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    regime: tuple[RegimeClass, ...]

    def __len__(self) -> int:
        """Number of cells."""
        return self.p_a1.size


@dataclass(frozen=True)
class UnderextensionEstimate:
    """Order-interval bounds on the conjunction and the derived or-range.

    The conjunction has no unique order-free value here, so ``and_low`` and
    ``and_high`` bracket the two ordered chain probabilities; the or-range
    follows by inclusion-exclusion.  ``underextension`` flags or_high falling
    below one of the single-event probabilities.
    """

    and_low: float
    and_high: float
    or_low: float
    or_high: float
    mu_a: float
    mu_b: float
    underextension: bool


class ComplexArray:
    """A batch of complex numbers held as real and imaginary float arrays.

    The operators repeat CPython's ``complex`` formulas step by step (a real
    operand is promoted to ``complex(x, 0.0)``, as up to Python 3.13;
    division is Smith's method) and ``abs`` is libm's hypot, as for
    ``complex``.  numpy's own complex ufuncs may fuse or reorder these
    steps and then differ from Python in the last bit; with this type a
    batch gives bit for bit what the scalar path gives for each of its
    elements, signed zeros included.
    """

    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    @staticmethod
    def _parts(z):
        if isinstance(z, (ComplexArray, complex)):
            return z.real, z.imag
        return z, 0.0

    def conjugate(self) -> "ComplexArray":
        return ComplexArray(self.real, -self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)

    def __add__(self, other) -> "ComplexArray":
        re, im = self._parts(other)
        return ComplexArray(self.real + re, self.imag + im)

    def __sub__(self, other) -> "ComplexArray":
        re, im = self._parts(other)
        return ComplexArray(self.real - re, self.imag - im)

    def __mul__(self, other) -> "ComplexArray":
        re, im = self._parts(other)
        return ComplexArray(
            self.real * re - self.imag * im, self.real * im + self.imag * re
        )

    def __truediv__(self, other) -> "ComplexArray":
        br, bi = map(np.asarray, self._parts(other))
        ar, ai = self.real, self.imag
        with np.errstate(divide="ignore", invalid="ignore"):
            wide = np.abs(br) >= np.abs(bi)
            ratio = np.where(wide, bi / br, br / bi)
            denom = np.where(wide, br + bi * ratio, br * ratio + bi)
            real = np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom
            imag = np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom
        return ComplexArray(real, imag)


def _batch(values, shape):
    """Values from the scalar path stacked into an array of ``shape``;
    complex values become a :class:`ComplexArray`."""
    z = np.array(values).reshape(shape)
    return ComplexArray(z.real, z.imag) if np.iscomplexobj(z) else z


def _abs2(z):
    """``abs(z) ** 2`` for a complex or a :class:`ComplexArray`.

    Python's ``**`` calls libm pow, which ``np.float_power`` also calls;
    ``np.square`` and ``np.power`` round differently on some inputs.
    """
    if isinstance(z, ComplexArray):
        return np.float_power(abs(z), 2.0)
    return abs(z) ** 2


def _rotation_terms(rel: BasisRelation) -> tuple[float, float, complex]:
    """(cos theta, sin theta, e^{i phi}): what rotating into a basis needs."""
    return math.cos(rel.theta), math.sin(rel.theta), cmath.exp(1j * rel.phi)


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


def _fallacy(amp0, amp1, rotate_a, rotate_b, a_to_b, b_to_a) -> dict:
    """Both decompositions, the four flags and the margins, named as the
    fields of :class:`SweepResult`: the arithmetic shared by
    :func:`fallacy_report` (scalars) and :func:`sweep_fallacy_map` (arrays).

    ``amp0, amp1`` are the state's amplitudes in the reference basis,
    ``rotate_a``/``rotate_b`` the :func:`_rotation_terms` of a's and b's
    relation to the reference, ``a_to_b``/``b_to_a`` the
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
    return dict(
        p_a1=p_a1,
        p_b1=p_b1,
        classical_b1=classical_b,
        interference_b1=interference_b,
        classical_a1=classical_a,
        interference_a1=interference_a,
        fallacy_b=p_b1 < thr_b - FALLACY_GUARD,
        fallacy_a=p_a1 < thr_a - FALLACY_GUARD,
        reverse_b=(p_b1 > thr_b + FALLACY_GUARD) & (interference_b > 0.0),
        reverse_a=(p_a1 > thr_a + FALLACY_GUARD) & (interference_a > 0.0),
        margins=(thr_b - p_b1, thr_a - p_a1, p_b1 - thr_b, p_a1 - thr_a),
    )


def decompose_total_probability(
    s: PureState, a: Question, b: Question, j: int
) -> DecompositionResult:
    """Split P(b = j) for state ``s`` into classical part plus interference.

    ``s`` is given in the reference basis.  Commuting pairs are allowed: the
    interference factor sin(2 theta) is then zero and the total reduces to
    the classical sum.
    """
    if j not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {j!r}")
    alpha = rotate_amplitudes(s.amp0, s.amp1, *_rotation_terms(a.relation_to_reference))
    classical, interference = _split(
        *alpha, *_relation_terms(relative_relation(a, b)), j
    )
    return DecompositionResult(
        total=classical + interference,
        classical_part=classical,
        interference=interference,
        target_question=b,
        target_outcome=j,
    )


def mixed_state_total_probability(
    rho: MixedState, a: Question, b: Question, j: int
) -> float:
    """Law of total probability for a state diagonal in ``a``'s basis.

    Diagonal mixtures carry no interference term, so the result is exactly
    the classical two-path sum and can never fall below P(a1) P(b_j | a1).
    """
    if j not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {j!r}")
    a0, a1 = eigenvectors_in_reference(a)
    off = (
        a0.amp0.conjugate() * (rho.m00 * a1.amp0 + rho.m01 * a1.amp1)
        + a0.amp1.conjugate() * (rho.m10 * a1.amp0 + rho.m11 * a1.amp1)
    )
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
    cells are deterministic.  The report carries the two decompositions
    whose totals it compares."""
    f = _fallacy(
        s.amp0,
        s.amp1,
        _rotation_terms(a.relation_to_reference),
        _rotation_terms(b.relation_to_reference),
        _relation_terms(relative_relation(a, b)),
        _relation_terms(relative_relation(b, a)),
    )
    return FallacyReport(
        fallacy_on_b=f["fallacy_b"],
        fallacy_on_a=f["fallacy_a"],
        reverse_on_b=f["reverse_b"],
        reverse_on_a=f["reverse_a"],
        margins=f["margins"],
        decomposition_b=DecompositionResult(
            f["p_b1"], f["classical_b1"], f["interference_b1"], b, 1
        ),
        decomposition_a=DecompositionResult(
            f["p_a1"], f["classical_a1"], f["interference_a1"], a, 1
        ),
    )


def fallacy_inequalities(theta_a: float, theta: float) -> tuple[bool, bool]:
    """Closed-form fallacy conditions for real amplitudes (phi = 0).

    b side:  1 + 2 tan(theta_a) cotan(theta) < 0
    a side:  1 - 2 tan(theta_a + theta) cotan(theta) < 0

    The a side uses the rotated amplitude angle theta_a + theta produced by
    the basis transformation used everywhere in this package; with it both
    sides agree with :func:`fallacy_report` (acceptance criterion 5).  The
    paper prints the a side with theta_a - theta instead.  That printed form
    has the same b side but flags the a side differently on 28745 of the
    65536 cells of the criterion-5 raster, and it is both-true on 7957 of
    them, where the direct flags never are; acceptance criterion 6 pins
    this.  Raises :class:`SingularityError` within 1e-9 of any tan/cotan
    pole.
    """
    cos_a = math.cos(theta_a)
    sin_t = math.sin(theta)
    cos_ab = math.cos(theta_a + theta)
    if abs(cos_a) < POLE_GUARD or abs(sin_t) < POLE_GUARD or abs(cos_ab) < POLE_GUARD:
        raise SingularityError(
            f"tan/cotan pole near theta_a={theta_a!r}, theta={theta!r}"
        )
    cot_t = math.cos(theta) / sin_t
    b_side = 1.0 + 2.0 * math.tan(theta_a) * cot_t < 0.0
    a_side = 1.0 - 2.0 * math.tan(theta_a + theta) * cot_t < 0.0
    return b_side, a_side


def classify_regime(theta: float) -> RegimeClass:
    """Correlation regime bands with fixed pi/8 half-widths.

    Band edges are assigned to the lower class so rasters are reproducible.
    """
    t = theta % math.pi
    if t <= math.pi / 8.0:
        return RegimeClass.CORRELATED
    if t <= 3.0 * math.pi / 8.0:
        return RegimeClass.UNCORRELATED
    return RegimeClass.ANTICORRELATED


def _reserve_raster(rows: int, cols: int) -> None:
    """Allocate one (rows, cols) float array, never touched, so a raster too
    large for memory fails at once with MemoryError, before any work."""
    try:
        np.empty((rows, cols))
    except ValueError as exc:  # numpy: a dimension or the byte count overflows
        raise MemoryError(exc) from None


def sweep_fallacy_map(
    theta_grid: GridRange, theta_a_grid: GridRange, phi: float
) -> SweepResult:
    """Rasterize fallacy structure over (theta, theta_a), row-major in theta.

    Cell (i, k) prepares the real state with angle theta_a[k], relates
    question b to the reference by (theta[i], phi), and records both
    decompositions, the flags and the correlation regime.  The per-axis
    terms come from the scalar code, once per axis value; the cells are then
    one batch through the arithmetic of :func:`fallacy_report`, so every
    cell equals the report for its point.
    """
    _reserve_raster(theta_grid.steps, theta_a_grid.steps)
    reference = Question("a")
    thetas, theta_as = theta_grid.values(), theta_a_grid.values()
    states = [pure_from_angles(theta_a, 0.0) for theta_a in theta_as]
    bs = [Question("b", BasisRelation(theta, phi)) for theta in thetas]

    def per_row(terms):  # one (n, 1) batch per term
        return [_batch(column, (-1, 1)) for column in zip(*terms)]

    cells = _fallacy(
        _batch([s.amp0 for s in states], (1, -1)),
        _batch([s.amp1 for s in states], (1, -1)),
        _rotation_terms(reference.relation_to_reference),
        per_row([_rotation_terms(b.relation_to_reference) for b in bs]),
        per_row([_relation_terms(relative_relation(reference, b)) for b in bs]),
        per_row([_relation_terms(relative_relation(b, reference)) for b in bs]),
    )
    return SweepResult(
        theta=np.array(thetas),
        theta_a=np.array(theta_as),
        phi=phi,
        regime=tuple(classify_regime(theta) for theta in thetas),
        **cells,
    )


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
        and_low=and_low,
        and_high=and_high,
        or_low=or_low,
        or_high=or_high,
        mu_a=mu_a,
        mu_b=mu_b,
        underextension=(or_high < mu_a or or_high < mu_b),
    )


def uncertainty_sum_minimum(
    a: Question, b: Question, grid_steps: int
) -> tuple[float, tuple[float, float]]:
    """Grid-search minimum of variance(a) + variance(b) over pure states.

    Scans state angles theta_s in [0, pi) and phi_s in [0, 2*pi) on a
    grid_steps x grid_steps lattice.  The value is an upper bound on the
    true variance-sum floor and converges to it as the grid refines.
    """
    if grid_steps < 8:
        raise ValidationError(f"grid_steps must be >= 8, got {grid_steps}")
    _reserve_raster(grid_steps, grid_steps)
    va = eigenvectors_in_reference(a)[1]
    vb = eigenvectors_in_reference(b)[1]
    theta_s = np.linspace(0.0, math.pi, grid_steps, endpoint=False)
    phi_s = np.linspace(0.0, 2.0 * math.pi, grid_steps, endpoint=False)
    amp0 = np.cos(theta_s)[:, None] * np.ones_like(phi_s)[None, :]
    amp1 = np.sin(theta_s)[:, None] * np.exp(1j * phi_s)[None, :]

    def p1(v):
        ov = np.conj(v.amp0) * amp0 + np.conj(v.amp1) * amp1
        return np.abs(ov) ** 2

    pa, pb = p1(va), p1(vb)
    var_sum = pa * (1.0 - pa) + pb * (1.0 - pb)
    idx = np.unravel_index(np.argmin(var_sum), var_sum.shape)
    return float(var_sum[idx]), (float(theta_s[idx[0]]), float(phi_s[idx[1]]))
