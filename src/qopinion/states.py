"""Qubit opinion states: normalized pure vectors and 2x2 density matrices.

All states are expressed in a fixed reference basis.  Pure states hold the
two complex amplitudes directly; density matrices store only the upper
triangle (the lower off-diagonal entry is implied by hermiticity).  Every
constructor validates its invariants, so any instance in circulation is a
legal state.
"""

from __future__ import annotations

import cmath
import math
import operator

from .errors import ValidationError

NORM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-12
WEIGHT_TOL = 1e-9
PURITY_TOL = 1e-9


def _check_finite(label: str, *values: complex) -> None:
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValidationError(f"{label}: non-finite component {v!r}")


def _check_outcome(i: int) -> None:
    if i not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {i!r}")


def _check_weights(kind: str, weights: list[float]) -> float:
    """Sum of a mixture's weights, checked to be one or more, finite, non-negative
    and summing to 1 within ``WEIGHT_TOL``; ``kind`` names a weight in errors."""
    if not weights:
        raise ValidationError(f"need at least one {kind}")
    total = 0.0
    for w in weights:
        if not math.isfinite(w):
            raise ValidationError(f"non-finite {kind} {w!r}")
        if w < 0.0:
            raise ValidationError(f"negative {kind} {w!r}")
        total += w
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValidationError(f"{kind}s sum to {total!r}, expected 1")
    return total


class _Record:
    """Base of the package's immutable records.  A record's fields, ``_fields``,
    are the ``__slots__`` of its class and of its bases in order; ``__init__``
    sets them once, positionally, and the record compares, hashes, prints and
    pickles as the tuple of their values.  A subclass whose fields have
    checks, defaults or keywords writes its own ``__init__``, which ends by
    calling this one."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = (*cls._fields, *cls.__dict__.get("__slots__", ()))
        # Looked up once per class: each field's slot setter, and its values'
        # getter (a tuple for two fields or more) for == and hash.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._key = operator.attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class PureState(_Record):
    """Normalized two-component opinion vector (amp0, amp1).

    The squared moduli are the answer probabilities for the question whose
    eigenbasis the amplitudes are written in.  Global phase carries no
    meaning; use :meth:`equals_up_to_phase` for physical equality.
    """

    __slots__ = ("amp0", "amp1")

    def __init__(self, amp0: complex, amp1: complex) -> None:
        _check_finite("PureState", amp0, amp1)
        norm_sq = abs(amp0) ** 2 + abs(amp1) ** 2
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(
                f"PureState not normalized: |amp0|^2 + |amp1|^2 = {norm_sq!r}"
            )
        super().__init__(amp0, amp1)

    @classmethod
    def normalized(cls, amp0: complex, amp1: complex) -> "PureState":
        """Build a state from unnormalized amplitudes by rescaling."""
        _check_finite("PureState.normalized", amp0, amp1)
        norm = math.sqrt(abs(amp0) ** 2 + abs(amp1) ** 2)
        if norm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(amp0 / norm, amp1 / norm)

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        return (
            self.amp0.conjugate() * other.amp0
            + self.amp1.conjugate() * other.amp1
        )

    def equals_up_to_phase(self, other: "PureState", tol: float = 1e-9) -> bool:
        return abs(abs(self.overlap(other)) - 1.0) <= tol


class MixedState(_Record):
    """2x2 hermitian, trace-one, positive-semidefinite density matrix.

    Only ``m00``, ``m11`` and the upper off-diagonal ``m01`` are stored;
    ``m10`` is the conjugate of ``m01``.
    """

    __slots__ = ("m00", "m11", "m01")

    def __init__(self, m00: float, m11: float, m01: complex) -> None:
        _check_finite("MixedState", m00, m11, m01)
        if abs(m00 + m11 - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"MixedState trace {m00 + m11!r} != 1"
            )
        det = m00 * m11 - abs(m01) ** 2
        if m00 < -PSD_TOL or m11 < -PSD_TOL or det < -PSD_TOL:
            raise ValidationError(
                f"MixedState not positive semidefinite "
                f"(m00={m00!r}, m11={m11!r}, det={det!r})"
            )
        super().__init__(m00, m11, m01)

    @property
    def m10(self) -> complex:
        return self.m01.conjugate()

    def purity(self) -> float:
        """Trace of the squared matrix; 1 for pure states, 1/2 when maximally mixed."""
        return self.m00**2 + self.m11**2 + 2.0 * abs(self.m01) ** 2

    def element(self, u: PureState, v: PureState) -> complex:
        """<u|rho|v>, the matrix element between directions ``u`` and ``v``."""
        return (
            u.amp0.conjugate() * (self.m00 * v.amp0 + self.m01 * v.amp1)
            + u.amp1.conjugate() * (self.m10 * v.amp0 + self.m11 * v.amp1)
        )

    def expectation(self, v: PureState) -> float:
        """<v|rho|v>, the probability weight carried by direction ``v``."""
        return self.element(v, v).real


def pure_from_angles(theta_a: float, phi_a: float) -> PureState:
    """Pure state cos(theta_a)|0> + sin(theta_a) e^{i phi_a}|1>.

    ``phi_a = 0`` gives the real-amplitude case.
    """
    _check_finite("pure_from_angles", theta_a, phi_a)
    return PureState(
        complex(math.cos(theta_a)),
        math.sin(theta_a) * cmath.exp(1j * phi_a),
    )


def density_from_pure(s: PureState) -> MixedState:
    """Rank-one projector |s><s| of a normalized pure state."""
    return MixedState(
        abs(s.amp0) ** 2,
        abs(s.amp1) ** 2,
        s.amp0 * s.amp1.conjugate(),
    )


def _as_density(state: PureState | MixedState) -> MixedState:
    return density_from_pure(state) if isinstance(state, PureState) else state


def mix(components: list[tuple[float, MixedState]]) -> MixedState:
    """Convex combination of density matrices.

    The weights obey :func:`_check_weights`, the rule every mixture here
    obeys; they are renormalized by their exact sum so the result's trace
    is 1 to floating precision.
    """
    total = _check_weights("mix weight", [w for w, _ in components])
    m00 = sum(w * rho.m00 for w, rho in components) / total
    m11 = sum(w * rho.m11 for w, rho in components) / total
    m01 = sum(w * rho.m01 for w, rho in components) / total
    return MixedState(m00, m11, m01)


def is_pure(rho: MixedState) -> bool:
    """True iff trace(rho^2) >= 1 - 1e-9."""
    return rho.purity() >= 1.0 - PURITY_TOL


MAXIMALLY_MIXED = MixedState(0.5, 0.5, 0j)
