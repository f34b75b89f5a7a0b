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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PureState:
    """Normalized two-component opinion vector (amp0, amp1).

    The squared moduli are the answer probabilities for the question whose
    eigenbasis the amplitudes are written in.  Global phase carries no
    meaning; use :meth:`equals_up_to_phase` for physical equality.
    """

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        _check_finite("PureState", self.amp0, self.amp1)
        norm_sq = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(
                f"PureState not normalized: |amp0|^2 + |amp1|^2 = {norm_sq!r}"
            )

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


@dataclass(frozen=True)
class MixedState:
    """2x2 hermitian, trace-one, positive-semidefinite density matrix.

    Only ``m00``, ``m11`` and the upper off-diagonal ``m01`` are stored;
    ``m10`` is the conjugate of ``m01``.
    """

    m00: float
    m11: float
    m01: complex

    def __post_init__(self) -> None:
        _check_finite("MixedState", self.m00, self.m11, self.m01)
        if abs(self.m00 + self.m11 - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"MixedState trace {self.m00 + self.m11!r} != 1"
            )
        det = self.m00 * self.m11 - abs(self.m01) ** 2
        if self.m00 < -PSD_TOL or self.m11 < -PSD_TOL or det < -PSD_TOL:
            raise ValidationError(
                f"MixedState not positive semidefinite "
                f"(m00={self.m00!r}, m11={self.m11!r}, det={det!r})"
            )

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

    Weights must be non-negative and sum to one within 1e-9; they are
    renormalized by their exact sum so the result's trace is 1 to
    floating precision.
    """
    if not components:
        raise ValidationError("mix: empty component list")
    total = 0.0
    for weight, _ in components:
        _check_finite("mix weight", weight)
        if weight < 0.0:
            raise ValidationError(f"mix: negative weight {weight!r}")
        total += weight
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValidationError(f"mix: weights sum to {total!r}, expected 1")
    m00 = sum(w * rho.m00 for w, rho in components) / total
    m11 = sum(w * rho.m11 for w, rho in components) / total
    m01 = sum(w * rho.m01 for w, rho in components) / total
    return MixedState(m00, m11, m01)


def is_pure(rho: MixedState) -> bool:
    """True iff trace(rho^2) >= 1 - 1e-9."""
    return rho.purity() >= 1.0 - PURITY_TOL


MAXIMALLY_MIXED = MixedState(0.5, 0.5, 0j)
