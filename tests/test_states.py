import math

import pytest

from qopinion import (
    MAXIMALLY_MIXED,
    MixedState,
    PureState,
    ValidationError,
    density_from_pure,
    is_pure,
    mix,
    pure_from_angles,
)


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValidationError):
        PureState(1.0 + 0j, 0.5 + 0j)


def test_pure_state_rejects_non_finite():
    with pytest.raises(ValidationError):
        PureState(complex(math.nan), 0j)


def test_normalized_rescales():
    s = PureState.normalized(3.0, 4.0j)
    assert abs(abs(s.amp0) ** 2 + abs(s.amp1) ** 2 - 1.0) < 1e-15
    assert abs(s.amp0 - 0.6) < 1e-15
    assert abs(s.amp1 - 0.8j) < 1e-15


def test_normalized_rejects_zero_vector():
    with pytest.raises(ValidationError):
        PureState.normalized(0.0, 0.0)


def test_overlap_and_phase_equality():
    s = pure_from_angles(0.7, 0.3)
    rotated = PureState(s.amp0 * 1j, s.amp1 * 1j)
    assert abs(s.overlap(s) - 1.0) < 1e-15
    assert s.equals_up_to_phase(rotated)
    assert not s.equals_up_to_phase(pure_from_angles(0.7 + 0.5, 0.3))


def test_pure_from_angles_components():
    s = pure_from_angles(1.8, 0.0)
    assert abs(s.amp0 - math.cos(1.8)) < 1e-15
    assert abs(s.amp1 - math.sin(1.8)) < 1e-15
    t = pure_from_angles(0.4, math.pi / 2)
    assert abs(t.amp1 - math.sin(0.4) * 1j) < 1e-15


def test_mixed_state_trace_validation():
    with pytest.raises(ValidationError):
        MixedState(0.6, 0.6, 0j)


def test_mixed_state_psd_validation():
    # Trace is fine but the off-diagonal is too large for positivity.
    with pytest.raises(ValidationError):
        MixedState(0.5, 0.5, 0.9 + 0j)
    with pytest.raises(ValidationError):
        MixedState(-0.1, 1.1, 0j)


def test_m10_is_conjugate():
    rho = MixedState(0.5, 0.5, 0.1 + 0.2j)
    assert rho.m10 == (0.1 - 0.2j)


def test_density_from_pure_is_pure():
    rho = density_from_pure(pure_from_angles(1.1, 2.2))
    assert abs(rho.purity() - 1.0) < 1e-14
    assert is_pure(rho)
    assert not is_pure(MAXIMALLY_MIXED)
    assert abs(MAXIMALLY_MIXED.purity() - 0.5) < 1e-15


def test_expectation_matches_projection():
    s = pure_from_angles(0.9, 0.4)
    rho = density_from_pure(s)
    v = pure_from_angles(0.2, 1.0)
    assert abs(rho.expectation(v) - abs(v.overlap(s)) ** 2) < 1e-14


def test_element_is_the_matrix_entry_between_two_directions():
    rho = MixedState(0.3, 0.7, 0.2 - 0.1j)
    e0, e1 = PureState(1 + 0j, 0j), PureState(0j, 1 + 0j)
    assert rho.element(e0, e1) == rho.m01
    assert rho.element(e1, e0) == rho.m10
    # For a pure rho = |s><s|, <u|rho|v> = <u|s><s|v>.
    s, u = pure_from_angles(0.9, 0.4), pure_from_angles(0.2, 1.0)
    v = pure_from_angles(1.3, -0.5)
    assert abs(density_from_pure(s).element(u, v) - u.overlap(s) * s.overlap(v)) < 1e-14
    assert abs(rho.element(u, v) - rho.element(v, u).conjugate()) < 1e-15


def test_mix_validates_weights():
    rho = MAXIMALLY_MIXED
    with pytest.raises(ValidationError):
        mix([])
    with pytest.raises(ValidationError):
        mix([(-0.1, rho), (1.1, rho)])
    with pytest.raises(ValidationError):
        mix([(0.5, rho), (0.6, rho)])


def test_mix_renormalizes_to_exact_trace():
    a = density_from_pure(pure_from_angles(0.3, 0.0))
    b = density_from_pure(pure_from_angles(1.4, 0.0))
    out = mix([(0.25, a), (0.75, b)])
    assert abs(out.m00 + out.m11 - 1.0) < 1e-15
    assert abs(out.m00 - (0.25 * a.m00 + 0.75 * b.m00)) < 1e-15
