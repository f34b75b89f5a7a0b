import math
import random

import pytest

from qopinion import (
    BasisRelation,
    Question,
    ValidationError,
    change_basis,
    commutator_is_zero,
    compose_relations,
    conditional_probability,
    eigenvectors_in_reference,
    from_basis,
    pure_from_angles,
    relative_relation,
)
from qopinion.observables import IDENTITY_RELATION, inverse_relation, question_matrix


def test_relation_canonicalization():
    rel = BasisRelation(math.pi + 0.3, -0.5)
    assert abs(rel.theta - 0.3) < 1e-12
    assert abs(rel.phi - (2.0 * math.pi - 0.5)) < 1e-12
    assert BasisRelation(0.0, 0.0) == IDENTITY_RELATION


def test_eigenvectors_are_orthonormal():
    q = Question("b", BasisRelation(0.7, 1.9))
    q0, q1 = eigenvectors_in_reference(q)
    assert abs(q0.overlap(q0) - 1.0) < 1e-14
    assert abs(q1.overlap(q1) - 1.0) < 1e-14
    assert abs(q0.overlap(q1)) < 1e-14


def test_change_basis_components():
    s = pure_from_angles(1.8, 0.0)
    beta = change_basis(s, BasisRelation(0.2, 0.0))
    # Real states rotate by adding the relation angle to the amplitude angle.
    assert abs(beta.amp0 - math.cos(2.0)) < 1e-14
    assert abs(beta.amp1 - math.sin(2.0)) < 1e-14


def test_change_basis_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        s = pure_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        rel = BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        back = from_basis(change_basis(s, rel), rel)
        assert abs(back.amp0 - s.amp0) < 1e-12
        assert abs(back.amp1 - s.amp1) < 1e-12


def test_change_basis_matches_eigenvector_overlaps():
    s = pure_from_angles(0.9, 2.3)
    rel = BasisRelation(0.6, 4.0)
    q = Question("q", rel)
    q0, q1 = eigenvectors_in_reference(q)
    beta = change_basis(s, rel)
    assert abs(beta.amp0 - q0.overlap(s)) < 1e-14
    assert abs(beta.amp1 - q1.overlap(s)) < 1e-14


def test_inverse_relation_round_trip():
    rel = BasisRelation(0.4, 1.1)
    inv = inverse_relation(rel)
    s = pure_from_angles(0.8, 0.5)
    back = change_basis(change_basis(s, rel), inv)
    assert abs(back.amp0 - s.amp0) < 1e-12
    assert abs(back.amp1 - s.amp1) < 1e-12


def test_relative_relation_identity_paths():
    a = Question("a")
    b = Question("b", BasisRelation(0.3, 0.9))
    assert relative_relation(a, b) == b.relation_to_reference
    rel = relative_relation(b, a)
    assert abs(rel.theta - 0.3) < 1e-12
    assert abs(rel.phi - (0.9 + math.pi)) < 1e-12


def test_relative_relation_generic_preserves_probabilities():
    rng = random.Random(11)
    for _ in range(100):
        a = Question("a", BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
        b = Question("b", BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
        rel = relative_relation(a, b)
        a0, _ = eigenvectors_in_reference(a)
        b0, b1 = eigenvectors_in_reference(b)
        assert abs(abs(a0.overlap(b0)) ** 2 - math.cos(rel.theta) ** 2) < 1e-12
        assert abs(abs(a0.overlap(b1)) ** 2 - math.sin(rel.theta) ** 2) < 1e-12


def test_compose_relations_matches_sequential_rotation():
    rng = random.Random(3)
    for _ in range(100):
        base = BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        local = BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        composed = compose_relations(base, local)
        s = pure_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        direct = change_basis(s, composed)
        chained = change_basis(change_basis(s, base), local)
        # Same basis up to eigenvector phase: probabilities must agree.
        assert abs(abs(direct.amp0) - abs(chained.amp0)) < 1e-12
        assert abs(abs(direct.amp1) - abs(chained.amp1)) < 1e-12


def _round_trip_gap(ra, rb):
    """Largest entry of |Q_back - Q_b|, where Q_back is the question built by
    composing relative_relation(a, b) back onto a."""
    a, b = Question("a", ra), Question("b", rb)
    back = Question("back", compose_relations(ra, relative_relation(a, b)))
    mb, mback = question_matrix(b), question_matrix(back)
    return max(abs(mb[i][j] - mback[i][j]) for i in (0, 1) for j in (0, 1))


def _draw(rng):
    return BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))


def test_relative_relation_composes_back_onto_the_target():
    rng = random.Random(1907)
    # From the identity; and a = b = (pi/2, 0), whose overlap <a0|a0> is
    # exactly 1, so relative_relation returns the identity relation and
    # compose_relations returns the base unchanged.
    cases = [(IDENTITY_RELATION, _draw(rng)), (BasisRelation(math.pi / 2, 0.0),) * 2]
    for _ in range(300):
        a = _draw(rng)
        quarter_turn = BasisRelation(math.pi / 2, rng.uniform(0.1, 2 * math.pi - 0.1))
        cases += [(a, _draw(rng)), (a, compose_relations(a, quarter_turn))]
    for ra, rb in cases:
        assert _round_trip_gap(ra, rb) <= 1e-12


def test_relative_relation_composes_back_at_zero_tilt():
    rng = random.Random(1908)
    cases = []
    for _ in range(50):
        a, phi = _draw(rng), rng.uniform(0.1, 2 * math.pi - 0.1)
        cases += [(a, compose_relations(a, BasisRelation(0.0, phi))), (a, BasisRelation(0.0, phi))]
    assert max(_round_trip_gap(ra, rb) for ra, rb in cases) <= 1e-12


def test_conditional_probability_symmetry_and_values():
    a = Question("a")
    b = Question("b", BasisRelation(0.2, 0.0))
    assert abs(conditional_probability(a, 1, b, 1) - math.cos(0.2) ** 2) < 1e-14
    assert abs(conditional_probability(a, 0, b, 1) - math.sin(0.2) ** 2) < 1e-14
    assert conditional_probability(a, 1, b, 1) == pytest.approx(
        conditional_probability(b, 1, a, 1), abs=1e-14
    )
    with pytest.raises(ValidationError):
        conditional_probability(a, 2, b, 1)


def test_question_matrix_is_projector():
    q = Question("q", BasisRelation(0.8, 1.2))
    m = question_matrix(q)
    assert abs(m[0][0] + m[1][1] - 1.0 + (1.0 - (m[0][0] + m[1][1]).real)) >= 0
    # Idempotent: M^2 == M entrywise.
    sq = [
        [m[0][0] * m[0][0] + m[0][1] * m[1][0], m[0][0] * m[0][1] + m[0][1] * m[1][1]],
        [m[1][0] * m[0][0] + m[1][1] * m[1][0], m[1][0] * m[0][1] + m[1][1] * m[1][1]],
    ]
    for i in (0, 1):
        for j in (0, 1):
            assert abs(sq[i][j] - m[i][j]) < 1e-14


def test_commutator_detection():
    a = Question("a")
    assert commutator_is_zero(a, Question("same", BasisRelation(0.0, 0.0)))
    # A pi/2 tilt swaps eigenvectors; both operators stay diagonal.
    assert commutator_is_zero(a, Question("swap", BasisRelation(math.pi / 2, 0.0)))
    assert not commutator_is_zero(a, Question("tilted", BasisRelation(0.3, 0.0)))


def _matrix_commutator(a, b):
    """AB - BA from the dense matrices: the reference for commutator_is_zero."""
    ma, mb = question_matrix(a), question_matrix(b)

    def matmul(x, y):
        return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in (0, 1)] for i in (0, 1)]

    ab, ba = matmul(ma, mb), matmul(mb, ma)
    return [[ab[i][j] - ba[i][j] for j in (0, 1)] for i in (0, 1)]


def test_commutator_from_the_tilt_matches_the_matrix_product():
    # AB - BA is traceless and anti-hermitian, so its operator norm is
    # sqrt(|c00|^2 + |c01|^2) while its largest entry lies between norm/sqrt(2)
    # and norm: the old entry-wise test and the norm test must differ on
    # norms in [1e-12, sqrt(2) * 1e-12), and only there.
    rng = random.Random(1212)
    compared = {True: 0, False: 0}
    skipped = 0
    for k in range(3000):
        a = _draw(rng)
        kind = k % 5
        tilt = [
            0.0,
            math.pi / 2,
            10.0 ** rng.uniform(-14.0, -10.0),
            math.pi / 2 + 10.0 ** rng.uniform(-14.0, -10.0),
            rng.uniform(0.0, math.pi),
        ][kind]
        b = compose_relations(a, BasisRelation(tilt, rng.uniform(0.0, 2 * math.pi)))
        qa, qb = Question("a", a), Question("b", b)
        if rng.random() < 0.5:
            qa, qb = qb, qa
        c = _matrix_commutator(qa, qb)
        norm = math.sqrt(abs(c[0][0]) ** 2 + abs(c[0][1]) ** 2)
        if kind < 2:
            # Equal and quarter-turn tilts commute whatever the bases.
            assert norm < 1e-15
            assert commutator_is_zero(qa, qb)
        if 1e-12 <= norm < math.sqrt(2.0) * 1e-12:
            skipped += 1
            continue
        expected = max(abs(c[i][j]) for i in (0, 1) for j in (0, 1)) < 1e-12
        assert commutator_is_zero(qa, qb) == expected, (a, b, norm)
        compared[expected] += 1
    assert skipped < 100
    assert min(compared.values()) > 1000
