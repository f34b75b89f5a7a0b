"""Seeded properties of ordered answer chains over random composed questions.

States are random pure states and mixtures of two of them, all with a
non-zero relative phase; each chain has 2-4 questions, each declared
relative to the reference or to an earlier question, as ``question q from
base theta=... phi=...`` does.  Sum-to-one and the QQ equality hold for any
projectors, so the chain probabilities are also checked against a reference
that builds each question's eigenvectors from its base's eigenvectors and
its declared angles (no :func:`compose_relations`) and projects the state
step by step.
"""

import cmath
import itertools
import math
import random

import pytest

from qopinion import (
    BasisRelation,
    OutcomeStep,
    Question,
    compose_relations,
    consecutive_probability,
    density_from_pure,
    mix,
    pure_from_angles,
)

TOL = 1e-12
TRIALS = 200

_REF0, _REF1 = (1.0 + 0j, 0j), (0j, 1.0 + 0j)


def _combine(x, u, y, v):
    """x * u + y * v for 2-vectors u, v."""
    return (x * u[0] + y * v[0], x * u[1] + y * v[1])


def _declared(base, theta, phi):
    """Eigenvectors of a question declared from ``base``'s eigenvectors:
    |q0> = cos t |b0> - sin t e^{i phi} |b1>, |q1> = sin t e^{-i phi} |b0> + cos t |b1>."""
    b0, b1 = base
    c, s, e = math.cos(theta), math.sin(theta), cmath.exp(1j * phi)
    return _combine(c, b0, -s * e, b1), _combine(s / e, b0, c, b1)


def _chain_reference(vector, steps):
    """||P_k ... P_1 psi||^2 for eigenvector projectors P_i = |v_i><v_i|."""
    for v in steps:
        overlap = v[0].conjugate() * vector[0] + v[1].conjugate() * vector[1]
        vector = (overlap * v[0], overlap * v[1])
    return abs(vector[0]) ** 2 + abs(vector[1]) ** 2


def _random_state(rng):
    """(density matrix, [(weight, amplitudes)]) for a pure state or a mixture
    of two, each with phase in (0.1, 2 pi - 0.1)."""
    def pure():
        return pure_from_angles(rng.uniform(0.0, math.pi), rng.uniform(0.1, 2 * math.pi - 0.1))

    parts = [(1.0, pure())]
    if rng.random() < 0.5:
        w = rng.uniform(0.05, 0.95)
        parts = [(w, pure()), (1.0 - w, pure())]
    rho = mix([(w, density_from_pure(s)) for w, s in parts])
    return rho, [(w, (s.amp0, s.amp1)) for w, s in parts]


def _random_chain(rng):
    """2-4 (Question, literal eigenvectors) pairs, each declared from the
    reference or from an earlier question of the chain.

    A question declared from a base is placed relative to the base's own
    eigenvectors, which the base's relation to the reference fixes (phases
    included) as the module docstring of :mod:`qopinion.observables` writes.
    """
    questions = [Question("r")]
    chain = []
    for i in range(rng.randint(2, 4)):
        base = rng.choice(questions).relation_to_reference
        theta, phi = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, 2 * math.pi)
        q = Question(f"q{i}", compose_relations(base, BasisRelation(theta, phi)))
        base_vecs = _declared((_REF0, _REF1), base.theta, base.phi)
        chain.append((q, _declared(base_vecs, theta, phi)))
        questions.append(q)
    return chain


@pytest.fixture(scope="module")
def trials():
    rng = random.Random(20131)
    return [(_random_state(rng), _random_chain(rng)) for _ in range(TRIALS)]


def _p(rho, chain, outcomes):
    return consecutive_probability(
        rho, [OutcomeStep(q, o) for (q, _), o in zip(chain, outcomes)]
    )


def test_chain_probabilities_match_the_declared_projectors(trials):
    for (rho, parts), chain in trials:
        for outcomes in itertools.product((0, 1), repeat=len(chain)):
            steps = [vecs[o] for (_, vecs), o in zip(chain, outcomes)]
            expected = sum(w * _chain_reference(psi, steps) for w, psi in parts)
            assert abs(_p(rho, chain, outcomes) - expected) <= TOL


def test_chain_outcomes_sum_to_one(trials):
    for (rho, _), chain in trials:
        total = sum(
            _p(rho, chain, outcomes)
            for outcomes in itertools.product((0, 1), repeat=len(chain))
        )
        assert abs(total - 1.0) <= TOL


def test_qq_equality_for_every_ordered_pair(trials):
    """p(A1 B0) + p(A0 B1) = p(B1 A0) + p(B0 A1) (Wang & Busemeyer 2013)."""
    for (rho, _), chain in trials:
        for a, b in itertools.combinations(chain, 2):
            ab = _p(rho, [a, b], (1, 0)) + _p(rho, [a, b], (0, 1))
            ba = _p(rho, [b, a], (1, 0)) + _p(rho, [b, a], (0, 1))
            assert abs(ab - ba) <= TOL
