"""Model-level invariants of the fallacy comparison, from its Bloch geometry.

Write a state as rho = (I + r.sigma)/2 and let m_q be the Bloch vector of
answer 1 of question q, so P(q1) = (1 + r.m_q)/2 and, with t the tilt
between a and b, P(b1 | a1) = cos^2 t = (1 + m_a.m_b)/2.  The b-side fallacy
P(b1) < cos^2 t P(a1) is then the half-space

    r.v_b < -sin^2 t,   v_b = m_b - cos^2 t m_a,   |v_b| = sin t sqrt(1 + 3 cos^2 t),

and the a side swaps a and b.  The two conditions add up to
r.(m_a + m_b) < -2, which no state meets.  Every expected value below is
computed in plain ``math`` from these vectors, never through the package's
own arithmetic.
"""

import math
import random

import numpy as np
import pytest

from qopinion import (
    BasisRelation,
    PureState,
    Question,
    compose_relations,
    fallacy_report,
    sweep_fallacy_map,
)
from qopinion.analysis import GridRange
from qopinion.fallacy import FALLACY_GUARD

A = Question("a")


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _state_vector(s: PureState):
    """r of |s><s| = (I + r.sigma)/2."""
    c = s.amp0 * s.amp1.conjugate()
    return 2.0 * c.real, -2.0 * c.imag, abs(s.amp0) ** 2 - abs(s.amp1) ** 2


def _answer_vector(q: Question):
    """m_q, the Bloch vector of q's answer-1 eigenvector
    sin(theta) e^{-i phi}|r0> + cos(theta)|r1>."""
    theta, phi = q.relation_to_reference.theta, q.relation_to_reference.phi
    return (
        math.sin(2 * theta) * math.cos(phi),
        math.sin(2 * theta) * math.sin(phi),
        -math.cos(2 * theta),
    )


def _fallacy_vector(m_x, m_y):
    """(v, sin^2 t) for the side where y's probability is compared with
    cos^2 t times x's: that side flags where r.v < -sin^2 t."""
    cos2 = (1.0 + _dot(m_x, m_y)) / 2.0
    return tuple(y - cos2 * x for x, y in zip(m_x, m_y)), 1.0 - cos2


def _random_state(rng):
    """A Haar-random pure state: a normalised complex Gaussian vector."""
    g = [rng.gauss(0.0, 1.0) for _ in range(4)]
    return PureState.normalized(complex(g[0], g[1]), complex(g[2], g[3]))


def _random_relation(rng):
    return BasisRelation(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))


def _composed_pair(rng):
    """Questions a off the reference and b declared from a."""
    a = Question("a", compose_relations(_random_relation(rng), _random_relation(rng)))
    b = Question("b", compose_relations(a.relation_to_reference, _random_relation(rng)))
    return a, b


def test_each_side_is_its_half_space_and_no_state_is_on_both():
    rng = random.Random(16)
    checked = {"b": 0, "a": 0}
    for _ in range(3000):
        s = _random_state(rng)
        a, b = _composed_pair(rng)
        rep = fallacy_report(s, a, b)
        assert not (rep.fallacy_a and rep.fallacy_b)
        r, m_a, m_b = _state_vector(s), _answer_vector(a), _answer_vector(b)
        for side, flagged, (v, sin2) in (
            ("b", rep.fallacy_b, _fallacy_vector(m_a, m_b)),
            ("a", rep.fallacy_a, _fallacy_vector(m_b, m_a)),
        ):
            margin = (_dot(r, v) + sin2) / 2.0  # P(y1) - cos^2 t P(x1)
            if abs(margin + FALLACY_GUARD) > 1e-9:
                assert flagged == (margin < -FALLACY_GUARD), (side, margin)
                checked[side] += flagged
    # Each side's half-space holds about a third of these states.
    assert min(checked.values()) > 600, checked


N = 256
# Full-period midpoint grid: theta_a runs once round the xz great circle.
MIDPOINTS = GridRange(math.pi / (2 * N), math.pi - math.pi / (2 * N), N)


def _arc_share(m_x, m_y):
    """Share of the xz great circle, on which the raster's real states lie,
    inside the half-space of the side comparing y with x."""
    v, sin2 = _fallacy_vector(m_x, m_y)
    rho = math.hypot(v[0], v[2])
    return math.acos(min(1.0, sin2 / rho)) / math.pi


@pytest.mark.parametrize("phi", [0.0, math.pi / 3, math.pi / 2])
def test_each_raster_row_flags_one_arc_per_side(phi):
    sweep = sweep_fallacy_map(MIDPOINTS, MIDPOINTS, phi)
    assert not np.any(sweep.fallacy_a & sweep.fallacy_b)
    m_a = _answer_vector(A)
    for i, theta in enumerate(sweep.theta.tolist()):
        m_b = _answer_vector(Question("b", BasisRelation(theta, phi)))
        for flags, share in (
            (sweep.fallacy_b, _arc_share(m_a, m_b)),
            (sweep.fallacy_a, _arc_share(m_b, m_a)),
        ):
            assert abs(int(flags[i].sum()) - N * share) <= 1.0, (theta, share)
    if phi == math.pi / 2:  # v_b lies along y and z: sin^2 t / rho = 1
        assert not sweep.fallacy_b.any()
        assert sweep.fallacy_a.any()


@pytest.mark.parametrize("tilt", [0.3, 1.1])
def test_haar_fraction_per_side_is_the_cap_area(tilt):
    rng = random.Random(round(tilt * 1000))
    a = Question("a", BasisRelation(0.7, 1.9))
    b = Question("b", compose_relations(a.relation_to_reference, BasisRelation(tilt, 0.4)))
    # Archimedes: a cap r.n < -h of the unit sphere has area fraction (1 - h)/2.
    expected = (1.0 - math.sin(tilt) / math.sqrt(1.0 + 3.0 * math.cos(tilt) ** 2)) / 2.0
    n = 8000
    counts = {"b": 0, "a": 0}
    for _ in range(n):
        rep = fallacy_report(_random_state(rng), a, b)
        assert not (rep.fallacy_a and rep.fallacy_b)
        counts["b"] += rep.fallacy_b
        counts["a"] += rep.fallacy_a
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    for side, count in counts.items():
        assert abs(count / n - expected) <= 5.0 * sigma, (side, count / n, expected)
