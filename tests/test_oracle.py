import math
import random

import pytest

from qopinion import (
    BasisRelation,
    MixedState,
    PopulationComponent,
    PopulationSpec,
    Question,
    ValidationError,
    mix,
    population,
    pure_from_angles,
    simulate_population,
)
from qopinion.kernels import A_FIRST_A, A_FIRST_B, B_FIRST_A, B_FIRST_B, simulate_answers
from qopinion.measurement import outcome_probability
from qopinion.observables import conditional_probability
from qopinion.oracle import (
    brute_force_outcome_probability,
    classical_total_probability,
    crowd_code_distribution,
)
from qopinion.states import _as_density


def test_brute_force_hand_values():
    # Real state at 1.8 against a 0.2 tilt: rotated angle is 2.0.
    s = pure_from_angles(1.8, 0.0)
    rel = BasisRelation(0.2, 0.0)
    assert brute_force_outcome_probability(s, rel, 1) == pytest.approx(
        math.sin(2.0) ** 2, abs=1e-14
    )
    assert brute_force_outcome_probability(s, rel, 0) == pytest.approx(
        math.cos(2.0) ** 2, abs=1e-14
    )


def test_brute_force_sums_to_one():
    s = pure_from_angles(0.9, 2.1)
    rel = BasisRelation(1.3, 0.7)
    total = brute_force_outcome_probability(s, rel, 0) + brute_force_outcome_probability(
        s, rel, 1
    )
    assert total == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValidationError):
        brute_force_outcome_probability(s, rel, 2)


def test_classical_total_probability():
    assert classical_total_probability(0.3, 0.2, 0.8) == pytest.approx(
        0.7 * 0.2 + 0.3 * 0.8, abs=1e-15
    )
    # Classical two-path totals never undercut the conjunction bound.
    assert classical_total_probability(0.3, 0.0, 0.8) >= 0.3 * 0.8
    with pytest.raises(ValidationError):
        classical_total_probability(1.2, 0.5, 0.5)
    with pytest.raises(ValidationError):
        classical_total_probability(0.5, -0.1, 0.5)


def _random_crowd(rng):
    """A seeded population of 1-3 pure or mixed components and a question
    pair, each question at a random relation to the reference."""
    def pure():
        return pure_from_angles(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))

    def mixed():
        w = rng.uniform(0.05, 0.95)
        return mix([(w, _as_density(pure())), (1.0 - w, _as_density(pure()))])

    weights = [rng.uniform(0.1, 1.0) for _ in range(rng.randint(1, 3))]
    pop = PopulationSpec(tuple(
        PopulationComponent(w / sum(weights), rng.choice((pure, mixed))(), f"c{i}")
        for i, w in enumerate(weights)
    ))
    a, b = (
        Question(name, BasisRelation(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)))
        for name in "ab"
    )
    return pop, a, b


CROWDS = [_random_crowd(random.Random(seed)) for seed in range(40)]
FIXED_CROWD = (
    PopulationSpec((
        PopulationComponent(0.5, pure_from_angles(1.8, 0.0), "swayed"),
        PopulationComponent(0.3, MixedState(0.2, 0.8, 0j), "classical"),
        PopulationComponent(0.2, MixedState(0.3, 0.7, 0.2 + 0.1j), "coherent"),
    )),
    Question("a"),
    Question("b", BasisRelation(0.2, 0.0)),
)


def _marginal(dist, bits):
    return sum(p for code, p in enumerate(dist) if code & bits == bits)


@pytest.mark.parametrize("crowd", CROWDS)
def test_crowd_distribution_sums_to_one_and_matches_the_born_marginals(crowd):
    pop, a, b = crowd
    dist = crowd_code_distribution(pop, a, b)
    assert len(dist) == 16 and min(dist) >= 0.0
    assert sum(dist) == pytest.approx(1.0, abs=1e-12)
    parts = [(c.fraction, _as_density(c.preparation)) for c in pop.components]
    p_a1 = sum(w * outcome_probability(rho, a, 1) for w, rho in parts)
    p_b1 = sum(w * outcome_probability(rho, b, 1) for w, rho in parts)
    assert _marginal(dist, A_FIRST_A) == pytest.approx(p_a1, abs=1e-12)
    assert _marginal(dist, B_FIRST_B) == pytest.approx(p_b1, abs=1e-12)
    assert _marginal(dist, A_FIRST_A | A_FIRST_B) == pytest.approx(
        p_a1 * conditional_probability(a, 1, b, 1), abs=1e-12
    )
    assert _marginal(dist, B_FIRST_B | B_FIRST_A) == pytest.approx(
        p_b1 * conditional_probability(b, 1, a, 1), abs=1e-12
    )


def _chi2_sf(x, df):
    """P(X > x) for X chi-square with ``df`` degrees of freedom: the upper
    regularized gamma Q(df/2, x/2), by its series below s + 1 and its
    continued fraction above."""
    s, x = df / 2.0, x / 2.0
    if x <= 0.0:
        return 1.0
    scale = math.exp(-x + s * math.log(x) - math.lgamma(s))
    if x < s + 1.0:
        term = total = 1.0 / s
        n = s
        while term > total * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - scale * total
    b = x + 1.0 - s
    c, d = 1e300, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return scale * h


def test_chi2_sf_known_values():
    # P(X > 2) with 2 dof is e^-1; with 1 dof P(X > 1) = erfc(1/sqrt 2).
    assert _chi2_sf(2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert _chi2_sf(1.0, 1) == pytest.approx(math.erfc(math.sqrt(0.5)), rel=1e-12)
    assert _chi2_sf(40.0, 4) == pytest.approx(21.0 * math.exp(-20.0), rel=1e-12)
    assert _chi2_sf(5.0, 15) == pytest.approx(0.9921264113445191, rel=1e-12)  # scipy.stats.chi2.sf


def _chi2_p(counts, dist):
    """Chi-square p-value of the counts against ``dist``, cells expecting
    fewer than 5 agents pooled into one."""
    n = sum(counts)
    big = [(c, n * p) for c, p in zip(counts, dist) if n * p >= 5.0]
    small = [(c, n * p) for c, p in zip(counts, dist) if n * p < 5.0]
    cells = big + [(sum(c for c, _ in small), sum(e for _, e in small))] if small else big
    stat = sum((c - e) ** 2 / e for c, e in cells if e > 0.0)
    return _chi2_sf(stat, len(cells) - 1)


@pytest.mark.parametrize("crowd", [FIXED_CROWD, *CROWDS[:3]])
def test_simulated_codes_follow_the_crowd_distribution(crowd):
    pop, a, b = crowd
    table = simulate_population(pop, a, b, 10**6, 17)
    assert _chi2_p(table.joint_counts, crowd_code_distribution(pop, a, b)) > 1e-6


def test_a_kernel_with_swapped_conditionals_fails_the_distribution(monkeypatch):
    def swapped(uniforms, cum, p_a1, p_b1, cond):
        return simulate_answers(uniforms, cum, p_a1, p_b1, cond[[1, 0, 2, 3]])

    monkeypatch.setattr(population, "simulate_answers", swapped)
    pop, a, b = FIXED_CROWD
    table = simulate_population(pop, a, b, 10**6, 17)
    assert _chi2_p(table.joint_counts, crowd_code_distribution(pop, a, b)) < 1e-6
