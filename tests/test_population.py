import math
import tracemalloc

import numpy as np
import pytest

from qopinion import (
    BasisRelation,
    MixedState,
    PopulationComponent,
    PopulationSpec,
    Question,
    ValidationError,
    compose_relations,
    fallacy_report,
    pure_from_angles,
)
from qopinion import population
from qopinion.kernels import simulate_answers
from qopinion.measurement import outcome_probability
from qopinion.observables import conditional_probability
from qopinion.population import (
    SimulationTable,
    predicted_fallacy_rate,
    simulate_population,
)
from qopinion.states import _as_density

A = Question("a")
B = Question("b", BasisRelation(0.2, 0.0))

FALLACY_STATE = pure_from_angles(1.8, 0.0)
DIAGONAL_STATE = MixedState(0.2, 0.8, 0j)


def _population(p_fallacy=0.85):
    return PopulationSpec(
        (
            PopulationComponent(p_fallacy, FALLACY_STATE, "swayed"),
            PopulationComponent(1.0 - p_fallacy, DIAGONAL_STATE, "classical"),
        )
    )


def test_population_validation():
    with pytest.raises(ValidationError):
        PopulationSpec(())
    with pytest.raises(ValidationError):
        PopulationSpec((PopulationComponent(-0.2, FALLACY_STATE, "x"),
                        PopulationComponent(1.2, FALLACY_STATE, "y")))
    with pytest.raises(ValidationError):
        PopulationSpec((PopulationComponent(0.5, FALLACY_STATE, "x"),))
    # nan passes both "< 0" and "|sum - 1| > tol" unless checked itself.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="non-finite fraction"):
            PopulationSpec((PopulationComponent(bad, FALLACY_STATE, "x"),
                            PopulationComponent(1.0, FALLACY_STATE, "y")))


def test_predicted_fallacy_rate_is_affine_in_fractions():
    assert predicted_fallacy_rate(_population(0.85), A, B) == 0.85
    assert predicted_fallacy_rate(_population(0.0), A, B) == 0.0
    assert predicted_fallacy_rate(_population(1.0), A, B) == 1.0


def test_diagonal_components_never_count():
    pop = PopulationSpec((PopulationComponent(1.0, DIAGONAL_STATE, "classical"),))
    assert predicted_fallacy_rate(pop, A, B) == 0.0


def test_one_component_rate_agrees_with_fallacy_report():
    # The density path (predicted_fallacy_rate) and the amplitude path
    # (fallacy_report) are two definitions of the same b-side flag.
    rng = np.random.default_rng(20070)
    flagged = 0
    for _ in range(2000):
        theta_a, phi_a, t1, p1, t2, p2 = rng.uniform(-4.0, 7.0, 6)
        a_rel = BasisRelation(t1, p1)
        a = Question("a", a_rel)
        b = Question("b", compose_relations(a_rel, BasisRelation(t2, p2)))
        state = pure_from_angles(theta_a, phi_a)
        pop = PopulationSpec((PopulationComponent(1.0, state, "only"),))
        expected = 1.0 if fallacy_report(state, a, b).fallacy_on_b else 0.0
        assert predicted_fallacy_rate(pop, a, b) == expected
        flagged += expected == 1.0
    assert 200 < flagged < 1800


def test_simulation_is_seed_deterministic():
    pop = _population()
    t1 = simulate_population(pop, A, B, 5000, 99)
    t2 = simulate_population(pop, A, B, 5000, 99)
    assert t1 == t2
    t3 = simulate_population(pop, A, B, 5000, 100)
    assert t3 != t1


def test_simulation_counts_are_consistent():
    table = simulate_population(_population(), A, B, 5000, 7)
    assert table.n_agents == 5000
    assert 0 <= table.count_a1_then_b1 <= table.count_a1 <= 5000
    assert 0 <= table.count_b1_then_a1 <= table.count_b1 <= 5000
    assert table.p_a1 == table.count_a1 / 5000


def test_simulation_matches_prediction_statistically():
    n = 50000
    table = simulate_population(_population(), A, B, n, 2024)
    p_b1_pure = math.sin(2.0) ** 2
    p_b1_mixed = 0.2 * math.sin(0.2) ** 2 + 0.8 * math.cos(0.2) ** 2
    expected = 0.85 * p_b1_pure + 0.15 * p_b1_mixed
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    assert abs(table.p_b1 - expected) < 4.0 * sigma


def test_simulation_rejects_bad_agent_count():
    with pytest.raises(ValidationError):
        simulate_population(_population(), A, B, 0, 1)


def test_simulation_rejects_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        simulate_population(_population(), A, B, 10, -1)


def _reference_counts(pop, a, b, n_agents, seed):
    """The unchunked algorithm: one (n, 5) draw, the kernel, then
    count_nonzero over its unpacked answer codes.  Returns the four counts
    and the 16 joint counts."""
    uniforms = np.random.default_rng(seed).random((n_agents, 5))
    rhos = [_as_density(c.preparation) for c in pop.components]
    cum = np.cumsum([c.fraction for c in pop.components])
    cum[-1] = max(cum[-1], 1.0)
    codes = simulate_answers(
        uniforms,
        cum,
        np.array([outcome_probability(r, a, 1) for r in rhos]),
        np.array([outcome_probability(r, b, 1) for r in rhos]),
        np.array([
            conditional_probability(a, 0, b, 1), conditional_probability(a, 1, b, 1),
            conditional_probability(b, 0, a, 1), conditional_probability(b, 1, a, 1),
        ]),
    )
    answers = np.stack([(codes >> bit) & 1 for bit in range(4)], axis=1).astype(bool)
    a_a, a_b, b_b, b_a = answers.T
    counts = (
        np.count_nonzero(a_a), np.count_nonzero(b_b),
        np.count_nonzero(a_a & a_b), np.count_nonzero(b_b & b_a),
    )
    joint = tuple(
        int(np.count_nonzero((answers == [(code >> bit) & 1 for bit in range(4)]).all(axis=1)))
        for code in range(16)
    )
    return tuple(int(c) for c in counts), joint


THREE_WAY = PopulationSpec(
    (
        PopulationComponent(0.5, FALLACY_STATE, "swayed"),
        PopulationComponent(0.3, DIAGONAL_STATE, "classical"),
        PopulationComponent(0.2, MixedState(0.3, 0.7, 0.2 + 0.1j), "coherent"),
    )
)
CHUNK = population._CHUNK_ROWS


@pytest.mark.parametrize("seed", [0, 2024])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_chunked_draws_match_one_draw(n, seed):
    table = simulate_population(THREE_WAY, A, B, n, seed)
    counts, joint = _reference_counts(THREE_WAY, A, B, n, seed)
    assert table == SimulationTable(n, seed, joint)
    assert (
        table.count_a1, table.count_b1, table.count_a1_then_b1, table.count_b1_then_a1
    ) == counts
    assert len(table.joint_counts) == 16
    assert sum(table.joint_counts) == n


def test_simulation_memory_does_not_grow_with_agents():
    # One (2^22, 5) float64 draw alone would be 160 MiB.
    tracemalloc.start()
    try:
        simulate_population(THREE_WAY, A, B, 1 << 22, 5)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 16
