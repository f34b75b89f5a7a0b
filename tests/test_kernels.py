import numpy as np
import pytest

from qopinion import kernels


def _inputs(n=20000, seed=1):
    rng = np.random.default_rng(seed)
    uniforms = rng.random((n, 5))
    cum = np.array([0.3, 0.85, 1.0])
    p_a1 = np.array([0.2, 0.9, 0.55])
    p_b1 = np.array([0.5, 0.6, 0.1])
    cond = np.array([0.1, 0.9, 0.15, 0.95])
    return uniforms, cum, p_a1, p_b1, cond


def _simulate_answers_loop(uniforms, cum_fractions, p_a1, p_b1, cond):
    """Slow per-agent reference for kernels.simulate_answers: each agent's
    answers packed as aA | aB<<1 | bB<<2 | bA<<3."""
    n = uniforms.shape[0]
    k = cum_fractions.shape[0]
    out = np.empty(n, dtype=np.uint8)
    for agent in range(n):
        u_comp = uniforms[agent, 0]
        comp = k - 1
        for c in range(k):
            if u_comp < cum_fractions[c]:
                comp = c
                break
        a_first_a = uniforms[agent, 1] < p_a1[comp]
        if a_first_a:
            a_first_b = uniforms[agent, 2] < cond[1]
        else:
            a_first_b = uniforms[agent, 2] < cond[0]
        b_first_b = uniforms[agent, 3] < p_b1[comp]
        if b_first_b:
            b_first_a = uniforms[agent, 4] < cond[3]
        else:
            b_first_a = uniforms[agent, 4] < cond[2]
        out[agent] = a_first_a | a_first_b << 1 | b_first_b << 2 | b_first_a << 3
    return out


def test_backends_are_bit_identical():
    args = _inputs()
    vec = kernels.simulate_answers(*args)
    loop = _simulate_answers_loop(*args)
    assert np.array_equal(vec, loop)
    assert vec.dtype == np.uint8
    assert vec.shape == (args[0].shape[0],)
    bits = (kernels.A_FIRST_A, kernels.A_FIRST_B, kernels.B_FIRST_B, kernels.B_FIRST_A)
    assert bits == (1, 2, 4, 8)


def test_active_backend_matches_reference():
    args = _inputs(seed=2)
    assert np.array_equal(kernels.simulate_answers(*args), _simulate_answers_loop(*args))


def test_component_assignment_respects_fractions():
    uniforms, cum, p_a1, p_b1, cond = _inputs(n=200000, seed=3)
    # Degenerate answer probabilities make the component choice observable.
    p_a1 = np.array([1.0, 0.0, 1.0])
    out = kernels.simulate_answers(uniforms, cum, p_a1, p_b1, cond)
    frac_comp_not_1 = (out & kernels.A_FIRST_A).mean()
    assert abs(frac_comp_not_1 - 0.45) < 0.01


def test_draws_above_the_last_fraction_go_to_the_last_component():
    uniforms, cum, p_a1, p_b1, cond = _inputs(seed=4)
    short = np.array([0.3, 0.85, 0.9])  # fractions that sum to less than one
    out = kernels.simulate_answers(uniforms, short, p_a1, p_b1, cond)
    assert np.array_equal(out, _simulate_answers_loop(uniforms, short, p_a1, p_b1, cond))
    assert np.array_equal(out, kernels.simulate_answers(uniforms, cum, p_a1, p_b1, cond))


# Crowds whose draws land on the component edges: a repeated cumulative
# fraction is a zero-fraction component, and 300 components count past uint8.
EDGE_CUMS = {
    "three": [0.3, 0.85, 1.0],
    "zero_fractions": [0.25, 0.25, 0.6, 0.6, 1.0, 1.0],
    "one": [1.0],
    "eight": np.cumsum([0.05, 0.2, 0.1, 0.0, 0.15, 0.3, 0.1, 0.1]),
    "three_hundred": np.arange(1, 301) / 300,
}
EDGE_CONDS = {"interior": [0.1, 0.9, 0.15, 0.95], "certain": [0.0, 1.0, 1.0, 0.0]}


@pytest.mark.parametrize("cond", EDGE_CONDS.values(), ids=EDGE_CONDS.keys())
@pytest.mark.parametrize("cum", EDGE_CUMS.values(), ids=EDGE_CUMS.keys())
def test_draws_on_the_edges_match_the_loop(cum, cond):
    cum = np.asarray(cum, dtype=float)
    cond = np.array(cond)
    k = len(cum)
    # Per component P(a1), P(b1) cycle through 0, 1 and an interior value.
    p_a1 = np.resize([0.0, 1.0, 0.4], k)
    p_b1 = np.resize([1.0, 0.7, 0.0], k)
    uniforms = np.random.default_rng(k).random((3 * k + 40, 5))
    # Column 0 takes 0.0, every edge and the float just below each edge.  The
    # answer columns take 0.0, and draws equal to 0.4 = P(a1), 0.7 = P(b1) and
    # each conditional where the first answer selects it (yes where P is 1).
    comp_draws = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0)])
    uniforms[: len(comp_draws), 0] = comp_draws
    uniforms[0::4, 1:] = 0.0
    uniforms[1::4, 1:] = [0.4, cond[1], 0.7, cond[3]]
    uniforms[2::4, 1:] = [0.4, cond[0], 0.7, cond[2]]
    args = (uniforms, cum, p_a1, p_b1, cond)
    assert np.array_equal(kernels.simulate_answers(*args), _simulate_answers_loop(*args))
