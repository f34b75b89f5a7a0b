"""The population answer kernel, vectorized over agents with numpy."""

import numpy as np


def simulate_answers(uniforms, cum_fractions, p_a1, p_b1, cond):
    """Answers of every agent to both question orders.

    uniforms: (n, 5) matrix consumed column-wise per agent in the order
    component draw, A-first pair, B-first pair.  cond holds the four
    conditional probabilities (b1|a0, b1|a1, a1|b0, a1|b1).  Returns an
    (n, 4) uint8 matrix of answers (aA, aB, bB, bA).
    """
    comp = np.searchsorted(cum_fractions, uniforms[:, 0], side="right")
    comp = np.minimum(comp, len(cum_fractions) - 1)
    ans_a = uniforms[:, 1] < p_a1[comp]
    ans_b_after_a = uniforms[:, 2] < np.where(ans_a, cond[1], cond[0])
    ans_b = uniforms[:, 3] < p_b1[comp]
    ans_a_after_b = uniforms[:, 4] < np.where(ans_b, cond[3], cond[2])
    out = np.empty((uniforms.shape[0], 4), dtype=np.uint8)
    out[:, 0] = ans_a
    out[:, 1] = ans_b_after_a
    out[:, 2] = ans_b
    out[:, 3] = ans_a_after_b
    return out


def backend_name() -> str:
    return "numpy"
