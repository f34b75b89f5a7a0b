"""The population answer kernel, vectorized over agents with numpy."""

import numpy as np

# Bits of an agent's answer code: (aA, aB) for A then B, (bB, bA) for B then A.
A_FIRST_A, A_FIRST_B, B_FIRST_B, B_FIRST_A = 1, 2, 4, 8


def simulate_answers(uniforms, cum_fractions, p_a1, p_b1, cond):
    """Answer codes of every agent for both question orders.

    uniforms: (n, 5) matrix consumed column-wise per agent in the order
    component draw, A-first pair, B-first pair.  cond holds the four
    conditional probabilities (b1|a0, b1|a1, a1|b0, a1|b1).  Returns an
    (n,) uint8 array of answer codes, one bit per answer as above.
    """
    comp = np.searchsorted(cum_fractions, uniforms[:, 0], side="right")
    comp = np.minimum(comp, len(cum_fractions) - 1)  # fractions summing to just under 1
    ans_a = uniforms[:, 1] < p_a1[comp]
    ans_b_after_a = uniforms[:, 2] < np.where(ans_a, cond[1], cond[0])
    ans_b = uniforms[:, 3] < p_b1[comp]
    ans_a_after_b = uniforms[:, 4] < np.where(ans_b, cond[3], cond[2])
    codes = ans_a * np.uint8(A_FIRST_A)
    codes |= ans_b_after_a * np.uint8(A_FIRST_B)
    codes |= ans_b * np.uint8(B_FIRST_B)
    codes |= ans_a_after_b * np.uint8(B_FIRST_A)
    return codes


def backend_name() -> str:
    return "numpy"
