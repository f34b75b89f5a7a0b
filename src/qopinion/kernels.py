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

    An agent's component is the number of cumulative-fraction edges, the
    last left out, at or below its draw: one comparison per edge, so each
    component costs one more pass.  For nondecreasing fractions this is
    ``searchsorted(side="right")`` clamped to the last component, which
    takes the draws at or above a last fraction just under 1.
    """
    u = uniforms[:, 0]
    # Counts in the narrowest dtype keep each pass cheap (intp counts ran
    # slower than searchsorted at 32 components); indexing with them is
    # faster once they are converted to intp.
    comp = np.zeros(len(u), np.min_scalar_type(len(cum_fractions) - 1))
    for edge in cum_fractions[:-1]:
        comp += u >= edge
    comp = comp.astype(np.intp)
    # Both conditionals compared, then selected: faster than np.where.
    ans_a = uniforms[:, 1] < p_a1[comp]
    u_b = uniforms[:, 2]
    ans_b_after_a = (ans_a & (u_b < cond[1])) | (~ans_a & (u_b < cond[0]))
    ans_b = uniforms[:, 3] < p_b1[comp]
    u_a = uniforms[:, 4]
    ans_a_after_b = (ans_b & (u_a < cond[3])) | (~ans_b & (u_a < cond[2]))
    codes = ans_a * np.uint8(A_FIRST_A)
    codes |= ans_b_after_a * np.uint8(A_FIRST_B)
    codes |= ans_b * np.uint8(B_FIRST_B)
    codes |= ans_a_after_b * np.uint8(B_FIRST_A)
    return codes


def backend_name() -> str:
    return "numpy"
