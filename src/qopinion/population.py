"""Heterogeneous agent populations and seeded Monte Carlo answer tables.

A population is a convex mixture of labeled preparations.  Each simulated
agent is assigned a preparation, then answers both ordered question
sequences (A then B, and B then A) on fresh copies of that preparation:
answers never carry over between the two tasks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fallacy import FALLACY_GUARD
from .kernels import A_FIRST_A, A_FIRST_B, B_FIRST_A, B_FIRST_B, simulate_answers
from .measurement import outcome_probability
from .observables import Question, conditional_probability
from .states import MixedState, PureState, _as_density, _check_weights


@dataclass(frozen=True)
class PopulationComponent:
    fraction: float
    preparation: PureState | MixedState
    label: str


@dataclass(frozen=True)
class PopulationSpec:
    """Labeled mixture of preparations; fractions obey :func:`states._check_weights`."""

    components: tuple[PopulationComponent, ...]

    def __post_init__(self) -> None:
        _check_weights("fraction", [c.fraction for c in self.components])


# Rows of uniforms per draw: memory stays O(chunk) whatever the agent count.
# At 10^7 agents 2^14-2^16 rows ran faster than 2^18-2^20.  Two spans draw at
# once, so 2^15 rows (1.25 MB) each keep 2.5 MB of uniforms in flight; a run
# below 2^15 agents (the golden file's 20,000) is one chunk and starts no
# thread.
_CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class SimulationTable:
    """Empirical answer frequencies for the two ordered sequences.

    ``joint_counts[code]`` is the number of agents whose four yes/no answers
    pack to the answer code ``code`` of :mod:`kernels` (``aA | aB<<1 |
    bB<<2 | bA<<3``).  The 16 counts sum to ``n_agents``.
    """

    n_agents: int
    seed: int
    joint_counts: tuple[int, ...]

    def _count(self, bits: int) -> int:
        """Agents who answered yes to every answer in ``bits``."""
        return sum(n for code, n in enumerate(self.joint_counts) if code & bits == bits)

    @property
    def count_a1(self) -> int:
        return self._count(A_FIRST_A)

    @property
    def count_b1(self) -> int:
        return self._count(B_FIRST_B)

    @property
    def count_a1_then_b1(self) -> int:
        return self._count(A_FIRST_A | A_FIRST_B)

    @property
    def count_b1_then_a1(self) -> int:
        return self._count(B_FIRST_B | B_FIRST_A)

    @property
    def p_a1(self) -> float:
        return self.count_a1 / self.n_agents

    @property
    def p_b1(self) -> float:
        return self.count_b1 / self.n_agents

    @property
    def p_a1_then_b1(self) -> float:
        return self.count_a1_then_b1 / self.n_agents

    @property
    def p_b1_then_a1(self) -> float:
        return self.count_b1_then_a1 / self.n_agents


def _crowd_model(pop: PopulationSpec, a: Question, b: Question):
    """The crowd as the kernel reads it: cumulative component fractions, P(a1)
    and P(b1) per component, and the conditionals (b1|a0, b1|a1, a1|b0, a1|b1)."""
    rhos = [_as_density(c.preparation) for c in pop.components]
    cum = np.cumsum([c.fraction for c in pop.components])
    p_a1 = np.array([outcome_probability(rho, a, 1) for rho in rhos])
    p_b1 = np.array([outcome_probability(rho, b, 1) for rho in rhos])
    cond = np.array(
        [
            conditional_probability(a, 0, b, 1),
            conditional_probability(a, 1, b, 1),
            conditional_probability(b, 0, a, 1),
            conditional_probability(b, 1, a, 1),
        ]
    )
    return cum, p_a1, p_b1, cond


def predicted_fallacy_rate(pop: PopulationSpec, a: Question, b: Question) -> float:
    """Fraction of the population whose preparation shows the b-side fallacy.

    The condition P(b1) < P(a1) P(b1|a1) is linear in the density matrix, so
    it applies uniformly to pure and mixed preparations; diagonal mixtures
    can never satisfy it.  The rate is affine in the component fractions.
    """
    _, p_a1, p_b1, cond = _crowd_model(pop, a, b)
    rate = 0.0
    # One += per component, in order: sum() and ndarray.sum() round otherwise.
    for comp, flagged in zip(pop.components, p_b1 < p_a1 * cond[1] - FALLACY_GUARD):
        if flagged:
            rate += comp.fraction
    return rate


def _count_span(model, seed: int, lo: int, hi: int):
    """Joint code counts of agents [lo, hi): rows [lo, hi) of the seed's
    stream, drawn in chunks.  A float64 draw takes exactly one PCG64 step, so
    advancing by ``5 * lo`` steps starts at row ``lo``."""
    bits = np.random.PCG64(seed)
    bits.advance(5 * lo)
    rng = np.random.Generator(bits)
    joint = np.zeros(16, dtype=np.int64)
    for start in range(lo, hi, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, hi - start)
        codes = simulate_answers(rng.random((rows, 5)), *model)
        joint += np.bincount(codes, minlength=16)
    return joint


def simulate_population(
    pop: PopulationSpec, a: Question, b: Question, n_agents: int, seed: int
) -> SimulationTable:
    """Seeded Monte Carlo answer table over ``n_agents`` agents.

    The uniform variates are the rows of one (n, 5) draw from
    ``default_rng(seed)``, so runs are bit-reproducible for a given seed.
    They are drawn in chunks of at most ``_CHUNK_ROWS`` rows, so memory does
    not grow with ``n_agents``.  A run of more than one chunk is split into
    two contiguous spans: this thread counts the lower half of the chunks
    (rounded up) while one worker thread counts the rest from its own
    generator, advanced to its first row.  The kernel turns each row, in a
    fixed order (component draw, A-first answers, B-first answers), into the
    agent's 4-bit answer code, and the table adds the two spans' code counts,
    which does not depend on which span finishes first.
    """
    if n_agents < 1:
        raise ValidationError(f"n_agents must be >= 1, got {n_agents}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    model = _crowd_model(pop, a, b)
    chunks = -(-n_agents // _CHUNK_ROWS)
    if chunks == 1:
        joint = _count_span(model, seed, 0, n_agents)
    else:
        mid = -(-chunks // 2) * _CHUNK_ROWS
        upper = []  # the worker's counts, or the exception that ended it

        def count_upper():
            try:
                upper.append(_count_span(model, seed, mid, n_agents))
            except BaseException as exc:  # raised again below, in the caller
                upper.append(exc)

        worker = threading.Thread(target=count_upper)
        worker.start()
        try:
            joint = _count_span(model, seed, 0, mid)
        finally:
            worker.join()
        if isinstance(upper[0], BaseException):
            raise upper[0]
        joint += upper[0]
    return SimulationTable(n_agents, seed, tuple(int(n) for n in joint))
