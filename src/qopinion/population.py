"""Heterogeneous agent populations and seeded Monte Carlo answer tables.

A population is a convex mixture of labeled preparations.  Each simulated
agent is assigned a preparation, then answers both ordered question
sequences (A then B, and B then A) on fresh copies of that preparation:
answers never carry over between the two tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import FALLACY_GUARD
from .errors import ValidationError
from .kernels import A_FIRST_A, A_FIRST_B, B_FIRST_A, B_FIRST_B, simulate_answers
from .measurement import outcome_probability
from .observables import Question, conditional_probability
from .states import MixedState, PureState, _as_density


@dataclass(frozen=True)
class PopulationComponent:
    fraction: float
    preparation: PureState | MixedState
    label: str


@dataclass(frozen=True)
class PopulationSpec:
    """Labeled mixture of preparations with fractions summing to one."""

    components: tuple[PopulationComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValidationError("population needs at least one component")
        total = 0.0
        for comp in self.components:
            if not math.isfinite(comp.fraction):
                raise ValidationError(
                    f"non-finite fraction {comp.fraction!r} for {comp.label!r}"
                )
            if comp.fraction < 0.0:
                raise ValidationError(
                    f"negative fraction {comp.fraction!r} for {comp.label!r}"
                )
            total += comp.fraction
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"fractions sum to {total!r}, expected 1")


# Rows of uniforms per draw: memory stays O(chunk) whatever the agent count.
# At 10^7 agents 2^14-2^16 rows (2.5 MB at 2^16) ran faster than 2^18-2^20.
_CHUNK_ROWS = 1 << 16


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


def simulate_population(
    pop: PopulationSpec, a: Question, b: Question, n_agents: int, seed: int
) -> SimulationTable:
    """Seeded Monte Carlo answer table over ``n_agents`` agents.

    Uniform variates come from one ``default_rng(seed)`` generator, drawn
    in sequential chunks of (at most ``_CHUNK_ROWS``, 5): the same stream as
    one (n, 5) draw, so runs are bit-reproducible for a given seed and
    memory does not grow with ``n_agents``.  The kernel turns each row, in a
    fixed order (component draw, A-first answers, B-first answers), into the
    agent's 4-bit answer code, and the table counts the codes.
    """
    if n_agents < 1:
        raise ValidationError(f"n_agents must be >= 1, got {n_agents}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    model = _crowd_model(pop, a, b)
    rng = np.random.default_rng(seed)
    joint = np.zeros(16, dtype=np.int64)
    for start in range(0, n_agents, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n_agents - start)
        codes = simulate_answers(rng.random((rows, 5)), *model)
        joint += np.bincount(codes, minlength=16)
    return SimulationTable(n_agents, seed, tuple(int(n) for n in joint))
