"""Heterogeneous agent populations and seeded Monte Carlo answer tables.

A population is a convex mixture of labeled preparations.  Each simulated
agent is assigned a preparation, then answers both ordered question
sequences (A then B, and B then A) on fresh copies of that preparation:
answers never carry over between the two tasks.  A large simulation shares
its agents with one forked worker process, which it reaps before it returns.
"""

from __future__ import annotations

import os

import numpy as np

from ._fork import in_two_processes
from .errors import ValidationError
from .fallacy import FALLACY_GUARD
from .kernels import A_FIRST_A, A_FIRST_B, B_FIRST_A, B_FIRST_B, simulate_answers
from .measurement import outcome_probability
from .observables import Question, conditional_probability
from .states import _as_density, _check_weights, _Record


class PopulationComponent(_Record):
    """A ``fraction`` of the crowd, answering from its ``preparation`` (a
    :class:`states.PureState` or :class:`states.MixedState`), under ``label``."""

    __slots__ = ("fraction", "preparation", "label")


class PopulationSpec(_Record):
    """Labeled mixture of preparations; fractions obey :func:`states._check_weights`."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[PopulationComponent, ...]) -> None:
        _check_weights("fraction", [c.fraction for c in components])
        super().__init__(components)


# Rows of uniforms per draw: memory stays O(chunk) whatever the agent count.
# Each process draws into one reused buffer of this many rows (640 KiB).  At
# 10^7 agents in process (2 vCPUs, best of 15), 2^14 rows counted fastest: 292
# ms in one process and 165 ms forked, against 329/177 ms at 2^13 and 311/196
# ms at 2^15.  A fresh `qopinion simulate` of 10^7 agents peaks at ~36.2 MB max
# RSS; two 2^15-row chunks on two threads took ~39 MB.
_CHUNK_ROWS = 1 << 14

# A run of more than this many agents forks one worker, and the two processes
# take its agents from one pipe of claims.  Against the same code without the
# fork (fresh `qopinion simulate` runs, 10 alternating pairs a run, 2 vCPUs),
# the fork won 7 and 0 pairs at 10^6 agents, 10 at 4*10^6 (inside the
# one-process quartile spread), 10 at 6*10^6 (beyond it), 10 and 10 at
# 8*10^6 + 1 (beyond it in one run of the two) and 10 and 10 at 10^7 (beyond
# it in both).
_SPLIT_AGENTS = 8_000_000

# At most this many claims, 4 bytes each: 4 KiB, written to the pipe at once
# (PIPE_BUF), so no claim is ever half written and the pipe never fills.  A
# claim is a span of whole chunks; either process takes the next one as soon
# as it is free, so neither waits for the other's half on a busy core.
_CLAIMS = 1024


class SimulationTable(_Record):
    """Empirical answer frequencies for the two ordered sequences: ``n_agents``,
    ``seed`` and ``joint_counts``.

    ``joint_counts[code]`` is the number of agents whose four yes/no answers
    pack to the answer code ``code`` of :mod:`kernels` (``aA | aB<<1 |
    bB<<2 | bA<<3``).  The 16 counts sum to ``n_agents``.
    """

    __slots__ = ("n_agents", "seed", "joint_counts")

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


def _count_spans(model, seed: int, spans):
    """Joint code counts of the agents in ``spans``, (lo, hi) pairs in
    increasing order: rows [lo, hi) of the seed's stream, drawn in chunks into
    one buffer.  A float64 draw takes exactly one PCG64 step, so advancing by
    5 steps a row skips to the next span's first row."""
    bits = np.random.PCG64(seed)
    rng = np.random.Generator(bits)
    buf = np.empty((_CHUNK_ROWS, 5))
    joint = np.zeros(16, dtype=np.int64)
    row = 0
    for lo, hi in spans:
        bits.advance(5 * (lo - row))
        for start in range(lo, hi, _CHUNK_ROWS):
            rows = min(_CHUNK_ROWS, hi - start)
            codes = simulate_answers(rng.random(out=buf[:rows]), *model)
            joint += np.bincount(codes, minlength=16)
        row = hi
    return joint


def _claimed(claims, size: int, n_agents: int):
    """The spans of ``size`` agents whose indices this process reads from the
    unbuffered pipe ``claims``, one 4-byte read each, until it is empty."""
    while claim := claims.read(4):
        lo = int.from_bytes(claim, "little") * size
        yield lo, min(lo + size, n_agents)


def simulate_population(
    pop: PopulationSpec, a: Question, b: Question, n_agents: int, seed: int
) -> SimulationTable:
    """Seeded Monte Carlo answer table over ``n_agents`` agents.

    The uniform variates are the rows of one (n, 5) draw from
    ``default_rng(seed)``, so runs are bit-reproducible for a given seed.
    They are drawn in chunks of at most ``_CHUNK_ROWS`` rows, so memory does
    not grow with ``n_agents``.  A run of more than ``_SPLIT_AGENTS`` agents
    is counted by this process and one forked worker together: the agents
    are cut into at most ``_CLAIMS`` spans of whole chunks, whose indices
    wait in a pipe, and each process reads the next index whenever it is free
    and counts that span from its own generator, advanced to the span's first
    row.  The worker's counts, or its failure, come back by the protocol of
    :mod:`qopinion._fork`.  The kernel turns each row, in a fixed order
    (component draw, A-first answers, B-first answers), into the agent's
    4-bit answer code, and the table adds the two processes' code counts,
    whichever process counted which span and whichever finished first.
    """
    if n_agents < 1:
        raise ValidationError(f"n_agents must be >= 1, got {n_agents}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    model = _crowd_model(pop, a, b)
    if n_agents <= _SPLIT_AGENTS:
        joint = _count_spans(model, seed, [(0, n_agents)])
    else:
        size = -(-n_agents // (_CLAIMS * _CHUNK_ROWS)) * _CHUNK_ROWS
        read_claims, write_claims = os.pipe()
        with open(write_claims, "wb", buffering=0) as fill:  # one write of <= PIPE_BUF bytes
            fill.write(np.arange(-(-n_agents // size), dtype="<u4").tobytes())
        with open(read_claims, "rb", buffering=0) as claims:

            def count():
                return _count_spans(model, seed, _claimed(claims, size, n_agents))

            joint, upper = in_two_processes(count, count, "simulate")
        joint += upper
    return SimulationTable(n_agents, seed, tuple(int(n) for n in joint))
