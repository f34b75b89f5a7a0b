"""``measurement.chain_table`` against the per-row walk it replaced.

The reference below is the old sequence algorithm: for each outcome string,
in ``itertools.product`` order, measure, collapse onto the answer's
eigenvector and measure again, step by step.  ``chain_table``,
``consecutive_probability`` and the ``task sequence`` CSV must give the same
``.17g`` text, so the rows agree bit for bit.  Questions are declared in
``.qx`` text, so ``build_runtime`` composes them through
``compose_relations``; tilts include exact 0, pi/4, pi/2 and pi, whose chains
have zero-probability rows, and orders repeat questions.
"""

import itertools
import random

import pytest

from qopinion import OutcomeStep, consecutive_probability, dsl, measurement
from qopinion.cli import build_runtime, execute_tasks
from qopinion.measurement import chain_table, outcome_probability
from qopinion.observables import eigenvectors_in_reference
from qopinion.states import _as_density, density_from_pure

# (length, states asked): every state for chains of 1-12 questions, and two
# chains of 16 from the pure state and from the random mixture.
LENGTHS = [*((k, ("s", "m0", "m1", "mr")) for k in range(1, 13)), (16, ("s",)), (16, ("mr",))]
SAMPLE = 128  # reference rows per chain once 2^k exceeds it

_TILTS = ("0", "pi/4", "pi/2", "pi")

FIXED = """\
question a
question b from a theta=pi/2 phi=0.4
question c from b theta=pi/4
question d from c theta=pi phi=1.0
question e from a theta=0 phi=2.0
state s pure basis=c theta_a=0.7 phi_a=0.2
state m mixed basis=d p1=1
task sequence state=s order=a,a
task sequence state=m order=a,b,a,b,c,d,e,e
task sequence state=s order=e,a,e,c,c,b,d
"""


def _collapse_walk(rho, questions, outcomes):
    """One row the old way: measure, collapse onto the answer, measure again."""
    total, state = 1.0, rho
    for q, o in zip(questions, outcomes):
        p = outcome_probability(state, q, o)
        if p == 0.0:
            return 0.0
        total *= p
        state = density_from_pure(eigenvectors_in_reference(q)[o])
    return total


def _number(rng, low, high):
    """An exact tilt token 40% of the time, else a uniform decimal."""
    if rng.random() < 0.4:
        return rng.choice(_TILTS)
    return format(rng.uniform(low, high), ".17g")


def _random_spec(rng, k, asked):
    """Three questions, each declared from the reference or an earlier one;
    a pure state and mixed states with p1 = 0, 1 and random; one sequence of
    max(k, 2) questions, drawn with repetition, per state in ``asked``."""
    lines = ["question q0"]
    for i in (1, 2):
        lines.append(
            f"question q{i} from q{rng.randrange(i)} "
            f"theta={_number(rng, -3.2, 3.2)} phi={_number(rng, -1.0, 7.0)}"
        )
    lines.append(
        f"state s pure basis=q{rng.randrange(3)} "
        f"theta_a={_number(rng, 0.0, 3.2)} phi_a={_number(rng, 0.0, 6.3)}"
    )
    for name, p1 in (("m0", "0"), ("m1", "1"), ("mr", format(rng.random(), ".17g"))):
        lines.append(f"state {name} mixed basis=q{rng.randrange(3)} p1={p1}")
    for state in asked:
        order = ",".join(f"q{rng.randrange(3)}" for _ in range(max(k, 2)))
        lines.append(f"task sequence state={state} order={order}")
    return "\n".join(lines) + "\n"


def _cases():
    rng = random.Random(20070322)
    cases = [pytest.param(FIXED, None, 0, id="fixed")]
    for i, (k, asked) in enumerate(LENGTHS):
        cases.append(pytest.param(_random_spec(rng, k, asked), k, i, id=f"k{k}-{i}"))
    return cases


@pytest.mark.parametrize("text,k,seed", _cases())
def test_chain_table_matches_the_collapse_walk(text, k, seed):
    spec = dsl.parse(text)
    rt = build_runtime(spec)
    sections = execute_tasks(spec).split("# task ")[1:]
    rng = random.Random(seed)
    for task, section in zip(spec.tasks, sections):
        rho = _as_density(rt.states[task.arg("state")])
        order = task.arg("order")[:k]
        questions = [rt.questions[name] for name in order]
        table = chain_table(rho, questions, [(0, 1)] * len(order))
        outcomes = list(itertools.product((0, 1), repeat=len(order)))
        assert [row[0] for row in table] == outcomes
        text_rows = [f"{''.join(map(str, o))},{p:.17g}" for o, p in table]
        if len(order) >= 2:  # a sequence task asks at least two questions
            assert section.splitlines()[2:] == text_rows
        rows = range(len(outcomes))
        if len(rows) > SAMPLE:
            rows = sorted({0, len(rows) - 1, *rng.sample(rows, SAMPLE)})
        for r in rows:
            expected = format(_collapse_walk(rho, questions, outcomes[r]), ".17g")
            steps = [OutcomeStep(q, o) for q, o in zip(questions, outcomes[r])]
            assert format(table[r][1], ".17g") == expected
            assert format(consecutive_probability(rho, steps), ".17g") == expected


def test_chain_table_keeps_only_the_listed_answers():
    spec = dsl.parse(FIXED)
    rt = build_runtime(spec)
    rho = _as_density(rt.states["s"])
    questions = [rt.questions[name] for name in "abcd"]
    answers = [(1,), (0, 1), (0,), (1, 0)]
    table = chain_table(rho, questions, answers)
    assert [row[0] for row in table] == list(itertools.product(*answers))
    for outcomes, p in table:
        assert format(p, ".17g") == format(_collapse_walk(rho, questions, outcomes), ".17g")


@pytest.fixture
def born_calls(monkeypatch):
    """Count the calls of ``measurement.outcome_probability``."""
    calls = []
    real = measurement.outcome_probability

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(measurement, "outcome_probability", counted)
    return calls


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
def test_chain_cost_is_one_born_step_per_answer_pair(born_calls, k):
    spec = dsl.parse(FIXED)
    rt = build_runtime(spec)
    rho = _as_density(rt.states["s"])
    questions = [rt.questions["abcde"[i % 5]] for i in range(k)]
    chain_table(rho, questions, [(0, 1)] * k)
    assert len(born_calls) == 2 + 4 * (k - 1)
    born_calls.clear()
    consecutive_probability(rho, [OutcomeStep(q, 1) for q in questions])
    assert len(born_calls) == k
    if k >= 2:
        born_calls.clear()
        order = ",".join("abcde"[i % 5] for i in range(k))
        execute_tasks(dsl.parse(FIXED.split("task")[0] + f"task sequence state=s order={order}\n"))
        assert len(born_calls) == 2 + 4 * (k - 1)
