"""Metamorphic checks of ``qopinion run`` on small generated experiment files.

Two edits of a file must not change what its tasks mean:
- ``pair=b,a`` in place of ``pair=a,b`` on a ``fallacy`` task swaps the a
  and b sides of its report;
- a new root question, with the old root declared from it and every
  other question declared from the old root, rotates every question and
  state alike, which no probability can see.
Each file goes through ``cli.main(["run", ...])``, and each output row is
compared field by field.  A flag may differ only where its margin lies
within ``NEAR_GUARD`` of the 1e-12 guard: there, rounding decides, and the
edited file rounds differently.
"""

import math
import random

import pytest

from qopinion import cli, conditional_probability, dsl
from qopinion.fallacy import FALLACY_GUARD

NEAR_GUARD = 1e-9
FLOATS = 6  # the six floats of a fallacy row, then its four flags
SWAP = {  # fallacy field -> the field it becomes with the pair swapped
    "p_a1": "p_b1", "p_b1": "p_a1",
    "classical_b1": "classical_a1", "interference_b1": "interference_a1",
    "classical_a1": "classical_b1", "interference_a1": "interference_b1",
    "fallacy_b": "fallacy_a", "fallacy_a": "fallacy_b",
    "reverse_b": "reverse_a", "reverse_a": "reverse_b",
}


def _angle(rng, top: float) -> str:
    return repr(rng.uniform(0.0, top))


def _experiment(rng, star=False, n_questions=4, n_pure=6, n_mixed=3, n_fallacy=150,
                n_under=40):
    """A random file as (questions, states, tasks) lines, the first question
    the root and each other one declared from an earlier one.  With ``star``,
    every question is declared from the root and every pure state in the
    root's basis (see the strict xfail below)."""
    names = [f"q{k}" for k in range(n_questions)]
    questions = [f"question {names[0]}"] + [
        f"question {name} from {names[0] if star else rng.choice(names[:k])} "
        f"theta={_angle(rng, math.pi)} phi={_angle(rng, 2 * math.pi)}"
        for k, name in enumerate(names[1:], 1)
    ]
    pure = [f"p{k}" for k in range(n_pure)]
    mixed = [f"m{k}" for k in range(n_mixed)]
    states = [
        f"state {s} pure basis={names[0] if star else rng.choice(names)} "
        f"theta_a={_angle(rng, math.pi)} phi_a={_angle(rng, 2 * math.pi)}"
        for s in pure
    ] + [f"state {s} mixed basis={rng.choice(names)} p1={_angle(rng, 1.0)}" for s in mixed]
    tasks = [("fallacy", rng.choice(pure), *rng.sample(names, 2)) for _ in range(n_fallacy)]
    tasks += [("underextension", rng.choice(pure + mixed), *rng.sample(names, 2))
              for _ in range(n_under)]
    return questions, states, tasks


def _text(questions, states, tasks) -> str:
    lines = [*questions, *states]
    lines += [f"task {kind} state={state} pair={x},{y}" for kind, state, x, y in tasks]
    return "\n".join(lines) + "\n"


def _run(tmp_path, text: str) -> list[dict]:
    """Each task's output row, as a dict of its header's fields."""
    qx, out = tmp_path / "experiment.qx", tmp_path / "out.csv"
    qx.write_text(text)
    assert cli.main(["run", str(qx), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    return [dict(zip(header.split(","), row.split(",")))
            for header, row in zip(lines[1::3], lines[2::3])]


def _near(*margins: float) -> bool:
    return any(abs(m + g) <= NEAR_GUARD for m in margins for g in (FALLACY_GUARD, -FALLACY_GUARD))


def _fallacy_margins(row: dict, cond: float) -> tuple[float, float]:
    """P(b1) - cos^2 t P(a1) and P(a1) - cos^2 t P(b1): each side's flags
    compare these with the guard."""
    p_a1, p_b1 = float(row["p_a1"]), float(row["p_b1"])
    return p_b1 - cond * p_a1, p_a1 - cond * p_b1


def test_swapped_pair_swaps_the_fallacy_sides(tmp_path):
    rng = random.Random(3211)
    questions, states, tasks = _experiment(rng, n_fallacy=300, n_under=0)
    swapped = [(kind, state, y, x) for kind, state, x, y in tasks]
    text = _text(questions, states, tasks)
    rt = cli.build_runtime(dsl.parse(text))
    rows, swapped_rows = _run(tmp_path, text), _run(tmp_path, _text(questions, states, swapped))
    fields = cli._FALLACY_FIELDS
    compared = 0
    for (_, _, x, y), row, other in zip(tasks, rows, swapped_rows):
        assert (other["a"], other["b"]) == (y, x)
        assert [other[SWAP[f]] for f in fields[:FLOATS]] == [row[f] for f in fields[:FLOATS]]
        cond = conditional_probability(rt.questions[x], 1, rt.questions[y], 1)
        if _near(*_fallacy_margins(row, cond)):
            continue
        assert [other[SWAP[f]] for f in fields[FLOATS:]] == [row[f] for f in fields[FLOATS:]]
        compared += 1
    assert compared > 250


def test_a_new_root_question_changes_no_result(tmp_path):
    rng = random.Random(3212)
    questions, states, tasks = _experiment(rng, star=True)
    rooted = ["question z", f"{questions[0]} from z theta={_angle(rng, math.pi)} "
              f"phi={_angle(rng, 2 * math.pi)}", *questions[1:]]
    text = _text(questions, states, tasks)
    rt = cli.build_runtime(dsl.parse(text))
    rows, rooted_rows = _run(tmp_path, text), _run(tmp_path, _text(rooted, states, tasks))
    compared = 0
    for (kind, _, x, y), row, other in zip(tasks, rows, rooted_rows):
        if kind == "fallacy":
            names = cli._FALLACY_FIELDS
            floats, flags = names[:FLOATS], names[FLOATS:]
            cond = conditional_probability(rt.questions[x], 1, rt.questions[y], 1)
            near = _near(*_fallacy_margins(row, cond))
        else:
            names = cli._UNDEREXTENSION_FIELDS
            floats, flags = names[:-1], names[-1:]
            mu = max(float(row["mu_a"]), float(row["mu_b"]))
            near = abs(float(row["or_high"]) - mu + FALLACY_GUARD) <= NEAR_GUARD
        for name in floats:
            assert abs(float(other[name]) - float(row[name])) <= 1e-12, (kind, name)
        if not near:
            assert [other[f] for f in flags] == [row[f] for f in flags]
            compared += 1
    assert compared > 150


@pytest.mark.xfail(strict=True, reason="a phase declared from a question that is not the "
                   "root is read against that question's canonical eigenvectors, whose "
                   "relative phase depends on the root")
def test_a_new_root_question_keeps_what_is_declared_from_another_question(tmp_path):
    questions = ["question a", "question b from a theta=0.3 phi=1.0",
                 "question c from b theta=0.4 phi=0.5"]
    states = ["state s pure basis=b theta_a=0.8"]
    tasks = [("fallacy", "s", "a", "b"), ("fallacy", "s", "a", "c")]
    rooted = ["question z", "question a from z theta=0.7 phi=2.0", *questions[1:]]
    rows = _run(tmp_path, _text(questions, states, tasks))
    rooted_rows = _run(tmp_path, _text(rooted, states, tasks))
    for row, other in zip(rows, rooted_rows):
        for name in cli._FALLACY_FIELDS[:FLOATS]:
            assert abs(float(other[name]) - float(row[name])) <= 1e-12
