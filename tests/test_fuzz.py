"""Seeded token-level fuzzing of the golden experiment files.

Every mutated file must end in one of the documented exit codes (0 success,
1 usage, 2 parse, 3 validation), never in an uncaught exception.  The
mutations never enlarge a size argument (agents, steps, grid points).
"""

import random
from pathlib import Path

from qopinion.cli import main

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.qx"))

# Malformed or edge-case tokens; none is a larger size than a golden file's.
EDGE_TOKENS = [
    "pi/0", "nan", "1e400", "-1", "0", "-0.0", "1e-400", "inf", "-inf", "pi",
    "7", "0.5", "1.5", "1e308", "-1e308",
    "2pi/3", "90deg", "0:1:1", "0:1:0", "0:1:-1", "1:0:2", "::", "0:1",
    "a", "b", "c", "s", "zz", "a,a", "b,a", "a,c", "a,zz", "a,b,c", ",",
    "x=", "=", "==", "+", "*",
    "0.5*a", "1.5*a", "-0.5*a", "from", "pure", "mixed", "task", "question",
]


def _mutate(lines, rng):
    """One token-level edit: drop, duplicate, swap with the next token,
    truncate to a non-empty prefix, or give a ``key=value`` argument an edge
    token as its value.  An edit that does not apply to the chosen token
    replaces the whole token with an edge token."""
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    op = rng.choice(["drop", "duplicate", "swap", "truncate", "value"])
    if op == "value":
        spots = [(i, j) for i, j in spots if "=" in lines[i][j]] or spots
    i, j = rng.choice(spots)
    toks = lines[i]
    if op == "drop":
        del toks[j]
    elif op == "duplicate":
        toks.insert(j, toks[j])
    elif op == "swap" and j + 1 < len(toks):
        toks[j], toks[j + 1] = toks[j + 1], toks[j]
    elif op == "truncate" and len(toks[j]) > 1:
        toks[j] = toks[j][: rng.randrange(1, len(toks[j]))]
    else:
        key, eq, _ = toks[j].partition("=")
        toks[j] = (key + eq if eq else "") + rng.choice(EDGE_TOKENS)


def test_mutated_golden_files_exit_with_documented_codes(tmp_path):
    rng = random.Random(20070)
    out = tmp_path / "out.csv"
    codes = {0: 0, 1: 0, 2: 0, 3: 0}
    for case in range(400):
        source = rng.choice(GOLDEN)
        lines = [
            line.split("#", 1)[0].split() for line in source.read_text().splitlines()
        ]
        lines = [toks for toks in lines if toks]
        _mutate(lines, rng)
        text = "\n".join(" ".join(toks) for toks in lines) + "\n"
        path = tmp_path / f"case{case}.qx"
        path.write_text(text)
        try:
            code = main(["run", str(path), "--out", str(out)])
        except Exception as exc:
            raise AssertionError(f"{source.name} mutated to:\n{text}raised {exc!r}") from exc
        assert code in codes, (source.name, text, code)
        codes[code] += 1
    # The mutations reach both parse errors and complete runs.
    assert codes[0] and codes[2], codes
