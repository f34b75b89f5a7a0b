"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct.  Floats are compared within ``TOL`` so that last-digit changes from
a different arithmetic path pass, while any wrong number or flag fails.

Reference values come from ``qopinion.oracle``, which shares no arithmetic
with the production code, and from files under ``reference/``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from qopinion.observables import BasisRelation
from qopinion.oracle import (
    brute_force_outcome_probability,
    classical_total_probability,
)
from qopinion.states import PureState

TOL = 1e-12
MAX_PROBLEMS = 5
REFERENCE = Path(__file__).resolve().parent / "reference"

SWEEP_HEADER = (
    "theta,theta_a,phi,p_a1,p_b1,classical_b1,interference_b1,"
    "classical_a1,interference_a1,fallacy_b,fallacy_a,reverse_b,reverse_a,regime"
)
SIM_HEADER = (
    "population,a,b,agents,seed,count_a1,count_b1,count_a1_then_b1,"
    "count_b1_then_a1,p_a1,p_b1,p_a1_then_b1,p_b1_then_a1"
)


def load_digests() -> dict:
    return json.loads((REFERENCE / "digests.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def grid(start: float, stop: float, steps: int) -> list[float]:
    h = (stop - start) / (steps - 1)
    return [start + k * h for k in range(steps)]


def sweep_flag_digest(csv_text: str) -> str:
    """Digest of the four flag columns and the regime column, row by row."""
    rows = csv_text.splitlines()[1:]
    return sha256("\n".join(",".join(r.split(",")[9:]) for r in rows))


def check_sweep(
    csv_text: str,
    svg_text: str,
    lo: float,
    hi: float,
    steps: int,
    phi: float,
    flags_digest: str,
) -> list[str]:
    """Check a ``qopinion sweep`` CSV against the oracle and its SVG raster."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep: bad or missing header"]
    rows = lines[1:]
    if len(rows) != steps * steps:
        return [f"sweep: {len(rows)} rows, expected {steps * steps}"]
    values = grid(lo, hi, steps)
    # The state only depends on theta_a, the b relation only on theta.
    states = [PureState(math.cos(t), math.sin(t)) for t in values]
    relations = [BasisRelation(t, phi) for t in values]
    reference = BasisRelation(0.0, 0.0)
    problems = []
    for idx, row in enumerate(rows):
        if len(problems) >= MAX_PROBLEMS:
            break
        fields = row.split(",")
        try:
            theta, theta_a, row_phi, p_a1, p_b1, cl_b, in_b, cl_a, in_a = map(
                float, fields[:9]
            )
        except ValueError:
            problems.append(f"sweep row {idx}: unparsable {row!r}")
            continue
        if len(fields) != 14:
            problems.append(f"sweep row {idx}: {len(fields)} fields")
            continue
        i, j = divmod(idx, steps)
        s = states[j]
        expected = {
            "theta": (theta, values[i]),
            "theta_a": (theta_a, values[j]),
            "phi": (row_phi, phi),
            "p_a1": (p_a1, brute_force_outcome_probability(s, reference, 1)),
            "p_b1": (
                p_b1,
                brute_force_outcome_probability(s, relations[i], 1),
            ),
            "b total": (p_b1, cl_b + in_b),
            "a total": (p_a1, cl_a + in_a),
        }
        for name, (got, want) in expected.items():
            if not close(got, want):
                problems.append(f"sweep row {idx}: {name} {got!r} != {want!r}")
    if not problems and sweep_flag_digest(csv_text) != flags_digest:
        problems.append("sweep: flag/regime columns differ from the stored digest")
    cells = svg_text.count('<rect class="cell"')
    if cells != steps * steps:
        problems.append(f"svg: {cells} cells, expected {steps * steps}")
    return problems


def crowd_probabilities() -> dict[str, float]:
    """Exact answer probabilities for ``crowd`` in inputs/simulate_population.qx.

    crowd = 0.85 * (pure state at 1.8 rad in a's basis)
          + 0.15 * (mixture diagonal in a's basis with p1 = 0.75),
    b tilted from a by theta = 0.2.  Both orders use the same projectors, so
    P(b1 | a1) = P(a1 | b1).
    """
    tilt = BasisRelation(0.2, 0.0)
    swayed = PureState(math.cos(1.8), math.sin(1.8))
    stay = brute_force_outcome_probability(PureState(0.0, 1.0), tilt, 1)
    leave = brute_force_outcome_probability(PureState(1.0, 0.0), tilt, 1)
    p_a1 = 0.85 * brute_force_outcome_probability(swayed, BasisRelation(0.0, 0.0), 1)
    p_a1 += 0.15 * 0.75
    p_b1 = 0.85 * brute_force_outcome_probability(swayed, tilt, 1)
    p_b1 += 0.15 * classical_total_probability(0.75, leave, stay)
    return {
        "count_a1": p_a1,
        "count_b1": p_b1,
        "count_a1_then_b1": p_a1 * stay,
        "count_b1_then_a1": p_b1 * stay,
    }


def check_simulate(
    csv_text: str, agents: int, seed: int, digest: str | None = None
) -> list[str]:
    """Model check of a ``qopinion simulate`` CSV: every count lies within 5
    sigma of the exact mixture probability.  With ``digest`` the bytes must
    also match it (seeded byte identity)."""
    lines = csv_text.splitlines()
    if len(lines) != 3 or lines[0] != "# task 0 simulate" or lines[1] != SIM_HEADER:
        return ["simulate: unexpected layout"]
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    problems = []
    if row.get("agents") != str(agents) or row.get("seed") != str(seed):
        problems.append(f"simulate: agents/seed {row.get('agents')}/{row.get('seed')}")
    for name, p in crowd_probabilities().items():
        try:
            count = int(row[name])
            share = float(row["p_" + name[len("count_"):]])
        except (KeyError, ValueError):
            problems.append(f"simulate: bad field {name}")
            continue
        sigma = math.sqrt(agents * p * (1.0 - p))
        if abs(count - agents * p) > 5.0 * sigma:
            problems.append(f"simulate: {name}={count} is over 5 sigma from {agents * p}")
        if not close(share, count / agents):
            problems.append(f"simulate: share for {name} is {share!r}")
    if digest is not None and sha256(csv_text) != digest:
        problems.append("simulate: CSV bytes differ from the stored digest")
    return problems


def _field_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if got.lstrip("+-").isdigit() and want.lstrip("+-").isdigit():
        return False  # integers (counts, seeds, flags) must match exactly
    return close(a, b)


def check_against_reference(csv_text: str, reference_text: str) -> list[str]:
    """Field-by-field comparison: exact for text and integers, floats within TOL."""
    got, want = csv_text.splitlines(), reference_text.splitlines()
    if len(got) != len(want):
        return [f"{len(got)} lines, expected {len(want)}"]
    problems = []
    for n, (g, w) in enumerate(zip(got, want), start=1):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != len(wf):
            problems.append(f"line {n}: {len(gf)} fields, expected {len(wf)}")
            continue
        for col, (a, b) in enumerate(zip(gf, wf)):
            if not _field_matches(a, b):
                problems.append(f"line {n} field {col}: {a!r} != {b!r}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems
