"""End-to-end acceptance checks with one printed verdict line per criterion.

Verdicts are collected in ``VERDICTS`` and echoed by a terminal-summary hook
in ``conftest.py`` so they appear even under pytest capture.

Criterion 6 concerns the region where the conjunction fallacy shows on both
questions at once.  The paper's closed form, as printed, has such a region:
its b side ``1 + 2 tan(theta_a) cot(theta) < 0`` and its a side
``1 - 2 tan(theta_a - theta) cot(theta) < 0`` overlap.  The direct fallacy
cannot hold on both sides: it needs P(b1) < P(a1) cos^2(t) and
P(a1) < P(b1) cos^2(t) with t the relative basis tilt, and multiplying the
two gives cos^4(t) > 1.  The package's closed form uses theta_a + theta on
the a side and agrees with the direct flags (criterion 5).  Criteria 6a and
6c therefore pin the printed form's both-sided region, check that the
package never flags both sides there, and check that the package's b side
equals the printed one, which puts the whole disagreement in the a-side
sign.  Criterion 6b checks that neither form is both-sided at theta = pi/2.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qopinion import (
    BasisRelation,
    MixedState,
    OutcomeStep,
    PopulationComponent,
    PopulationSpec,
    Question,
    consecutive_probability,
    decompose_total_probability,
    density_from_pure,
    fallacy_inequalities,
    fallacy_report,
    mixed_state_total_probability,
    ordering_flip_probability,
    pure_from_angles,
    sample_answer,
    uncertainty_sum_minimum,
)
from qopinion.dsl import ExperimentSyntaxError, parse, render
from qopinion.observables import conditional_probability, eigenvectors_in_reference
from qopinion.oracle import brute_force_outcome_probability
from qopinion.population import predicted_fallacy_rate, simulate_population

A = Question("a")
GOLDEN = sorted(Path(__file__).parent.joinpath("golden").glob("*.qx"))

_raster_cache = {}


VERDICTS = []


def _verdict(label, ok, desc):
    line = f"acceptance {label:>3}: {'PASS' if ok else 'FAIL'} - {desc}"
    VERDICTS.append(line)
    assert ok, line


def _raster():
    """256x256 phi=0 raster of closed-form and direct fallacy flags.

    Returns (thetas, theta_as, ineq flags, report flags, skipped mask) with
    flags stored row-major in theta.  Cells within 1e-6 of a tan/cotan pole
    are skipped.
    """
    if "flags" in _raster_cache:
        return _raster_cache["flags"]
    n = 256
    thetas = np.linspace(0.01, 3.13, n)
    theta_as = np.linspace(0.01, 3.13, n)
    ineq = np.zeros((n, n, 2), dtype=bool)
    rep = np.zeros((n, n, 2), dtype=bool)
    skipped = np.zeros((n, n), dtype=bool)
    for i, theta in enumerate(thetas):
        b = Question("b", BasisRelation(theta, 0.0))
        for k, theta_a in enumerate(theta_as):
            if (
                abs(math.cos(theta_a)) < 1e-6
                or abs(math.sin(theta)) < 1e-6
                or abs(math.cos(theta_a + theta)) < 1e-6
            ):
                skipped[i, k] = True
                continue
            ineq[i, k] = fallacy_inequalities(theta_a, theta)
            report = fallacy_report(pure_from_angles(theta_a, 0.0), A, b)
            rep[i, k] = (report.fallacy_b, report.fallacy_a)
    _raster_cache["flags"] = (thetas, theta_as, ineq, rep, skipped)
    return _raster_cache["flags"]


def test_criterion_01_decomposition_identity():
    rng = np.random.default_rng(20260823)
    start = time.perf_counter()
    worst_split = 0.0
    worst_oracle = 0.0
    for _ in range(10_000):
        theta_a, phi_a, theta, phi = rng.uniform(0.0, 2.0 * math.pi, 4)
        s = pure_from_angles(theta_a, phi_a)
        rel = BasisRelation(theta, phi)
        b = Question("b", rel)
        j = int(rng.integers(0, 2))
        dec = decompose_total_probability(s, A, b, j)
        worst_split = max(
            worst_split, abs(dec.total - (dec.classical_part + dec.interference))
        )
        worst_oracle = max(
            worst_oracle, abs(dec.total - brute_force_outcome_probability(s, rel, j))
        )
    elapsed = time.perf_counter() - start
    ok = worst_split < 1e-12 and worst_oracle < 1e-12 and elapsed < 5.0
    _verdict(
        "1",
        ok,
        f"decomposition identity and oracle agreement over 10^4 draws "
        f"(split {worst_split:.2e}, oracle {worst_oracle:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_02_mixed_state_classicality():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(10_000):
        p1 = float(rng.uniform(0.0, 1.0))
        rho = MixedState(1.0 - p1, p1, 0j)
        b = Question(
            "b",
            BasisRelation(float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2 * math.pi))),
        )
        p_b1 = mixed_state_total_probability(rho, A, b, 1)
        bound = p1 * conditional_probability(A, 1, b, 1)
        if p_b1 < bound - 1e-12:
            violations += 1
    _verdict(
        "2",
        violations == 0,
        f"diagonal mixtures never undercut the conjunction bound "
        f"({violations} violations in 10^4)",
    )


def test_criterion_03_pinned_fallacy_point():
    s = pure_from_angles(1.8, 0.0)
    b = Question("b", BasisRelation(0.2, 0.0))
    dec = decompose_total_probability(s, A, b, 1)
    rep = fallacy_report(s, A, b)
    ok = (
        abs(dec.total - 0.8267) < 1e-3
        and abs(dec.classical_part - 0.9130) < 1e-3
        and abs(dec.interference - (-0.0862)) < 1e-3
        and rep.fallacy_b
        and not rep.fallacy_a
    )
    _verdict(
        "3",
        ok,
        f"pinned point P(b1)={dec.total:.4f}, classical={dec.classical_part:.4f}, "
        f"interference={dec.interference:.4f}, flags=({rep.fallacy_b},{rep.fallacy_a})",
    )


def test_criterion_04_reverse_fallacy_point():
    s = pure_from_angles(math.pi / 3, 0.0)
    b = Question("b", BasisRelation(math.pi / 6, 0.0))
    dec = decompose_total_probability(s, A, b, 1)
    rep = fallacy_report(s, A, b)
    ok = (
        abs(dec.total - 1.0) < 1e-9
        and abs(dec.interference - 0.375) < 1e-9
        and rep.reverse_b
    )
    _verdict(
        "4",
        ok,
        f"reverse point P(b1)={dec.total!r}, interference={dec.interference!r}, "
        f"reverse_b={rep.reverse_b}",
    )


def test_criterion_05_inequality_equivalence():
    start = time.perf_counter()
    _, _, ineq, rep, skipped = _raster()
    elapsed = time.perf_counter() - start
    compared = int(np.count_nonzero(~skipped))
    mismatches = int(np.count_nonzero((ineq != rep) & ~skipped[:, :, None]))
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(
        "5",
        ok,
        f"closed-form flags match direct flags on {compared}/{256 * 256} raster "
        f"cells ({mismatches} mismatches, {elapsed:.2f}s)",
    )


def _printed_inequalities(theta_a, theta):
    """The paper's closed-form fallacy conditions exactly as printed (phi = 0).

    b side:  1 + 2 tan(theta_a) cot(theta) < 0
    a side:  1 - 2 tan(theta_a - theta) cot(theta) < 0

    Written out literally so it shares no arithmetic with ``analysis.py``.
    """
    cot = math.cos(theta) / math.sin(theta)
    b_side = 1.0 + 2.0 * math.tan(theta_a) * cot < 0.0
    a_side = 1.0 - 2.0 * math.tan(theta_a - theta) * cot < 0.0
    return b_side, a_side


def _line_flags(theta, theta_as):
    """Printed, closed-form and direct (b, a) flags along one theta line."""
    b = Question("b", BasisRelation(theta, 0.0))
    printed, ineq, rep = [], [], []
    for theta_a in theta_as:
        theta_a = float(theta_a)
        printed.append(_printed_inequalities(theta_a, theta))
        ineq.append(fallacy_inequalities(theta_a, theta))
        r = fallacy_report(pure_from_angles(theta_a, 0.0), A, b)
        rep.append((r.fallacy_b, r.fallacy_a))
    return np.array(printed), np.array(ineq), np.array(rep)


def _both_sided_counts(printed, ineq, rep):
    """Criterion 6 counts over (n, 2) flag arrays for the same n cells.

    Returns (printed both-true, closed-form both-true, direct both-true,
    cells where a package b side differs from the printed b side).
    """
    return (
        int(np.count_nonzero(printed[:, 0] & printed[:, 1])),
        int(np.count_nonzero(ineq[:, 0] & ineq[:, 1])),
        int(np.count_nonzero(rep[:, 0] & rep[:, 1])),
        int(np.count_nonzero((ineq[:, 0] != printed[:, 0]) | (rep[:, 0] != printed[:, 0]))),
    )


def _both_sided_desc(region, counts):
    printed_both, ineq_both, direct_both, b_mismatch = counts
    return (
        f"{region}: printed form both-true on {printed_both}; closed-form "
        f"both-true {ineq_both}, direct both-true {direct_both}; "
        f"b-side mismatches {b_mismatch}"
    )


def test_criterion_06a_both_true_in_correlated_columns():
    thetas, theta_as, ineq, rep, skipped = _raster()
    rows = np.flatnonzero(thetas < math.pi / 8)
    printed = np.array(
        [[_printed_inequalities(float(ta), float(t)) for ta in theta_as] for t in thetas[rows]]
    )
    kept = ~skipped[rows]
    counts = _both_sided_counts(printed[kept], ineq[rows][kept], rep[rows][kept])
    region = f"theta < pi/8 rows ({len(rows)} rows, {int(kept.sum())} cells)"
    _verdict("6a", counts == (528, 0, 0, 0), _both_sided_desc(region, counts))


def test_criterion_06b_no_both_true_near_pi_half():
    _, theta_as, _, _, _ = _raster()
    flags = [
        _line_flags(theta, theta_as)
        for theta in (math.pi / 2 - 1e-3, math.pi / 2, math.pi / 2 + 1e-3)
    ]
    printed, ineq, rep = (np.concatenate(f) for f in zip(*flags))
    counts = _both_sided_counts(printed, ineq, rep)
    region = f"theta = pi/2 and pi/2 +- 1e-3 ({len(printed)} cells)"
    ok = len(printed) > 0 and counts == (0, 0, 0, 0)
    _verdict("6b", ok, _both_sided_desc(region, counts))


def test_criterion_06c_both_true_at_quarter_tilt():
    window = np.linspace(1.58, 1.78, 201)
    printed, ineq, rep = _line_flags(math.pi / 4, window)
    counts = _both_sided_counts(printed, ineq, rep)
    region = f"theta = pi/4, theta_a in [1.58, 1.78] ({len(window)} points)"
    _verdict("6c", counts == (len(window), 0, 0, 0), _both_sided_desc(region, counts))


def test_criterion_07_ordering_asymmetry():
    s = pure_from_angles(1.8, 0.0)
    b = Question("b", BasisRelation(0.2, 0.0))
    rho = density_from_pure(s)
    p_ab = consecutive_probability(rho, [OutcomeStep(A, 1), OutcomeStep(b, 1)])
    p_ba = consecutive_probability(rho, [OutcomeStep(b, 1), OutcomeStep(A, 1)])
    gap = abs(p_ab - p_ba)
    ok = abs(gap - 0.1169) < 1e-3
    _verdict(
        "7",
        ok,
        f"ordered-chain asymmetry |{p_ab:.4f} - {p_ba:.4f}| = {gap:.4f}",
    )


def test_criterion_08_collapse_repetition():
    rng = np.random.default_rng(13)
    repeats = 0
    for _ in range(10_000):
        s = pure_from_angles(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        q = Question("q", BasisRelation(float(rng.uniform(0, math.pi)), 0.0))
        first, post = sample_answer(density_from_pure(s), q, rng)
        second, _ = sample_answer(post, q, rng)
        if first == second:
            repeats += 1
    _verdict(
        "8",
        repeats == 10_000,
        f"double-asking repeated the first answer {repeats}/10000 times",
    )


def _mc_flip(theta, n, seed):
    first = A
    second = Question("b", BasisRelation(theta, 0.0))
    eigen = [density_from_pure(v) for v in eigenvectors_in_reference(first)]
    rng = np.random.default_rng(seed)
    flips = 0
    for trial in range(n):
        start = trial % 2
        _, post = sample_answer(eigen[start], second, rng)
        final, _ = sample_answer(post, first, rng)
        if final != start:
            flips += 1
    return flips / n


def test_criterion_09_ordering_flip_monte_carlo():
    n = 100_000
    ok = True
    notes = []
    for theta, seed in ((0.2, 5), (math.pi / 4, 6)):
        analytic = ordering_flip_probability(A, Question("b", BasisRelation(theta, 0.0)))
        mc = _mc_flip(theta, n, seed)
        sigma = math.sqrt(analytic * (1.0 - analytic) / n)
        ok = ok and abs(mc - analytic) <= 3.0 * sigma
        notes.append(f"theta={theta:.4f}: mc={mc:.4f} vs {analytic:.4f} (3sig={3 * sigma:.4f})")
        if theta == 0.2:
            ok = ok and abs(mc - 0.0758) <= 0.0036
    _verdict("9", ok, "; ".join(notes))


def test_criterion_10_uncertainty_sum_minimum():
    quarter, _ = uncertainty_sum_minimum(A, Question("b", BasisRelation(math.pi / 4, 0.0)), 512)
    tilted, _ = uncertainty_sum_minimum(A, Question("b", BasisRelation(0.2, 0.0)), 512)
    closed = (1.0 - math.cos(0.4)) / 4.0
    ok = abs(quarter - 0.25) < 1e-6 and abs(tilted - closed) < 1e-3
    _verdict(
        "10",
        ok,
        f"variance-sum grid minima: pi/4 -> {quarter:.8f}, 0.2 -> {tilted:.6f} "
        f"(closed form {closed:.6f})",
    )


def test_criterion_11_population_linearity():
    b = Question("b", BasisRelation(0.2, 0.0))
    swayed = pure_from_angles(1.8, 0.0)
    classical = MixedState(0.2, 0.8, 0j)
    pop = PopulationSpec(
        (
            PopulationComponent(0.85, swayed, "swayed"),
            PopulationComponent(0.15, classical, "classical"),
        )
    )
    rate = predicted_fallacy_rate(pop, A, b)
    n = 100_000
    table = simulate_population(pop, A, b, n, 31)
    expected = 0.85 * math.sin(2.0) ** 2 + 0.15 * (
        0.2 * math.sin(0.2) ** 2 + 0.8 * math.cos(0.2) ** 2
    )
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    ok = rate == 0.85 and abs(table.p_b1 - expected) <= 3.0 * sigma
    _verdict(
        "11",
        ok,
        f"predicted rate {rate!r}; simulated P(b1)={table.p_b1:.4f} vs "
        f"{expected:.4f} (3sig={3 * sigma:.4f})",
    )


def test_criterion_12_dsl_round_trip_and_diagnostics():
    assert len(GOLDEN) >= 10
    round_trip_ok = True
    for path in GOLDEN:
        spec = parse(path.read_text())
        text = render(spec)
        if parse(text) != spec or render(parse(text)) != text:
            round_trip_ok = False
    cases = 0
    correct = 0
    for path in GOLDEN:
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if not line.split("#", 1)[0].strip():
                continue
            mutated = lines.copy()
            mutated[idx] = line.split("#", 1)[0].rstrip() + " ~stray~"
            cases += 1
            try:
                parse("\n".join(mutated) + "\n")
            except ExperimentSyntaxError as exc:
                if any(e.line == idx + 1 for e in exc.errors):
                    correct += 1
    ok = round_trip_ok and cases > 0 and correct == cases
    _verdict(
        "12",
        ok,
        f"round trip fixed point on {len(GOLDEN)} files; injected errors "
        f"located correctly in {correct}/{cases} mutations",
    )


def test_criterion_13_seeded_determinism(tmp_path):
    source = Path(__file__).parent / "golden" / "simulate_population.qx"
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qopinion", "run", str(source), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(
        "13",
        ok,
        f"two seeded runs produced byte-identical CSV ({len(outputs[0])} bytes)",
    )
