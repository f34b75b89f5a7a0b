import cmath
import math
import random

import numpy as np
import pytest

from qopinion import (
    BasisRelation,
    FallacyReport,
    MixedState,
    OutcomeStep,
    Question,
    RegimeClass,
    SingularityError,
    ValidationError,
    classify_regime,
    compose_relations,
    consecutive_probability,
    decompose_total_probability,
    density_from_pure,
    fallacy_inequalities,
    fallacy_report,
    pure_from_angles,
    sweep_fallacy_map,
    underextension_estimate,
    uncertainty_sum_minimum,
)
from qopinion.analysis import GridRange, sweep_blocks
from qopinion import fallacy, oracle
from qopinion.fallacy import FALLACY_GUARD, closed_form_fallacy
from qopinion.oracle import brute_force_outcome_probability

A = Question("a")


def test_decomposition_identity_random():
    rng = random.Random(42)
    for _ in range(500):
        s = pure_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        rel = BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        b = Question("b", rel)
        for j in (0, 1):
            dec = decompose_total_probability(s, A, b, j)
            assert abs(dec.total - (dec.classical_part + dec.interference)) < 1e-12
            assert abs(dec.total - brute_force_outcome_probability(s, rel, j)) < 1e-12


def _literal_conditional(x: Question, i: int, y: Question, j: int) -> float:
    """P(y = j | x = i) = Tr(P^y_j P^x_i), from the oracle's literal projectors."""
    return oracle._ordered_pair_probability(oracle._projector(x, i), x, i, y, j)


def test_decomposition_parts_match_the_oracle_one_by_one():
    # Each part on its own, so a term moved from one part to the other fails.
    rng = random.Random(17)

    def draw():
        return BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))

    for _ in range(300):
        s = pure_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        a = Question("a", compose_relations(draw(), draw()))
        b = Question("b", compose_relations(a.relation_to_reference, draw()))

        def parts(x, y, j):  # the oracle's (classical, interference) of P(y = j)
            p_x1 = brute_force_outcome_probability(s, x.relation_to_reference, 1)
            classical = oracle.classical_total_probability(
                p_x1, _literal_conditional(x, 0, y, j), _literal_conditional(x, 1, y, j)
            )
            total = brute_force_outcome_probability(s, y.relation_to_reference, j)
            return classical, total - classical

        rep = fallacy_report(s, a, b)
        got = [(rep.classical_b1, rep.interference_b1), (rep.classical_a1, rep.interference_a1)]
        want = [parts(a, b, 1), parts(b, a, 1)]
        for j in (0, 1):
            dec = decompose_total_probability(s, a, b, j)
            got.append((dec.classical_part, dec.interference))
            want.append(parts(a, b, j))
        for (classical, interference), (o_classical, o_interference) in zip(got, want):
            assert abs(classical - o_classical) < 1e-12
            assert abs(interference - o_interference) < 1e-12


def test_decomposition_both_outcomes_sum_to_one():
    s = pure_from_angles(1.1, 0.4)
    b = Question("b", BasisRelation(0.6, 1.3))
    d0 = decompose_total_probability(s, A, b, 0)
    d1 = decompose_total_probability(s, A, b, 1)
    assert abs(d0.total + d1.total - 1.0) < 1e-12
    assert abs(d0.interference + d1.interference) < 1e-12
    with pytest.raises(ValidationError):
        decompose_total_probability(s, A, b, 2)


def test_decomposition_commuting_pair_has_no_interference():
    s = pure_from_angles(0.8, 0.0)
    same = Question("same", BasisRelation(0.0, 0.0))
    dec = decompose_total_probability(s, A, same, 1)
    assert dec.interference == 0.0
    assert abs(dec.total - math.sin(0.8) ** 2) < 1e-14


def test_decomposition_generic_source_basis():
    # With a non-reference source basis the relation is extracted, not given.
    a = Question("a", BasisRelation(0.5, 1.0))
    b = Question("b", BasisRelation(1.1, 2.4))
    s = pure_from_angles(0.9, 0.2)
    dec = decompose_total_probability(s, a, b, 1)
    direct = brute_force_outcome_probability(s, b.relation_to_reference, 1)
    assert abs(dec.total - direct) < 1e-12
    assert abs(dec.total - (dec.classical_part + dec.interference)) < 1e-12


def test_mixed_state_total_probability_diagonal():
    b = Question("b", BasisRelation(0.2, 0.0))
    rho = MixedState(0.3, 0.7, 0j)
    dec = decompose_total_probability(rho, A, b, 1)
    expected = 0.3 * math.sin(0.2) ** 2 + 0.7 * math.cos(0.2) ** 2
    assert dec.total == pytest.approx(expected, abs=1e-14)
    assert dec.interference == 0.0


def test_fallacy_report_pinned_point():
    s = pure_from_angles(1.8, 0.0)
    b = Question("b", BasisRelation(0.2, 0.0))
    rep = fallacy_report(s, A, b)
    assert rep.fallacy_b and not rep.fallacy_a
    # The opposite side overshoots its classical bound with positive
    # interference, so the reverse flag sits on a.
    assert rep.reverse_a and not rep.reverse_b


def test_fallacy_report_reverse_point():
    s = pure_from_angles(math.pi / 3, 0.0)
    b = Question("b", BasisRelation(math.pi / 6, 0.0))
    rep = fallacy_report(s, A, b)
    assert rep.reverse_b
    assert not rep.fallacy_b


def test_fallacy_inequalities_match_report():
    rng = random.Random(5)
    checked = 0
    while checked < 300:
        theta_a = rng.uniform(0.05, math.pi - 0.05)
        theta = rng.uniform(0.05, math.pi - 0.05)
        if (
            abs(math.cos(theta_a)) < 1e-3
            or abs(math.sin(theta)) < 1e-3
            or abs(math.cos(theta_a + theta)) < 1e-3
        ):
            continue
        b_side, a_side = fallacy_inequalities(theta_a, theta)
        rep = fallacy_report(pure_from_angles(theta_a, 0.0), A, Question("b", BasisRelation(theta, 0.0)))
        assert b_side == rep.fallacy_b
        assert a_side == rep.fallacy_a
        checked += 1


def test_fallacy_inequalities_singularities():
    with pytest.raises(SingularityError):
        fallacy_inequalities(math.pi / 2, 0.4)
    with pytest.raises(SingularityError):
        fallacy_inequalities(0.4, math.pi)
    with pytest.raises(SingularityError):
        fallacy_inequalities(1.0, math.pi / 2 - 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fallacy_inequalities_reject_non_finite_angles(bad):
    with pytest.raises(ValidationError):
        fallacy_inequalities(bad, 0.3)
    with pytest.raises(ValidationError):
        fallacy_inequalities(0.3, bad)


@pytest.mark.parametrize(
    "phi, b_flags, a_flags",
    [(0.3, 20608, 20635), (math.pi / 2, 0, 18663), (2.5, 19497, 20387)],
)
def test_closed_form_matches_direct_flags_at_every_phase(phi, b_flags, a_flags):
    # Criterion 5's raster away from phi = 0.  The sweep's flags are
    # fallacy_report's bit for bit (test_sweep_matches_scalar_report).
    grid = GridRange(0.01, 3.13, 256)
    sweep = sweep_fallacy_map(grid, grid, phi)
    states = [pure_from_angles(theta_a, 0.0) for theta_a in grid.values()]
    closed = np.array([
        [(closed_form_fallacy(s, A, b), closed_form_fallacy(s, b, A)) for s in states]
        for b in (Question("b", BasisRelation(theta, phi)) for theta in grid.values())
    ])
    assert np.array_equal(closed[:, :, 0], sweep.fallacy_b)
    assert np.array_equal(closed[:, :, 1], sweep.fallacy_a)
    # At phi = pi/2 a real state's b-side form reads 1 < 0: no b-side fallacy.
    assert int(np.count_nonzero(sweep.fallacy_b)) == b_flags
    assert int(np.count_nonzero(sweep.fallacy_a)) == a_flags


def _literal_margin(s, x, y):
    """1 - 2 Re[g1 <x0|y0> / (g0 <x1|y0>)] with g_j = <x_j|s>: negative iff
    asking x then y shows the fallacy.  The eigenvectors are written from the
    declared (theta, phi) as ``oracle._projector`` writes them, with no basis
    change or relative relation."""

    def ket(q, j):
        t, p = q.relation_to_reference.theta, q.relation_to_reference.phi
        if j == 0:
            return complex(math.cos(t)), -math.sin(t) * cmath.exp(1j * p)
        return math.sin(t) * cmath.exp(-1j * p), complex(math.cos(t))

    def bra_ket(u, v):
        return u[0].conjugate() * v[0] + u[1].conjugate() * v[1]

    x0, x1, y0 = ket(x, 0), ket(x, 1), ket(y, 0)
    g0, g1 = bra_ket(x0, (s.amp0, s.amp1)), bra_ket(x1, (s.amp0, s.amp1))
    return 1.0 - 2.0 * (g1 * bra_ket(x0, y0) / (g0 * bra_ket(x1, y0))).real


def test_closed_form_matches_literal_form_for_complex_states():
    rng = random.Random(25)
    compared = 0
    for _ in range(5000):
        s = pure_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        x = Question("x", BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
        local = BasisRelation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        y = Question("y", compose_relations(x.relation_to_reference, local))
        rep = fallacy_report(s, x, y)
        for first, second, direct in ((x, y, rep.fallacy_b), (y, x, rep.fallacy_a)):
            margin = _literal_margin(s, first, second)
            if abs(margin) < 1e-9:
                continue
            assert closed_form_fallacy(s, first, second) == (margin < 0.0) == direct
            compared += 1
    assert compared > 9900


def test_classify_regime_bands():
    assert classify_regime(0.0) is RegimeClass.CORRELATED
    assert classify_regime(math.pi / 8) is RegimeClass.CORRELATED
    assert classify_regime(math.pi / 8 + 1e-9) is RegimeClass.UNCORRELATED
    assert classify_regime(math.pi / 4) is RegimeClass.UNCORRELATED
    assert classify_regime(3 * math.pi / 8) is RegimeClass.UNCORRELATED
    assert classify_regime(3 * math.pi / 8 + 1e-9) is RegimeClass.ANTICORRELATED
    assert classify_regime(math.pi / 2) is RegimeClass.ANTICORRELATED
    # Angles wrap modulo pi before banding.
    assert classify_regime(math.pi + 0.1) is RegimeClass.CORRELATED
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            classify_regime(bad)


def test_grid_range():
    r = GridRange(0.0, 1.0, 5)
    assert r.values() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValidationError):
        GridRange(0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        GridRange(0.0, math.inf, 4)
    with pytest.raises(ValidationError):
        GridRange(-1e308, 1e308, 3)  # finite bounds, but the width overflows


def test_sweep_is_row_major_in_theta():
    sweep = sweep_fallacy_map(GridRange(0.1, 0.3, 3), GridRange(1.0, 2.0, 2), 0.0)
    assert len(sweep) == 6
    assert sweep.p_b1.shape == (3, 2)
    cell_thetas = np.repeat(sweep.theta, len(sweep.theta_a))
    assert list(cell_thetas) == pytest.approx([0.1, 0.1, 0.2, 0.2, 0.3, 0.3])
    assert list(sweep.theta_a[:2]) == pytest.approx([1.0, 2.0])
    assert len(sweep.regime) == 3
    for theta, regime in zip(sweep.theta, sweep.regime):
        assert regime is classify_regime(theta)
    split = sweep.classical_b1 + sweep.interference_b1
    assert np.all(np.abs(sweep.p_b1 - split) < 1e-12)


@pytest.mark.parametrize(
    "theta_grid, theta_a_grid, phi",
    [
        # phi != 0, angles below 0 and above pi
        (GridRange(-3.7, 7.1, 13), GridRange(-2.3, 4.9, 11), 0.9),
        (GridRange(-1.0, 4.0, 9), GridRange(3.5, -0.5, 7), 4.4),
        # enough cells that libm pow and x * x disagree on some squares
        (GridRange(-2.0, 5.0, 64), GridRange(-1.0, 4.0, 64), 0.3),
        # theta = -pi, 0 and pi: b's basis is a's.  With phi = 0, a seen from b
        # is then the identity relation, not phi = pi, which sets the sign of
        # the zero a-side interference.
        (GridRange(-math.pi, math.pi, 9), GridRange(-math.pi, math.pi, 9), 0.0),
        (GridRange(0.0, math.pi, 5), GridRange(0.0, 2.0, 5), 2.0 * math.pi),
        (GridRange(0.0, math.pi, 5), GridRange(0.0, 2.0, 5), math.pi / 2),
    ],
)
def test_sweep_matches_scalar_report(theta_grid, theta_a_grid, phi):
    sweep = sweep_fallacy_map(theta_grid, theta_a_grid, phi)
    assert sweep.p_a1.shape == (theta_grid.steps, theta_a_grid.steps)
    assert list(sweep.theta) == theta_grid.values()
    assert list(sweep.theta_a) == theta_a_grid.values()
    for cell in np.ndindex(sweep.p_a1.shape):
        theta, theta_a = float(sweep.theta[cell[0]]), float(sweep.theta_a[cell[1]])
        s = pure_from_angles(theta_a, 0.0)
        rep = fallacy_report(s, A, Question("b", BasisRelation(theta, phi)))
        assert sweep.regime[cell[0]] is classify_regime(theta)
        for field in FallacyReport._fields:
            batch, scalar = getattr(sweep, field)[cell], getattr(rep, field)
            # Same arithmetic, so the same bits; signed zeros print as "0" or "-0".
            assert batch == scalar, field
            assert format(batch, ".17g") == format(scalar, ".17g"), field
        oracle_b = brute_force_outcome_probability(s, BasisRelation(theta, phi), 1)
        oracle_a = brute_force_outcome_probability(s, BasisRelation(0.0, 0.0), 1)
        assert abs(sweep.p_b1[cell] - oracle_b) <= 1e-12
        assert abs(sweep.p_a1[cell] - oracle_a) <= 1e-12


# Exact angles (theta = 0, pi/4, pi/2, ...), where interference vanishes
# and its zeros are signed, and three phases.
BLOCK_GRIDS = [
    (GridRange(0.0, math.pi, 21), GridRange(0.0, math.pi, 9), 0.0),
    (GridRange(0.01, 3.13, 23), GridRange(0.2, 2.9, 7), 0.3),
    (GridRange(-math.pi, math.pi, 17), GridRange(0.0, 2.0 * math.pi, 5), -math.pi / 2),
]


@pytest.mark.parametrize("theta_grid, theta_a_grid, phi", BLOCK_GRIDS)
@pytest.mark.parametrize("rows", [1, 3, 16])
@pytest.mark.parametrize("span", ["whole", "inner"])
def test_sweep_blocks_are_the_raster_rows_bit_for_bit(theta_grid, theta_a_grid, phi, rows, span):
    whole = sweep_fallacy_map(theta_grid, theta_a_grid, phi)
    n = theta_grid.steps
    lo, hi = (0, n) if span == "whole" else (5, n - 2)
    start = lo
    for block in sweep_blocks(theta_grid, theta_a_grid, phi, lo, hi, rows):
        stop = start + len(block.theta)
        assert len(block.theta) == min(rows, hi - start)
        assert block.phi == phi
        assert block.regime == whole.regime[start:stop]
        for got, want in ((block.theta, whole.theta[start:stop]), (block.theta_a, whole.theta_a)):
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        for field in FallacyReport._fields:
            got, want = getattr(block, field), getattr(whole, field)[start:stop]
            assert got.dtype == want.dtype, field
            if got.dtype == np.float64:  # as bits, so signed zeros count
                got, want = got.view(np.uint64), want.view(np.uint64)
            assert got.tolist() == want.tolist(), field
        start = stop
    assert start == hi


def test_underextension_estimate_brackets():
    s = pure_from_angles(1.8, 0.0)
    b = Question("b", BasisRelation(0.2, 0.0))
    est = underextension_estimate(s, A, b)
    assert est.and_low <= est.and_high
    assert est.or_low <= est.or_high
    assert est.mu_a == pytest.approx(math.sin(1.8) ** 2, abs=1e-14)
    assert est.or_low == pytest.approx(est.mu_a + est.mu_b - est.and_high, abs=1e-14)


def test_underextension_invariants_on_random_composed_pairs():
    rng = random.Random(2008)

    def draw():
        return BasisRelation(rng.uniform(-math.pi, math.pi), rng.uniform(0, 2 * math.pi))

    for _ in range(500):
        s = pure_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        a = Question("a", compose_relations(draw(), draw()))
        b = Question("b", compose_relations(a.relation_to_reference, draw()))
        if rng.random() < 0.5:
            a, b = b, a
        est = underextension_estimate(s, a, b)
        rho = density_from_pure(s)
        chains = {
            consecutive_probability(rho, [OutcomeStep(first, 1), OutcomeStep(second, 1)])
            for first, second in ((a, b), (b, a))
        }
        assert est.and_low <= est.and_high
        assert {est.and_low, est.and_high} == chains
        assert abs((est.or_high - est.or_low) - (est.and_high - est.and_low)) <= 1e-15
        assert est.underextension == (est.or_high < max(est.mu_a, est.mu_b) - FALLACY_GUARD)
        assert not est.underextension


@pytest.mark.parametrize(
    "base, phi, state",
    [((2.27, 1.44), 5.87, (2.83, 0.19)), ((1.86, 2.47), 1.14, (1.58, 6.17)),
     ((2.51, 3.25), 1.46, (2.04, 2.48))],
)
def test_underextension_flag_is_zero_on_equal_questions(base, phi, state):
    # b is a up to eigenvector phase.  Here or_high falls up to 1.1e-16 below
    # one margin, which raised the flag through rounding alone before the
    # comparison took the guard band.
    a = Question("a", BasisRelation(*base))
    b = Question("b", compose_relations(a.relation_to_reference, BasisRelation(0.0, phi)))
    for first, second in ((a, b), (b, a)):
        est = underextension_estimate(pure_from_angles(*state), first, second)
        assert abs(est.mu_a - est.mu_b) <= 1e-15
        assert not est.underextension


def test_underextension_flags_or_high_below_either_margin(monkeypatch):
    # Exact chains never raise the flag, so feed it a conjunction of 0.3.
    # At theta_a = 0.5 (mu_a 0.23, mu_b 0.41) or_high = 0.35 lies below mu_b
    # only; at theta_a = 1.0 (mu_a 0.71, mu_b 0.87) it lies above both.
    monkeypatch.setattr(fallacy, "consecutive_probability", lambda rho, steps: 0.3)
    b = Question("b", BasisRelation(0.2, 0.0))
    for theta_a, flagged in ((0.5, True), (1.0, False)):
        est = underextension_estimate(pure_from_angles(theta_a, 0.0), A, b)
        assert est.underextension == flagged


def test_uncertainty_sum_minimum():
    b = Question("b", BasisRelation(math.pi / 4, 0.0))
    value, (theta_s, phi_s) = uncertainty_sum_minimum(A, b, 64)
    assert value == pytest.approx(0.25, abs=1e-9)
    assert 0.0 <= theta_s < math.pi
    assert 0.0 <= phi_s < 2 * math.pi
    with pytest.raises(ValidationError):
        uncertainty_sum_minimum(A, b, 4)


@pytest.mark.parametrize("steps", [8, 16, 32, 64])
def test_uncertainty_sum_minimum_is_never_negative(steps):
    # Equal questions share their eigenstates, where both variances vanish;
    # rounding there gave a sum of -8.9e-16 before the minimum was clamped.
    value, _ = uncertainty_sum_minimum(A, Question("a"), steps)
    assert value >= 0.0


def test_uncertainty_minimum_matches_closed_form():
    theta = 0.2
    b = Question("b", BasisRelation(theta, 0.0))
    value, _ = uncertainty_sum_minimum(A, b, 512)
    closed = (1.0 - abs(math.cos(2.0 * theta))) / 4.0
    assert value == pytest.approx(closed, abs=1e-4)
    assert value >= closed - 1e-12
