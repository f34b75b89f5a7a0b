"""Mixed states through the one Bloch arithmetic of :mod:`qopinion.fallacy`.

The decomposition, the b-side flag that ``predicted_fallacy_rate`` counts
and the underextension estimate take pure and mixed states alike.  They are
checked over seeded random mixtures and composed question pairs against
:mod:`qopinion.oracle`, whose literal 2x2 projector products share no
arithmetic with the package.
"""

import math
import random

import pytest

from qopinion import (
    BasisRelation,
    PopulationComponent,
    PopulationSpec,
    PureState,
    Question,
    ValidationError,
    cli,
    compose_relations,
    decompose_total_probability,
    density_from_pure,
    eigenvectors_in_reference,
    fallacy_report,
    mix,
    predicted_fallacy_rate,
    underextension_estimate,
)
from qopinion.fallacy import FALLACY_GUARD, _bloch
from qopinion.oracle import _density_matrix, _ordered_pair_probability, _projector

# A flag compared with the oracle's is skipped where its margin lies this
# close to the guard: there the two arithmetics may round to either side.
NEAR_GUARD = 1e-9


def _bits(values) -> list[str]:
    """Each float's exact bits, the sign of a zero included."""
    return [float(v).hex() for v in values]


def _random_state(rng):
    """A Haar-random pure state: a normalised complex Gaussian vector."""
    g = [rng.gauss(0.0, 1.0) for _ in range(4)]
    return PureState.normalized(complex(g[0], g[1]), complex(g[2], g[3]))


def _random_relation(rng):
    return BasisRelation(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))


def _composed_pair(rng):
    """Questions a off the reference and b declared from a."""
    a = Question("a", compose_relations(_random_relation(rng), _random_relation(rng)))
    b = Question("b", compose_relations(a.relation_to_reference, _random_relation(rng)))
    return a, b


def _random_parts(rng):
    """1 to 4 (weight, projector) pairs of random pure states, weights summing to 1."""
    raw = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 4))]
    return [(w / sum(raw), density_from_pure(_random_state(rng))) for w in raw]


def _random_mixture(rng):
    return mix(_random_parts(rng))


def _diagonal_mixture(rng, q: Question):
    """A classical mixture of q's two answers."""
    e0, e1 = eigenvectors_in_reference(q)
    p1 = rng.random()
    return mix([(1.0 - p1, density_from_pure(e0)), (p1, density_from_pure(e1))])


def _oracle_margin(prep, a: Question, b: Question) -> float:
    """P(b1) - P(a1) P(b1 | a1) + guard from the oracle: the b-side fallacy
    flag is set where this is negative."""
    rho = _density_matrix(prep)
    p_a1 = _ordered_pair_probability(rho, a, 1, a, 1)
    p_b1 = _ordered_pair_probability(rho, b, 1, b, 1)
    cond = _ordered_pair_probability(_projector(a, 1), b, 1, b, 1)  # Tr(P_b1 P_a1)
    return p_b1 - p_a1 * cond + FALLACY_GUARD


def test_bloch_vector_of_a_pure_state_is_that_of_its_projector():
    rng = random.Random(3201)
    for _ in range(2000):
        s = _random_state(rng)
        assert _bits(_bloch(density_from_pure(s))) == _bits(_bloch(s))


def test_bloch_vector_is_the_pauli_expectations():
    # r_k = Tr(rho sigma_k), so rho = (I + r.sigma)/2: a sign that every
    # Bloch vector shares (r_y's alike) cancels in r.m and shows only here.
    rng = random.Random(3213)
    for _ in range(1000):
        state = _random_state(rng) if rng.random() < 0.5 else _random_mixture(rng)
        (r00, r01), (r10, r11) = _density_matrix(state)
        pauli = ((r01 + r10).real, (1j * (r01 - r10)).real, (r00 - r11).real)
        assert all(abs(x - y) <= 1e-15 for x, y in zip(_bloch(state), pauli))


@pytest.mark.parametrize("j", [0, 1])
def test_decomposition_of_a_mixed_state_matches_the_oracle(j):
    # Replaces the diagonal-only PreconditionError path: coherent mixtures
    # decompose, with their interference, like pure states.
    rng = random.Random(3202 + j)
    for _ in range(1000):
        rho = _random_mixture(rng)
        a, b = _composed_pair(rng)
        dec = decompose_total_probability(rho, a, b, j)
        m = _density_matrix(rho)
        classical = sum(_ordered_pair_probability(m, a, i, b, j) for i in (0, 1))
        assert abs(dec.classical_part - classical) <= 1e-12
        assert abs(dec.total - _ordered_pair_probability(m, b, j, b, j)) <= 1e-12


def test_decomposition_of_a_mixture_is_the_weighted_sum_of_its_parts():
    rng = random.Random(3204)
    for _ in range(1000):
        parts = _random_parts(rng)
        a, b = _composed_pair(rng)
        for j in (0, 1):
            whole = decompose_total_probability(mix(parts), a, b, j)
            split = [decompose_total_probability(rho, a, b, j) for _, rho in parts]
            for field in whole._fields:
                expected = sum(w * getattr(dec, field) for (w, _), dec in zip(parts, split))
                assert abs(getattr(whole, field) - expected) <= 1e-15


def test_mixture_diagonal_in_a_questions_basis_has_no_interference():
    rng = random.Random(3205)
    for _ in range(2000):
        a, b = _composed_pair(rng)
        rho = _diagonal_mixture(rng, a)
        for j in (0, 1):
            assert abs(decompose_total_probability(rho, a, b, j).interference) <= 1e-15


def test_mixture_diagonal_in_a_questions_basis_never_shows_the_fallacy():
    rng = random.Random(3206)
    for _ in range(2000):
        a, b = _composed_pair(rng)
        pop = PopulationSpec((PopulationComponent(1.0, _diagonal_mixture(rng, a), "d"),))
        assert predicted_fallacy_rate(pop, a, b) == 0.0


def test_predicted_fallacy_rate_counts_the_oracle_flag():
    rng = random.Random(3207)
    compared = flagged = 0
    for _ in range(600):
        a, b = _composed_pair(rng)
        preps = [
            _random_state(rng) if rng.random() < 0.5 else _random_mixture(rng)
            for _ in range(rng.randint(1, 5))
        ]
        raw = [rng.uniform(0.05, 1.0) for _ in preps]
        fractions = [w / sum(raw) for w in raw]
        margins = [_oracle_margin(prep, a, b) for prep in preps]
        if any(abs(margin) <= NEAR_GUARD for margin in margins):
            continue
        expected = 0.0
        for fraction, margin in zip(fractions, margins):
            if margin < 0.0:
                expected += fraction
                flagged += 1
        pop = PopulationSpec(tuple(
            PopulationComponent(f, prep, str(k))
            for k, (f, prep) in enumerate(zip(fractions, preps))
        ))
        assert predicted_fallacy_rate(pop, a, b) == expected
        compared += 1
    assert compared > 500 and flagged > 100


def test_fallacy_report_rejects_a_mixed_state():
    rho = _random_mixture(random.Random(3208))
    with pytest.raises(ValidationError):
        fallacy_report(rho, Question("a"), Question("b", BasisRelation(0.2, 0.0)))


def test_underextension_of_a_mixed_state_never_flags():
    rng = random.Random(3209)
    for _ in range(1000):
        a, b = _composed_pair(rng)
        est = underextension_estimate(_random_mixture(rng), a, b)
        assert est.and_low <= est.and_high
        assert not est.underextension


def test_underextension_of_a_pure_state_is_that_of_its_projector():
    rng = random.Random(3210)
    for _ in range(200):
        s, (a, b) = _random_state(rng), _composed_pair(rng)
        rows = [
            cli._row(*(getattr(underextension_estimate(state, a, b), name)
                       for name in cli._UNDEREXTENSION_FIELDS))
            for state in (s, density_from_pure(s))
        ]
        assert rows[0] == rows[1]


_MIXED_FILE = (
    "question a\nquestion b from a theta=0.7\n"
    "state hazy mixed basis=b p1=0.3\n"
    "task {kind} state=hazy pair=a,b\n"
)


def test_underextension_task_takes_a_mixed_state(tmp_path):
    qx, out = tmp_path / "mixed.qx", tmp_path / "out.csv"
    qx.write_text(_MIXED_FILE.format(kind="underextension"))
    assert cli.main(["run", str(qx), "--out", str(out)]) == 0
    marker, header, row = out.read_text().splitlines()
    assert header.split(",") == ["state", "a", "b", *cli._UNDEREXTENSION_FIELDS]
    assert row.startswith("hazy,a,b,") and row.endswith(",0")


def test_fallacy_task_on_a_mixed_state_names_it(tmp_path, capsys):
    qx = tmp_path / "mixed.qx"
    qx.write_text(_MIXED_FILE.format(kind="fallacy"))
    assert cli.main(["run", str(qx), "--out", str(tmp_path / "out.csv")]) == 3
    assert capsys.readouterr().err == "task requires a pure state, 'hazy' is mixed\n"
