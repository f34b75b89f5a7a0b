"""`analysis.csv_rows` writes every float as ``format(x, ".17g")`` does.

Values with 1e-4 <= |x| < 1 take the array path and every other value the
scalar one, so the samples cover both sides of each decade boundary of the
array path, exact half-way ties between two 17-digit decimals, and every
kind of double: subnormal, huge, signed zero, infinite and nan.
"""

from fractions import Fraction

import numpy as np
import pytest

from qopinion import analysis
from qopinion.analysis import csv_rows

DECADES = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]


def _samples(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = 20_000
    places = rng.integers(1, 17, n)
    shift = rng.integers(1, 64, n)
    # m / 2**k with k = 18 - E is half-way between two 17-digit decimals
    # whenever m is odd: k = 18..21 for the four decades of the array path.
    ties = rng.integers(18, 22, n)
    return {
        "uniform": rng.random(n),
        "signed-uniform": rng.uniform(-1.0, 1.0, n),
        "log-uniform": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 2.0, n),
        "decimals": np.array([round(x, int(p)) for x, p in zip(rng.random(n).tolist(), places)]),
        "dyadic": rng.integers(1, 2**53, n, dtype=np.int64) % 2.0**shift / 2.0**shift,
        "dyadic-ties": (rng.integers(0, 2**20, n) * 2 + 1) % 2.0**ties / 2.0**ties,
        "bit-patterns": rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
    }


def _boundaries() -> np.ndarray:
    edges = np.array(DECADES)
    near = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 2.0)])
    special = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([near, special])
    return np.concatenate([values, -values])


def _assert_formats(values: np.ndarray) -> None:
    got = csv_rows(values).split("\n")
    want = [format(v, ".17g") for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


SAMPLES = _samples(2021)


@pytest.mark.parametrize("kind", list(SAMPLES))
def test_floats_match_format(kind):
    _assert_formats(SAMPLES[kind])


def test_boundaries_and_special_values_match_format():
    _assert_formats(_boundaries())


def _is_tie(x: float) -> bool:
    """Whether x, 1e-4 <= x < 1, lies half-way between two 17-digit decimals."""
    exact, exponent = Fraction(x), -1
    while Fraction(10) ** exponent > exact:
        exponent -= 1
    return (exact * 10 ** (16 - exponent)).denominator == 2


def test_the_ties_sample_holds_exact_halves():
    values = SAMPLES["dyadic-ties"][:2000].tolist()
    assert sum(_is_tie(x) for x in values if 1e-4 <= x < 1.0) > 200


def test_only_values_off_the_array_path_reach_format(monkeypatch):
    scalar, seen = analysis._scalar_slots, []

    def recorded(values):
        seen.extend(values.tolist())
        return scalar(values)

    monkeypatch.setattr(analysis, "_scalar_slots", recorded)
    csv_rows(np.concatenate([_boundaries(), *SAMPLES.values()]))
    on_path = [v for v in seen if 1e-4 <= abs(v) < 1.0]
    assert not on_path, on_path[:5]


def test_columns_broadcast_to_rows_of_fields():
    theta = np.array([[0.5], [-0.25]])
    flags = np.array([[True, False, True], [False, False, True]])
    text = csv_rows(theta, [1e-5, 2.0, 0.125], "x", flags, [["correlated"], ["anti"]])
    assert text == "\n".join([
        "0.5,1.0000000000000001e-05,x,1,correlated",
        "0.5,2,x,0,correlated",
        "0.5,0.125,x,1,correlated",
        "-0.25,1.0000000000000001e-05,x,0,anti",
        "-0.25,2,x,0,anti",
        "-0.25,0.125,x,1,anti",
    ])
