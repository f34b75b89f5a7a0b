import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qopinion import (
    BasisRelation,
    MixedState,
    PopulationComponent,
    PopulationSpec,
    Question,
    ValidationError,
    compose_relations,
    fallacy_report,
    pure_from_angles,
)
from qopinion import cli, population
from qopinion.kernels import simulate_answers
from qopinion.measurement import outcome_probability
from qopinion.observables import conditional_probability
from qopinion.population import (
    SimulationTable,
    predicted_fallacy_rate,
    simulate_population,
)
from qopinion.states import _as_density

from conftest import HoldsLock, TwoArgs, assert_no_child_left, raising

A = Question("a")
B = Question("b", BasisRelation(0.2, 0.0))

FALLACY_STATE = pure_from_angles(1.8, 0.0)
DIAGONAL_STATE = MixedState(0.2, 0.8, 0j)


def _population(p_fallacy=0.85):
    return PopulationSpec(
        (
            PopulationComponent(p_fallacy, FALLACY_STATE, "swayed"),
            PopulationComponent(1.0 - p_fallacy, DIAGONAL_STATE, "classical"),
        )
    )


def test_population_validation():
    with pytest.raises(ValidationError):
        PopulationSpec(())
    with pytest.raises(ValidationError):
        PopulationSpec((PopulationComponent(-0.2, FALLACY_STATE, "x"),
                        PopulationComponent(1.2, FALLACY_STATE, "y")))
    with pytest.raises(ValidationError):
        PopulationSpec((PopulationComponent(0.5, FALLACY_STATE, "x"),))
    # nan passes both "< 0" and "|sum - 1| > tol" unless checked itself.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="non-finite fraction"):
            PopulationSpec((PopulationComponent(bad, FALLACY_STATE, "x"),
                            PopulationComponent(1.0, FALLACY_STATE, "y")))


def test_predicted_fallacy_rate_is_affine_in_fractions():
    assert predicted_fallacy_rate(_population(0.85), A, B) == 0.85
    assert predicted_fallacy_rate(_population(0.0), A, B) == 0.0
    assert predicted_fallacy_rate(_population(1.0), A, B) == 1.0


def test_diagonal_components_never_count():
    pop = PopulationSpec((PopulationComponent(1.0, DIAGONAL_STATE, "classical"),))
    assert predicted_fallacy_rate(pop, A, B) == 0.0


def test_one_component_rate_agrees_with_fallacy_report():
    # predicted_fallacy_rate counts the fallacy_b flag that fallacy_report
    # prints for a pure state, from the same Bloch arithmetic.
    rng = np.random.default_rng(20070)
    flagged = 0
    for _ in range(2000):
        theta_a, phi_a, t1, p1, t2, p2 = rng.uniform(-4.0, 7.0, 6)
        a_rel = BasisRelation(t1, p1)
        a = Question("a", a_rel)
        b = Question("b", compose_relations(a_rel, BasisRelation(t2, p2)))
        state = pure_from_angles(theta_a, phi_a)
        pop = PopulationSpec((PopulationComponent(1.0, state, "only"),))
        expected = 1.0 if fallacy_report(state, a, b).fallacy_b else 0.0
        assert predicted_fallacy_rate(pop, a, b) == expected
        flagged += expected == 1.0
    assert 200 < flagged < 1800


def test_simulation_is_seed_deterministic():
    pop = _population()
    t1 = simulate_population(pop, A, B, 5000, 99)
    t2 = simulate_population(pop, A, B, 5000, 99)
    assert t1 == t2
    t3 = simulate_population(pop, A, B, 5000, 100)
    assert t3 != t1


def test_simulation_counts_are_consistent():
    table = simulate_population(_population(), A, B, 5000, 7)
    assert table.n_agents == 5000
    assert 0 <= table.count_a1_then_b1 <= table.count_a1 <= 5000
    assert 0 <= table.count_b1_then_a1 <= table.count_b1 <= 5000
    assert table.p_a1 == table.count_a1 / 5000


def test_simulation_matches_prediction_statistically():
    n = 50000
    table = simulate_population(_population(), A, B, n, 2024)
    p_b1_pure = math.sin(2.0) ** 2
    p_b1_mixed = 0.2 * math.sin(0.2) ** 2 + 0.8 * math.cos(0.2) ** 2
    expected = 0.85 * p_b1_pure + 0.15 * p_b1_mixed
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    assert abs(table.p_b1 - expected) < 4.0 * sigma


def test_simulation_rejects_bad_agent_count():
    with pytest.raises(ValidationError):
        simulate_population(_population(), A, B, 0, 1)


def test_simulation_rejects_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        simulate_population(_population(), A, B, 10, -1)


def _reference_answers(uniforms, cum_fractions, p_a1, p_b1, cond):
    """The answer codes by binary search over the cumulative fractions, kept
    apart from the production kernel so the chunk tests compare two
    algorithms."""
    comp = np.searchsorted(cum_fractions, uniforms[:, 0], side="right")
    comp = np.minimum(comp, len(cum_fractions) - 1)  # fractions summing to just under 1
    ans_a = uniforms[:, 1] < p_a1[comp]
    ans_b_after_a = uniforms[:, 2] < np.where(ans_a, cond[1], cond[0])
    ans_b = uniforms[:, 3] < p_b1[comp]
    ans_a_after_b = uniforms[:, 4] < np.where(ans_b, cond[3], cond[2])
    codes = ans_a * np.uint8(1)
    codes |= ans_b_after_a * np.uint8(2)
    codes |= ans_b * np.uint8(4)
    codes |= ans_a_after_b * np.uint8(8)
    return codes


def _reference_counts(pop, a, b, n_agents, seed):
    """The unchunked algorithm: one (n, 5) draw, the reference kernel, then
    count_nonzero over its unpacked answer codes.  Returns the four counts
    and the 16 joint counts."""
    uniforms = np.random.default_rng(seed).random((n_agents, 5))
    rhos = [_as_density(c.preparation) for c in pop.components]
    codes = _reference_answers(
        uniforms,
        np.cumsum([c.fraction for c in pop.components]),
        np.array([outcome_probability(r, a, 1) for r in rhos]),
        np.array([outcome_probability(r, b, 1) for r in rhos]),
        np.array([
            conditional_probability(a, 0, b, 1), conditional_probability(a, 1, b, 1),
            conditional_probability(b, 0, a, 1), conditional_probability(b, 1, a, 1),
        ]),
    )
    answers = np.stack([(codes >> bit) & 1 for bit in range(4)], axis=1).astype(bool)
    a_a, a_b, b_b, b_a = answers.T
    counts = (
        np.count_nonzero(a_a), np.count_nonzero(b_b),
        np.count_nonzero(a_a & a_b), np.count_nonzero(b_b & b_a),
    )
    joint = tuple(
        int(np.count_nonzero((answers == [(code >> bit) & 1 for bit in range(4)]).all(axis=1)))
        for code in range(16)
    )
    return tuple(int(c) for c in counts), joint


THREE_WAY = PopulationSpec(
    (
        PopulationComponent(0.5, FALLACY_STATE, "swayed"),
        PopulationComponent(0.3, DIAGONAL_STATE, "classical"),
        PopulationComponent(0.2, MixedState(0.3, 0.7, 0.2 + 0.1j), "coherent"),
    )
)
# The span tests split at SPLIT agents in place of population._SPLIT_AGENTS,
# so two processes share a few chunks.
SPLIT = 1 << 15


@pytest.fixture
def split_at_2_15(monkeypatch):
    monkeypatch.setattr(population, "_SPLIT_AGENTS", SPLIT)


# One process up to SPLIT agents, two past it, claiming one chunk at a time: n
# covers both sides of the split, even and odd chunk counts, and a last chunk
# that ends inside the buffer.
@pytest.mark.usefixtures("split_at_2_15")
@pytest.mark.parametrize("seed", [0, 2024])
@pytest.mark.parametrize(
    "n",
    [1, SPLIT - 1, SPLIT, SPLIT + 1, 2 * SPLIT - 1, 2 * SPLIT, 2 * SPLIT + 1, 3 * SPLIT + 7,
     5 * SPLIT - 1, 6 * SPLIT + 7],
)
def test_chunked_draws_match_one_draw(n, seed):
    table = simulate_population(THREE_WAY, A, B, n, seed)
    counts, joint = _reference_counts(THREE_WAY, A, B, n, seed)
    assert table == SimulationTable(n, seed, joint)
    assert (
        table.count_a1, table.count_b1, table.count_a1_then_b1, table.count_b1_then_a1
    ) == counts
    assert len(table.joint_counts) == 16
    assert sum(table.joint_counts) == n


# With fewer claims than chunks, a claimed span is several chunks long, and the
# last span is shorter than the others.
@pytest.mark.usefixtures("split_at_2_15")
@pytest.mark.parametrize("claims", [2, 3])
def test_claims_of_several_chunks_match_one_draw(monkeypatch, claims):
    monkeypatch.setattr(population, "_CLAIMS", claims)
    n, seed = 5 * SPLIT + 7, 2024
    assert simulate_population(THREE_WAY, A, B, n, seed) == SimulationTable(
        n, seed, _reference_counts(THREE_WAY, A, B, n, seed)[1]
    )


@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_advanced_generator_draws_the_later_rows_of_one_draw(seed):
    # The claimed spans of simulate_population rely on two numpy facts:
    # default_rng is PCG64, and a float64 draw takes exactly one PCG64 step.
    assert np.random.default_rng(seed).bit_generator.state == np.random.PCG64(seed).state
    n = 1000
    rows = np.random.default_rng(seed).random((n, 5))
    for lo in (0, 1, 7, 500, n - 1):
        bits = np.random.PCG64(seed)
        bits.advance(5 * lo)
        assert np.array_equal(np.random.Generator(bits).random((n - lo, 5)), rows[lo:]), lo
    # Each process draws its chunks into one reused buffer; the last is partial.
    rng, buf, chunk = np.random.default_rng(seed), np.empty((64, 5)), []
    for start in range(0, n, 64):
        chunk.append(rng.random(out=buf[: min(64, n - start)]).copy())
    assert np.array_equal(np.concatenate(chunk), rows)


def _fail_in_the_worker(monkeypatch, fail):
    """Make the kernel call ``fail()`` in the forked worker only.  The caller's
    kernel first waits for the worker to end, so the worker is sure to claim a
    span before the caller has taken them all."""
    caller = os.getpid()

    def answers(*args):
        if os.getpid() != caller:
            fail()
        else:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # leaves it to be reaped
        return simulate_answers(*args)

    monkeypatch.setattr(population, "simulate_answers", answers)


def _raise_memory_error():
    raise MemoryError("worker span")


def _simulate_cli(tmp_path, agents: int):
    qx = Path(__file__).parent / "golden" / "simulate_population.qx"
    out = tmp_path / "sim.csv"
    code = cli.main(
        ["simulate", str(qx), "--agents", str(agents), "--seed", "3", "--out", str(out)]
    )
    return code, out


@pytest.mark.usefixtures("split_at_2_15")
def test_worker_span_error_reaches_the_caller(monkeypatch):
    _fail_in_the_worker(monkeypatch, _raise_memory_error)
    with pytest.raises(MemoryError, match="worker span"):
        simulate_population(THREE_WAY, A, B, 2 * SPLIT, 3)
    assert_no_child_left()


@pytest.mark.usefixtures("split_at_2_15")
def test_worker_span_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    _fail_in_the_worker(monkeypatch, _raise_memory_error)
    code, out = _simulate_cli(tmp_path, 2 * SPLIT)
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == ["out of memory: worker span"]
    assert not out.exists()
    assert_no_child_left()


@pytest.mark.usefixtures("split_at_2_15")
def test_worker_killed_by_a_signal_exits_3(tmp_path, monkeypatch, capfd):
    _fail_in_the_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    code, out = _simulate_cli(tmp_path, 2 * SPLIT)
    assert code == 3
    assert capfd.readouterr().err == f"simulate worker ended by signal {int(signal.SIGKILL)}\n"
    assert not out.exists()
    assert_no_child_left()


@pytest.mark.usefixtures("split_at_2_15")
@pytest.mark.parametrize("exc", [TwoArgs("lost on the way back", 2), HoldsLock("never sent")],
                         ids=["extra-init-argument", "unpicklable"])
def test_worker_error_that_cannot_come_back_exits_3(tmp_path, monkeypatch, capfd, exc):
    _fail_in_the_worker(monkeypatch, raising(exc))
    code, out = _simulate_cli(tmp_path, 2 * SPLIT)
    err = capfd.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("simulate worker failed; unreadable outcome (")
    assert not out.exists()
    assert_no_child_left()


def test_the_worker_leaves_ctrl_c_to_the_caller(monkeypatch):
    one_process = simulate_population(THREE_WAY, A, B, 2 * SPLIT, 3)
    monkeypatch.setattr(population, "_SPLIT_AGENTS", SPLIT)
    _fail_in_the_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGINT))
    assert simulate_population(THREE_WAY, A, B, 2 * SPLIT, 3) == one_process
    assert_no_child_left()


@pytest.mark.usefixtures("split_at_2_15")
def test_caller_span_error_joins_the_worker_first(monkeypatch):
    caller = os.getpid()

    def answers(*args):
        if os.getpid() == caller:
            raise MemoryError("caller span")
        return simulate_answers(*args)

    monkeypatch.setattr(population, "simulate_answers", answers)
    with pytest.raises(MemoryError, match="caller span"):
        simulate_population(THREE_WAY, A, B, 8 * SPLIT, 3)
    assert_no_child_left()


@pytest.mark.usefixtures("split_at_2_15")
def test_caller_span_error_ends_the_worker_first(monkeypatch):
    caller = os.getpid()

    def answers(*args):
        if os.getpid() == caller:
            raise MemoryError("caller span")
        time.sleep(60)  # a worker left to finish would hold the caller here
        return simulate_answers(*args)

    monkeypatch.setattr(population, "simulate_answers", answers)
    start = time.monotonic()
    with pytest.raises(MemoryError, match="caller span"):
        simulate_population(THREE_WAY, A, B, 2 * SPLIT, 3)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_simulation_memory_does_not_grow_with_agents():
    # One (2^22, 5) float64 draw alone would be 160 MiB.
    tracemalloc.start()
    try:
        simulate_population(THREE_WAY, A, B, 1 << 22, 5)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 16


# Peak resident memory that a two-process run of 2^22 agents adds to a process
# that has imported the CLI and run a one-agent simulation.  Measured at 0.9 MB
# with 2^14-row chunks (2 vCPUs, numpy 2.4); two 2^15-row chunks on two
# threads added ~4 MB.
RSS_GROWTH_KB = 2048

# The child's own high-water mark is VmHWM: an exec'd process's ru_maxrss
# starts from its parent's (this test runner's), which would hide any growth.
# The forked worker's ru_maxrss is its own, read after it is reaped.
_GROWTH = f"""
import re, resource, sys
from pathlib import Path
from qopinion import cli, dsl, population

def hwm_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))

rt = cli.build_runtime(dsl.parse(Path(sys.argv[1]).read_text()))
pop, a, b = rt.populations["crowd"], rt.questions["a"], rt.questions["b"]
population.simulate_population(pop, a, b, 1, 5)  # the crowd model, numpy.random, the kernel
before = hwm_kb()
population._SPLIT_AGENTS = {SPLIT}
population.simulate_population(pop, a, b, 1 << 22, 5)
print(before, hwm_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_two_span_simulation_adds_little_resident_memory():
    qx = str(Path(__file__).parent / "golden" / "simulate_population.qx")
    proc = subprocess.run([sys.executable, "-c", _GROWTH, qx], capture_output=True, text=True,
                          check=True)
    before, own, worker = map(int, proc.stdout.split())
    assert worker > 0  # the worker ran and was reaped
    assert max(own, worker) - before < RSS_GROWTH_KB
