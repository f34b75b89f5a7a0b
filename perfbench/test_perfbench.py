"""Tests of the benchmark itself at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(sweep_steps=8, agents=10_000)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(tmp_path, *args):
    subprocess.run(
        [sys.executable, "-m", "qopinion", *args],
        cwd=tmp_path, env=workloads.child_env(ROOT), check=True, timeout=60,
    )


def _replace_field(text, line, col, fn):
    lines = text.splitlines()
    fields = lines[line].split(",")
    fields[col] = fn(fields[col])
    lines[line] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _perturb(field):
    return repr(float(field) + 1e-9)


def _flip(field):
    return "1" if field == "0" else "0"


def test_metric_names_and_units_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == probes.PER_LAYER_UNITS


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_end_to_end_metric(name):
    result, record = run.run(name, seed=5, seconds=0, trace=0, sizes=TINY)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == len(record["invocations"]) >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    env = record["environment"]
    assert env["nproc"] >= 1 and env["kernel_backend"] and "numba_importable" in env
    json.loads(json.dumps(result))  # what run.py prints as its last line


def test_tiny_traced_run_reports_every_per_layer_metric():
    result, record = run.run("sweep_256", seed=5, seconds=0, trace=1, sizes=TINY)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] is not None, m["name"]
    assert result["metrics"]["analysis.cells"]["value"] == 64
    assert result["metrics"]["population.agents"]["value"] == TINY.agents
    spans = record["spans"][0]
    assert all(s["end"] >= s["start"] for s in spans)
    assert {s["trace"] for s in spans} == set(run.WORKLOAD_NAMES)


def test_moved_function_is_reported_missing(monkeypatch):
    from qopinion import heatmap

    monkeypatch.delattr(heatmap, "fallacy_heatmap_svg")
    metrics, replays, _ = probes.probe_set(TINY, ROOT, workloads.child_env(ROOT))
    assert metrics["heatmap.svg_s"] is None and metrics["heatmap.svg_bytes"] is None
    assert replays["sweep_256"] is None
    assert metrics["analysis.sweep_s"] is not None


def test_corrupted_golden_csv_counts_as_failures(tmp_path):
    workload = workloads.GoldenWorkload(TINY)
    reference = (checks.REFERENCE / "golden" / "fallacy_basic.csv").read_text()
    # line 2 is the data row: p_a1 is field 3, fallacy_b is field 9
    outputs = [
        _replace_field(reference, 2, 3, _perturb),
        _replace_field(reference, 2, 9, _flip),
        reference,
    ]
    invocations = []
    for text in outputs:
        (tmp_path / "fallacy_basic.csv").write_text(text)
        inv = workloads.Invocation([], None, exit_code=0)
        inv.problems = workload._check(tmp_path, "fallacy_basic")
        invocations.append(inv)
    assert [inv.failed for inv in invocations] == [True, True, False]
    assert workload._check(tmp_path, "degrees")  # a missing output fails too


def test_corrupted_sweep_csv_fails_checks(tmp_path):
    _cli(tmp_path, "sweep", "--theta", "0.01:3.13:8", "--theta-a", "0.01:3.13:8",
         "--out", "sweep.csv", "--svg", "sweep.svg")
    workload = workloads.SweepWorkload(TINY)
    assert workload._check(tmp_path) == []
    csv = (tmp_path / "sweep.csv").read_text()
    for line, col, fn in ((5, 4, _perturb), (5, 9, _flip)):
        (tmp_path / "sweep.csv").write_text(_replace_field(csv, line, col, fn))
        assert workload._check(tmp_path), (line, col)


def test_simulate_model_check_passes_on_other_seeds_and_catches_bias(tmp_path):
    workload = workloads.SimulateWorkload(TINY)
    for seed in (12345, workloads.SIM_DEFAULT_SEED):
        _cli(tmp_path, "simulate", str(workloads.SIM_FILE), "--agents", str(TINY.agents),
             "--seed", str(seed), "--out", "sim.csv")
        assert workload._check(tmp_path, seed) == [], seed
    csv = (tmp_path / "sim.csv").read_text()
    seed = workloads.SIM_DEFAULT_SEED
    # count_a1 (field 5) shifted by about 11 sigma
    biased = _replace_field(csv, 2, 5, lambda f: str(int(f) + 300))
    assert checks.check_simulate(biased, TINY.agents, seed)
    # a last-digit change in p_a1 (field 9) passes the model but breaks byte identity
    nudged = _replace_field(csv, 2, 9, lambda f: f[:-1] + str(9 - int(f[-1])))
    assert checks.check_simulate(nudged, TINY.agents, seed) == []
    assert checks.check_simulate(nudged, TINY.agents, seed, workload.digest)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert out.stdout == ""
