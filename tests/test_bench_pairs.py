"""The summary that ``tools/bench_pairs.py`` writes into ``BENCH_*.json``."""

import importlib.util
import json
import subprocess
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(base: dict, change: dict) -> dict:
    """Per-side run records, as ``perfbench/run.py`` prints them, from
    metric name -> one value per pair."""

    def side(values: dict) -> list[dict]:
        pairs = zip(*values.values())
        return [
            {"metrics": {name: {"value": v} for name, v in zip(values, pair)}}
            for pair in pairs
        ]

    return {"base": side(base), "change": side(change)}


def test_spread_quartiles_are_inclusive():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    # Inclusive quartiles of 1..5 fall on 2 and 4; exclusive ones on 1.5 and 4.5.
    assert bench_pairs.spread(values) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "values": values
    }
    assert bench_pairs.spread([1.0, 3.0]) == {
        "median": 2.0, "q1": 1.5, "q3": 2.5, "values": [1.0, 3.0]
    }


def test_summarise_counts_wins_in_the_better_direction_and_ties_for_neither():
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower"},
        {"name": "throughput", "unit": "units/s", "better": "higher"},
    ]
    runs = _runs(
        base={"wall_s": [1.0, 2.0, 3.0], "throughput": [10.0, 20.0, 30.0]},
        change={"wall_s": [0.5, 2.0, 2.5], "throughput": [11.0, 20.0, 31.0]},
    )
    out = bench_pairs.summarise(metrics, runs)
    assert list(out) == ["wall_s", "throughput"]
    # wall_s: the change is lower in pairs 1 and 3 and ties in pair 2.
    assert out["wall_s"]["change_wins"] == 2
    # throughput: higher in pairs 1 and 3; the tie in pair 2 does not count.
    assert out["throughput"]["change_wins"] == 2
    assert out["wall_s"]["unit"] == "s" and out["wall_s"]["better"] == "lower"
    assert out["throughput"]["better"] == "higher"
    assert out["wall_s"]["base"] == bench_pairs.spread([1.0, 2.0, 3.0])
    assert out["throughput"]["change"] == bench_pairs.spread([11.0, 20.0, 31.0])


def test_change_side_is_a_snapshot_of_the_working_tree(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("__pycache__/\n.bench_build/\n")
    (tmp_path / "mod.py").write_text("X = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (tmp_path / "mod.py").write_text("X = 2\n")
    (tmp_path / "new.py").write_text("Y = 3\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "mod.cpython.pyc").write_bytes(b"\0")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)

    tree = bench_pairs.snapshot()
    assert tree == tmp_path / ".bench_build" / "change"
    assert sorted(p.name for p in tree.iterdir()) == [".gitignore", "mod.py", "new.py"]
    assert (tree / "mod.py").read_text() == "X = 2\n"
    # The real index is untouched: the edit and the new file stay unstaged.
    status = subprocess.run(
        ["git", "status", "--porcelain"], cwd=tmp_path, capture_output=True, text=True
    ).stdout
    assert status.splitlines() == [" M mod.py", "?? new.py"]


def test_bench_runs_perfbench_for_the_given_seconds(tmp_path, monkeypatch):
    calls = []

    def run(argv, **kwargs):
        calls.append((argv, kwargs["cwd"]))
        return subprocess.CompletedProcess(argv, 0, stdout='noise\n{"failed": 0}\n', stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.bench(tmp_path, "sweep_256", 41, 0, 35) == {"failed": 0}
    assert calls == [(
        [bench_pairs.sys.executable, "perfbench/run.py", "--workload", "sweep_256",
         "--seed", "41", "--seconds", "35", "--trace", "0"],
        tmp_path,
    )]


def test_every_run_lasts_the_benchmark_run_seconds(tmp_path, monkeypatch):
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    record = tmp_path / "change" / ".bench_build" / "perfbench"
    record.mkdir(parents=True)
    (record / f"{workloads[0]}-seed{bench_pairs.FIRST_SEED}-trace0.json").write_text(
        '{"environment": {}}'
    )
    seconds = []

    def bench(tree, workload, seed, trace, run_seconds):
        seconds.append(run_seconds)
        names = [m["name"] for m in spec["end_to_end"]]
        return {"failed": 0, "attempted": 1, "metrics": {n: {"value": 1.0} for n in names}}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    monkeypatch.setattr(bench_pairs, "extract", lambda treeish, name: tmp_path / "base")
    monkeypatch.setattr(bench_pairs, "snapshot", lambda: tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", "HEAD", "--pairs", "2", "--out", str(out)]) == 0
    # 2 pairs x 2 sides per workload, then one traced pass per side.
    assert seconds == [spec["run_seconds"]] * (4 * len(workloads) + 2)
    assert json.loads(out.read_text())["run_seconds"] == spec["run_seconds"]
