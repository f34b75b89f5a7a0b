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

SPEC = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


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


def test_line_counts_sum_numstat_rows_and_skip_binary_files():
    numstat = "12\t40\tsrc/qopinion/cli.py\n3\t0\tsrc/qopinion/new file.py\n-\t-\tsrc/logo.png\n"
    assert bench_pairs.line_counts(numstat) == {
        "added": 15, "removed": 40, "net": -25,
        "files": {
            "src/qopinion/cli.py": {"added": 12, "removed": 40, "net": -28},
            "src/qopinion/new file.py": {"added": 3, "removed": 0, "net": 3},
        },
    }
    assert bench_pairs.line_counts("") == {"added": 0, "removed": 0, "net": 0, "files": {}}


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


def _write_record(tree: Path, seed: int, walls: dict[str, list[float]],
                  workload: str = "golden_run", cpu: tuple[float, float] = (0.1, 0.01)) -> None:
    """A ``workload`` record of ``tree`` at ``seed`` whose invocations ran
    each stem's file once per wall time, the files in turn as perfbench runs
    its passes, each in ``cpu`` user and sys seconds, with the run's
    environment block."""
    runs = [
        {"args": ["run", f"/bench/inputs/{stem}.qx", "--out", f"{stem}.csv"], "wall_s": wall,
         "user_s": cpu[0], "sys_s": cpu[1]}
        for rounds in zip(*walls.values()) for stem, wall in zip(walls, rounds)
    ]
    record = tree / ".bench_build" / "perfbench" / f"{workload}-seed{seed}-trace0.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"environment": {"python": "3"}, "invocations": runs}))


def test_file_walls_are_each_files_median_by_stem(tmp_path):
    _write_record(tmp_path, 7, {"sweep_grid": [0.3, 0.1, 0.2], "degrees": [0.05, 0.07, 0.06]})
    assert bench_pairs.file_walls(tmp_path, 7) == {"degrees": 0.06, "sweep_grid": 0.2}


def test_cpu_seconds_are_the_median_invocations_user_plus_sys(tmp_path):
    _write_record(tmp_path, 7, {"a": [0.3, 0.1], "b": [0.2, 0.4]}, "simulate_1e7", (0.5, 0.25))
    record = tmp_path / ".bench_build" / "perfbench" / "simulate_1e7-seed7-trace0.json"
    runs = json.loads(record.read_text())
    runs["invocations"][0].update(user_s=2.0, sys_s=1.0)  # one slow invocation
    runs["invocations"][1].update(user_s=0.25, sys_s=0.25)
    record.write_text(json.dumps(runs))
    # 3.0, 0.5, 0.75 and 0.75 seconds: the median is 0.75.
    assert bench_pairs.cpu_seconds(tmp_path, "simulate_1e7", 7) == 0.75


# Per golden file and side, the wall times of a stub run's two passes: the
# change is faster on "sweep" in every pair and ties on "basic".
STUB_WALLS = {
    "base": {"basic": [0.1, 0.1], "sweep": [0.5, 0.7]},
    "change": {"basic": [0.1, 0.1], "sweep": [0.1, 0.3]},
}
# Per side, the user and sys seconds of each stub invocation in the first
# pair; the second pair's take twice the user seconds.
STUB_CPU = {"base": (0.2, 0.05), "change": (0.3, 0.1)}


def _main_with_stub_runs(tmp_path, monkeypatch) -> tuple[dict, list[float]]:
    """The summary that ``main`` writes for 2 pairs of stub perfbench runs,
    each reporting 1.0 for every metric and recording the wall times of
    ``STUB_WALLS`` and the CPU seconds of ``STUB_CPU``, and the seconds each
    run was given."""
    seconds = []

    def bench(tree, workload, seed, trace, run_seconds):
        seconds.append(run_seconds)
        if trace == 0:
            _write_record(tree, seed, STUB_WALLS[tree.name], workload,
                          (STUB_CPU[tree.name][0] * (seed - 40), STUB_CPU[tree.name][1]))
        names = [m["name"] for m in SPEC["end_to_end"]]
        return {"failed": 0, "attempted": 1, "metrics": {n: {"value": 1.0} for n in names}}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    monkeypatch.setattr(bench_pairs, "extract", lambda treeish, name: tmp_path / "base")
    monkeypatch.setattr(bench_pairs, "snapshot", lambda: tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", "HEAD", "--pairs", "2", "--out", str(out)]) == 0
    return json.loads(out.read_text()), seconds


def test_every_run_lasts_the_benchmark_run_seconds(tmp_path, monkeypatch):
    result, seconds = _main_with_stub_runs(tmp_path, monkeypatch)
    # 2 pairs x 2 sides per workload, then one traced pass per side.
    assert seconds == [SPEC["run_seconds"]] * (4 * len(WORKLOADS) + 2)
    assert result["run_seconds"] == SPEC["run_seconds"]


def test_python_settings_are_recorded_as_set(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    result, _ = _main_with_stub_runs(tmp_path, monkeypatch)
    assert result["python_env"] == {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONUNBUFFERED": None}
    assert result["environment"] == {"python": "3"}


def test_golden_run_is_summarised_per_file(tmp_path, monkeypatch):
    result, _ = _main_with_stub_runs(tmp_path, monkeypatch)
    files = result["workloads"]["golden_run"]["files"]
    assert files == {
        "basic": {"base": bench_pairs.spread([0.1, 0.1]),
                  "change": bench_pairs.spread([0.1, 0.1]), "change_wins": 0},
        "sweep": {"base": bench_pairs.spread([0.6, 0.6]),
                  "change": bench_pairs.spread([0.2, 0.2]), "change_wins": 2},
    }
    assert [w for w, out in result["workloads"].items() if "files" in out] == ["golden_run"]


def test_each_workload_reports_the_hosts_cpu_seconds_per_side(tmp_path, monkeypatch):
    result, _ = _main_with_stub_runs(tmp_path, monkeypatch)
    # (0.2 + 0.05, 2 * 0.2 + 0.05) on the base side, (0.3 + 0.1, 2 * 0.3 + 0.1) on the change's.
    for out in result["workloads"].values():
        assert out["cpu_s_per_invocation"] == {
            "base": bench_pairs.spread([0.25, 0.45]),
            "change": bench_pairs.spread([0.4, 0.7]),
        }
