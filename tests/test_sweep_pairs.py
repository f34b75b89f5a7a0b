"""The summary that ``tools/sweep_pairs.py`` writes for a sweep's pairs."""

import importlib.util
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))  # sweep_pairs imports bench_pairs as a sibling
_SPEC = importlib.util.spec_from_file_location("sweep_pairs", TOOLS / "sweep_pairs.py")
sweep_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep_pairs)


def _run(wall, rss, csv="c", svg="s", run=None):
    """A sweep's reading, with a run's reading of the same CSV (by default
    twice the sweep's wall time and its max RSS)."""
    run = {"wall_s": 2 * wall, "max_rss_mb": rss, "csv": csv} if run is None else run
    return {"wall_s": wall, "max_rss_mb": rss, "csv": csv, "svg": svg, "run": run}


def test_summary_counts_lower_as_a_win_and_compares_the_bytes():
    runs = {
        "base": [_run(1.0, 140.0), _run(2.0, 142.0), _run(3.0, 141.0)],
        "change": [_run(0.5, 43.0), _run(2.0, 44.0), _run(3.5, 43.5)],
    }
    out = sweep_pairs.summarise(runs, [13.0, 13.5, 13.0])
    # wall_s: lower in pair 1, a tie in pair 2, higher in pair 3.
    assert out["wall_s"]["change_wins"] == 1
    assert out["max_rss_mb"]["change_wins"] == 3
    assert out["wall_s"]["base"] == sweep_pairs.spread([1.0, 2.0, 3.0])
    assert out["max_rss_mb"]["change"] == sweep_pairs.spread([43.0, 44.0, 43.5])
    assert out["floor_rss_mb"] == sweep_pairs.spread([13.0, 13.5, 13.0])
    assert out["same_bytes"] == {"csv": True, "svg": True, "run": True}
    assert out["run"]["wall_s"]["change_wins"] == 1
    assert out["run"]["wall_s"]["base"] == sweep_pairs.spread([2.0, 4.0, 6.0])
    assert out["run"]["max_rss_mb"]["change"] == sweep_pairs.spread([43.0, 44.0, 43.5])


def test_run_is_compared_on_each_side_with_its_own_sweep():
    slow_run = {"wall_s": 0.9, "max_rss_mb": 125.0, "csv": "c"}
    runs = {
        "base": [_run(1.0, 36.0, run=slow_run), _run(1.0, 36.0, run=slow_run)],
        "change": [_run(1.0, 36.0), _run(1.0, 36.0, run={**slow_run, "max_rss_mb": 39.0})],
    }
    out = sweep_pairs.summarise(runs, [1.0, 1.0])
    assert out["run"]["max_rss_mb"]["change_wins"] == 2
    assert out["run"]["max_rss_mb"]["base"]["median"] == 125.0
    assert out["same_bytes"]["run"] is True
    runs["base"][1]["run"] = {**slow_run, "csv": "other"}
    assert sweep_pairs.summarise(runs, [1.0, 1.0])["same_bytes"] == {
        "csv": True, "svg": True, "run": False,
    }


def test_one_differing_pair_marks_the_bytes_unequal():
    runs = {
        "base": [_run(1.0, 1.0), _run(1.0, 1.0)],
        "change": [_run(1.0, 1.0), _run(1.0, 1.0, svg="other")],
    }
    assert sweep_pairs.summarise(runs, [1.0, 1.0])["same_bytes"] == {
        "csv": True, "svg": False, "run": True,
    }


def test_main_alternates_the_sides_and_reads_the_floor_each_pair(tmp_path, monkeypatch):
    calls = []

    def sweep(tree, size, phi, out):
        calls.append((tree.name, size, phi))
        return _run(1.0 if tree.name == "base" else 0.9, 40.0)

    def run(tree, size, phi, out):
        calls.append(("run", tree.name, size, phi))
        return {"wall_s": 1.0 if tree.name == "base" else 1.1, "max_rss_mb": 41.0, "csv": "c"}

    def spawn(argv, env):
        calls.append(tuple(argv))
        return {"wall_s": 0.01, "max_rss_mb": 12.0}

    monkeypatch.setattr(sweep_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(sweep_pairs, "sweep", sweep)
    monkeypatch.setattr(sweep_pairs, "run", run)
    monkeypatch.setattr(sweep_pairs, "spawn", spawn)
    monkeypatch.setattr(sweep_pairs, "extract", lambda treeish, name: tmp_path / "base")
    monkeypatch.setattr(sweep_pairs, "snapshot", lambda: tmp_path / "change")
    monkeypatch.setattr(sweep_pairs, "_git", lambda *args: "0" * 40)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    out = tmp_path / "pairs.json"
    argv = ["--base", "HEAD", "--size", "64", "--pairs", "2", "--phi", "0", "--out", str(out)]
    assert sweep_pairs.main(argv) == 0
    assert calls == [
        ("-c", "pass"), ("base", 64, "0"), ("run", "base", 64, "0"),
        ("change", 64, "0"), ("run", "change", 64, "0"),
        ("-c", "pass"), ("change", 64, "0"), ("run", "change", 64, "0"),
        ("base", 64, "0"), ("run", "base", 64, "0"),
    ]
    result = json.loads(out.read_text())
    assert (result["size"], result["phi"], result["pairs"]) == (64, "0", 2)
    assert result["wall_s"]["change_wins"] == 2
    assert result["run"]["wall_s"]["change_wins"] == 0
    assert result["floor_rss_mb"]["median"] == 12.0
    assert result["same_bytes"] == {"csv": True, "svg": True, "run": True}
    assert result["python_env"] == {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONUNBUFFERED": None}


def test_run_reading_is_the_sweep_csv_after_its_marker_line(tmp_path):
    # Both readings of this checkout's tree on a 20 x 20 grid: the sweep forks,
    # the run does not, and their CSVs differ only by the run's "# task" line.
    tree = Path(__file__).resolve().parents[1]
    swept = sweep_pairs.sweep(tree, 20, "0.3", tmp_path)
    ran = sweep_pairs.run(tree, 20, "0.3", tmp_path)
    assert ran["csv"] == swept["csv"]
    assert ran["wall_s"] > 0 and ran["max_rss_mb"] > 0
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.qx"]


def test_simulate_mode_times_a_simulation_beside_each_sweep(tmp_path, monkeypatch):
    calls = []

    def simulate(tree, agents, out):
        calls.append(("simulate", tree.name, agents))
        digest = "d" if tree.name == "base" or len(calls) < 3 else "other"
        return {"wall_s": 0.5 if tree.name == "base" else 0.4, "max_rss_mb": 36.0,
                "csv": digest}

    monkeypatch.setattr(sweep_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(sweep_pairs, "sweep", lambda tree, size, phi, out: _run(1.0, 40.0))
    monkeypatch.setattr(sweep_pairs, "run", lambda tree, size, phi, out: _run(2.0, 40.0)["run"])
    monkeypatch.setattr(sweep_pairs, "simulate", simulate)
    monkeypatch.setattr(sweep_pairs, "spawn", lambda argv, env: {"max_rss_mb": 12.0})
    monkeypatch.setattr(sweep_pairs, "extract", lambda treeish, name: tmp_path / "base")
    monkeypatch.setattr(sweep_pairs, "snapshot", lambda: tmp_path / "change")
    monkeypatch.setattr(sweep_pairs, "_git", lambda *args: "0" * 40)
    out = tmp_path / "pairs.json"
    argv = ["--base", "HEAD", "--size", "64", "--pairs", "2", "--simulate", "1000",
            "--out", str(out)]
    assert sweep_pairs.main(argv) == 0
    assert calls == [("simulate", "base", 1000), ("simulate", "change", 1000),
                     ("simulate", "change", 1000), ("simulate", "base", 1000)]
    result = json.loads(out.read_text())
    assert result["simulate_agents"] == 1000
    assert "--simulate 1000" in result["command"]
    assert result["simulate"]["wall_s"]["change_wins"] == 2
    assert result["simulate"]["max_rss_mb"]["base"] == sweep_pairs.spread([36.0, 36.0])
    # The change's second simulation wrote other bytes.
    assert result["same_bytes"] == {"csv": True, "svg": True, "run": True, "simulate": False}


def test_simulate_reading_is_the_golden_files_simulation(tmp_path):
    tree = Path(__file__).resolve().parents[1]
    reading = sweep_pairs.simulate(tree, 1000, tmp_path)
    assert reading["wall_s"] > 0 and reading["max_rss_mb"] > 0
    assert reading["csv"] == sweep_pairs.simulate(tree, 1000, tmp_path)["csv"]
    assert list(tmp_path.iterdir()) == []
