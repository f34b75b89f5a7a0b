"""Alternating base/change pairs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --base REV --pairs N --out FILE

The change side is a snapshot of this checkout's working tree: every file
git does not ignore, edits and untracked files included, so neither side
starts with ``__pycache__``.  It is extracted under ``.bench_build/change/``
and the base side, REV, under ``.bench_build/base-<commit>/``.  For
each of N pairs and each workload it runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once per side (pair i uses seed
FIRST_SEED + i; the side that runs first alternates), then one traced pass
(``--workload all --trace 1``) per side.  T is ``run_seconds`` from
``BENCHMARK.json``, the run length the benchmark is judged at: a sweep's
later passes, for one, report a higher ``peak_rss_mb`` than its first.
FILE gets T, and per workload and end-to-end metric of ``BENCHMARK.json``,
each side's values, median and quartiles and the number of pairs the
change won (ties count for neither), failed/attempted invocations per
side, the traced per-layer metrics and the environment block.  Under
``golden_run``'s ``files`` it gets the same spreads and win counts for each
golden file, from the median wall time of that file's invocations in each
run (read from the run's record, ``.bench_build/perfbench/golden_run-seed<S>-
trace0.json`` in its tree), so a gain shows on the files it comes from.  Under
each workload's ``cpu_s_per_invocation`` it gets each side's spread of the
runs' median user + sys CPU seconds per invocation, read from the same
records: a wide spread there, on both sides, is the host drifting.  It also
gets the lines of ``src/`` that the change adds and removes against REV,
the net count, and the Python settings of ``PYTHON_ENV`` as this process
had them (null when unset), which every child inherits: without a bytecode
cache, for one, each child compiles qopinion anew, so ``setup_s`` depends
on ``PYTHONDONTWRITEBYTECODE``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 41
PER_FILE = "golden_run"  # the workload whose invocations are summarised per file
PYTHON_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(treeish: str, name: str) -> Path:
    """A fresh copy of ``treeish``'s files in ``.bench_build/<name>/``."""
    tree = ROOT / ".bench_build" / name
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", treeish], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def worktree() -> str:
    """The id of a git tree of the working tree's files that git does not
    ignore, staged through a throwaway index so the real one is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
        return subprocess.run(
            ["git", "write-tree"], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()


def snapshot() -> Path:
    """A fresh copy of :func:`worktree`'s files."""
    return extract(worktree(), "change")


def line_counts(numstat: str) -> dict:
    """Lines ``added`` and ``removed`` in ``git diff --numstat`` output, their
    ``net`` difference, and the same three counts per path under ``files``.
    A binary file, listed as "-", counts none and is not listed."""
    files = {
        path: {"added": int(a), "removed": int(r), "net": int(a) - int(r)}
        for a, r, path in re.findall(r"^(\d+)\t(\d+)\t(.*)$", numstat, re.MULTILINE)
    }
    added = sum(f["added"] for f in files.values())
    removed = sum(f["removed"] for f in files.values())
    return {"added": added, "removed": removed, "net": added - removed, "files": files}


def bench(tree: Path, workload: str, seed: int, trace: int, seconds: float) -> dict:
    """Last-line JSON result of one ``seconds``-long perfbench run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(base: list[float], change: list[float], lower: bool = True) -> dict:
    """Each side's spread and the pairs the change won (ties count for neither)."""
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    return {"base": spread(base), "change": spread(change), "change_wins": wins}


def summarise(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per-metric spread of each side and the change's win count."""
    out = {}
    for m in metrics:
        name = m["name"]
        base, change = ([r["metrics"][name]["value"] for r in runs[side]]
                        for side in ("base", "change"))
        out[name] = {"unit": m["unit"], "better": m["better"],
                     **compare(base, change, m["better"] == "lower")}
    return out


def invocations(tree: Path, workload: str, seed: int) -> list[dict]:
    """The invocations of the untraced ``workload`` run of ``tree`` at
    ``seed``, from its record, ``.bench_build/perfbench/<workload>-seed<S>-
    trace0.json`` in the tree."""
    record = tree / ".bench_build" / "perfbench" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(record.read_text())["invocations"]


def cpu_seconds(tree: Path, workload: str, seed: int) -> float:
    """Median user + sys CPU seconds of one invocation in that run: how fast
    the host ran it, apart from how long the run waited."""
    return statistics.median(
        inv["user_s"] + inv["sys_s"] for inv in invocations(tree, workload, seed)
    )


def file_walls(tree: Path, seed: int) -> dict[str, float]:
    """Median wall seconds of each file's invocations in the ``PER_FILE``
    run of ``tree`` at ``seed``, keyed by the stem of the file it ran."""
    walls: dict[str, list[float]] = {}
    for inv in invocations(tree, PER_FILE, seed):
        walls.setdefault(Path(inv["args"][1]).stem, []).append(inv["wall_s"])
    return {stem: statistics.median(w) for stem, w in sorted(walls.items())}


def summarise_files(walls: dict[str, list[dict[str, float]]]) -> dict:
    """Per file, :func:`compare` of the sides' per-run medians."""
    return {
        stem: compare(*([run[stem] for run in walls[side]] for side in ("base", "change")))
        for stem in walls["base"][0]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two values)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    trees = {"base": extract(commit, f"base-{commit[:12]}"), "change": snapshot()}
    src_lines = line_counts(_git("diff", "--numstat", commit, worktree(), "--", "src"))
    runs = {w: {"base": [], "change": []} for w in workloads}
    cpu = {w: {"base": [], "change": []} for w in workloads}
    walls: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for w in workloads:
            for side in order:
                runs[w][side].append(bench(trees[side], w, FIRST_SEED + i, 0, seconds))
                cpu[w][side].append(cpu_seconds(trees[side], w, FIRST_SEED + i))
                if w == PER_FILE:
                    walls[side].append(file_walls(trees[side], FIRST_SEED + i))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    traced = {side: bench(tree, "all", FIRST_SEED, 1, seconds) for side, tree in trees.items()}

    env_record = (trees["change"] / ".bench_build" / "perfbench"
                  / f"{workloads[0]}-seed{FIRST_SEED}-trace0.json")
    result = {
        "command": f"python3 tools/bench_pairs.py --base {args.base} --pairs {args.pairs} "
        f"--out {args.out}",
        "base": commit,
        "change": _git("rev-parse", "HEAD")
        + ("+uncommitted" if _git("status", "--porcelain") else ""),
        "pairs": args.pairs,
        "run_seconds": seconds,
        "seeds": [FIRST_SEED + i for i in range(args.pairs)],
        "src_lines": src_lines,
        "workloads": {
            w: {
                "failed": {
                    side: f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
                    for side, rs in runs[w].items()
                },
                "metrics": summarise(spec["end_to_end"], runs[w]),
                "cpu_s_per_invocation": {side: spread(v) for side, v in cpu[w].items()},
                **({"files": summarise_files(walls)} if w == PER_FILE else {}),
            }
            for w in workloads
        },
        "traced": {
            side: {"failed": f"{r['failed']}/{r['attempted']}",
                   "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
            for side, r in traced.items()
        },
        "environment": json.loads(env_record.read_text())["environment"],
        "python_env": {name: os.environ.get(name) for name in PYTHON_ENV},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
