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
side, the traced per-layer metrics and the environment block.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 41


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


def snapshot() -> Path:
    """A fresh copy of the working tree's files that git does not ignore,
    staged through a throwaway index so the real one is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
        tree_id = subprocess.run(
            ["git", "write-tree"], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
    return extract(tree_id, "change")


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


def summarise(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per-metric spread of each side and the change's win count."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "base": spread(base), "change": spread(change), "change_wins": wins,
        }
    return out


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
    runs = {w: {"base": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for w in workloads:
            for side in order:
                runs[w][side].append(bench(trees[side], w, FIRST_SEED + i, 0, seconds))
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
        "workloads": {
            w: {
                "failed": {
                    side: f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
                    for side, rs in runs[w].items()
                },
                "metrics": summarise(spec["end_to_end"], runs[w]),
            }
            for w in workloads
        },
        "traced": {
            side: {"failed": f"{r['failed']}/{r['attempted']}",
                   "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
            for side, r in traced.items()
        },
        "environment": json.loads(env_record.read_text())["environment"],
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
