"""Alternating base/change pairs of one ``qopinion sweep --svg``, summarised.

    python3 tools/sweep_pairs.py --base REV (--size N | --golden) --pairs P [--phi X]
        [--simulate AGENTS] --out FILE

Each side is a fresh tree, as ``tools/bench_pairs.py`` makes them: REV under
``.bench_build/base-<commit>/`` and a snapshot of this checkout's working
tree under ``.bench_build/change/``.  For each of P pairs it runs ``python -m
qopinion sweep`` once per side (the side that runs first alternates) on an
N x N grid over 0.01..3.13 in theta and theta_a at phi X, with ``--svg``,
and reads the child's wall time and, through ``os.wait4``, its own max RSS.
Then, on the same side, it reads ``python -m qopinion run --out`` of a file
whose one task is the same sweep, without an SVG.  With ``--simulate``, it
then reads ``python -m qopinion simulate`` of the golden
``simulate_population.qx`` at AGENTS agents and seed 11.  An exec'd child's max
RSS starts from its parent's, so this tool imports no numpy, and each pair
also reads a ``python -c pass`` child: the floor below which no reading can
fall.  FILE gets, per side and for the sweep, (under ``run``) the run and
(under ``simulate``) the simulation, the median and quartiles of the wall
times and max RSS, the pairs the change won (ties count for neither), the
floor's spread, and whether the bytes were equal in every pair: the sweep's
CSV and SVG and the simulation's CSV on the two sides, and each run's CSV
after its ``# task`` line with its side's sweep CSV.
With ``--golden`` in place of ``--size``, each side runs ``python -m qopinion
run FILE --out`` once for each ``tests/golden/*.qx`` of its own tree instead
of the sweep and the run, and checks each CSV byte for byte against the
``tests/golden/<stem>.csv`` beside it.  FILE then gets under ``golden``, per
file and for the pass over all of them (its wall times summed), each side's
median and quartiles and the pairs the change won, and the floor's wall-time
spread, the share of a file's time that no change to qopinion can remove;
``same_bytes`` says whether every CSV matched.
It also gets the Python settings of ``bench_pairs.PYTHON_ENV`` as this
process had them (null when unset), which every child inherits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from bench_pairs import PYTHON_ENV, ROOT, _git, compare, extract, snapshot, spread

METRICS = ("wall_s", "max_rss_mb")


def spawn(argv: list[str], env: dict) -> dict:
    """Wall seconds and own max RSS (MB) of one child; exits on its failure."""
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"exit {os.waitstatus_to_exitcode(status)}: {' '.join(argv)}")
    return {"wall_s": wall, "max_rss_mb": usage.ru_maxrss / 1024}


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def sweep(tree: Path, size: int, phi: str, out: Path) -> dict:
    """One ``qopinion sweep --svg`` from ``tree``: :func:`spawn`'s readings
    and the digests of the CSV and the SVG, whose files are then removed."""
    axis = f"0.01:3.13:{size}"
    csv, svg = out / "sweep.csv", out / "sweep.svg"
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    reading = spawn(["-m", "qopinion", "sweep", "--theta", axis, "--theta-a", axis,
                     "--phi", phi, "--out", str(csv), "--svg", str(svg)], env)
    reading.update(csv=_digest(csv), svg=_digest(svg))
    csv.unlink()
    svg.unlink()
    return reading


def run(tree: Path, size: int, phi: str, out: Path) -> dict:
    """One ``qopinion run --out`` of a file whose one task is the sweep of
    :func:`sweep`: :func:`spawn`'s readings and the digest of its CSV after
    the ``# task`` line, whose file is then removed."""
    axis = f"0.01:3.13:{size}"
    qx, csv = out / "sweep.qx", out / "run.csv"
    qx.write_text("question a\nquestion b from a theta=0.3\n"
                  f"task sweep pair=a,b theta={axis} theta_a={axis} phi={phi}\n")
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    reading = spawn(["-m", "qopinion", "run", str(qx), "--out", str(csv)], env)
    with open(csv, "rb") as fh:
        fh.readline()
        reading["csv"] = hashlib.file_digest(fh, "sha256").hexdigest()
    csv.unlink()
    return reading


def simulate(tree: Path, agents: int, out: Path) -> dict:
    """One ``qopinion simulate`` from ``tree`` of its golden
    ``simulate_population.qx`` at ``agents`` agents and seed 11:
    :func:`spawn`'s readings and the digest of its CSV, whose file is then
    removed."""
    qx, csv = tree / "tests" / "golden" / "simulate_population.qx", out / "simulate.csv"
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    reading = spawn(["-m", "qopinion", "simulate", str(qx), "--agents", str(agents),
                     "--seed", "11", "--out", str(csv)], env)
    reading["csv"] = _digest(csv)
    csv.unlink()
    return reading


def golden(tree: Path, out: Path) -> dict:
    """``python -m qopinion run FILE --out`` from ``tree`` once for each of its
    ``tests/golden/*.qx``, keyed by stem: :func:`spawn`'s readings and whether
    the CSV, then removed, is byte for byte the ``.csv`` beside the file."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    csv, readings = out / "golden.csv", {}
    for qx in sorted((tree / "tests" / "golden").glob("*.qx")):
        reading = spawn(["-m", "qopinion", "run", str(qx), "--out", str(csv)], env)
        reading["same"] = csv.read_bytes() == qx.with_suffix(".csv").read_bytes()
        csv.unlink()
        readings[qx.stem] = reading
    return readings


def _compare(base: list[dict], change: list[dict]) -> dict:
    """Per-metric :func:`compare` of the sides (lower is better for both)."""
    return {name: compare([r[name] for r in base], [r[name] for r in change])
            for name in METRICS}


def _summarise_golden(base: list[dict], change: list[dict]) -> dict:
    """Each file's :func:`_compare` over the sides' :func:`golden` passes, by
    stem, and under ``pass`` the :func:`compare` of the passes' summed walls."""
    out = {stem: _compare([p[stem] for p in base], [p[stem] for p in change])
           for stem in base[0]}
    walls = ([sum(reading["wall_s"] for reading in p.values()) for p in side]
             for side in (base, change))
    out["pass"] = compare(*walls)
    return out


def summarise(runs: dict[str, list[dict]], floor: list[float],
              floor_wall: list[float] | None = None) -> dict:
    """The sweeps' :func:`_compare`, the runs' under ``run`` (or, for
    :func:`golden` readings, each file's and the pass's under ``golden``, with
    the floor's wall spread ``floor_wall``) and, where the readings have them,
    the simulations' under ``simulate``, the floor's spread, and the byte
    comparison."""
    base, change = runs["base"], runs["change"]
    if "golden" in base[0]:
        passes = [[r["golden"] for r in side] for side in (base, change)]
        out = {"golden": _summarise_golden(*passes), "floor_wall_s": spread(floor_wall)}
        out["same_bytes"] = {"golden": all(
            reading["same"] for side in passes for p in side for reading in p.values()
        )}
    else:
        out = _compare(base, change)
        out["run"] = _compare(*([r["run"] for r in side] for side in (base, change)))
        out["same_bytes"] = {
            kind: all(b[kind] == c[kind] for b, c in zip(base, change))
            for kind in ("csv", "svg")
        }
        out["same_bytes"]["run"] = all(r["run"]["csv"] == r["csv"] for r in base + change)
    out["floor_rss_mb"] = spread(floor)
    if "simulate" in base[0]:
        sims = [[r["simulate"] for r in side] for side in (base, change)]
        out["simulate"] = _compare(*sims)
        out["same_bytes"]["simulate"] = all(b["csv"] == c["csv"] for b, c in zip(*sims))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    kind = parser.add_mutually_exclusive_group(required=True)
    kind.add_argument("--size", type=int, help="grid points per axis")
    kind.add_argument("--golden", action="store_true",
                      help="run each tests/golden/*.qx instead of a sweep")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--phi", default="0.3")
    parser.add_argument("--simulate", type=int, metavar="AGENTS",
                        help="also time a simulation of this many agents")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two values)")

    commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    trees = {"base": extract(commit, f"base-{commit[:12]}"), "change": snapshot()}
    outputs = ROOT / ".bench_build" / "sweep_pairs"
    outputs.mkdir(parents=True, exist_ok=True)
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    floor = []
    for i in range(args.pairs):
        floor.append(spawn(["-c", "pass"], dict(os.environ)))
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            if args.golden:
                reading = {"golden": golden(trees[side], outputs)}
            else:
                reading = sweep(trees[side], args.size, args.phi, outputs)
                reading["run"] = run(trees[side], args.size, args.phi, outputs)
            if args.simulate:
                reading["simulate"] = simulate(trees[side], args.simulate, outputs)
            runs[side].append(reading)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    result = {
        "command": f"python3 tools/sweep_pairs.py --base {args.base} "
        + ("--golden " if args.golden else f"--size {args.size} ")
        + f"--pairs {args.pairs} --phi {args.phi}"
        + (f" --simulate {args.simulate}" if args.simulate else "") + f" --out {args.out}",
        "base": commit,
        "change": _git("rev-parse", "HEAD")
        + ("+uncommitted" if _git("status", "--porcelain") else ""),
        "size": args.size,
        "golden": args.golden,
        "phi": args.phi,
        "simulate_agents": args.simulate,
        "pairs": args.pairs,
        **summarise(runs, [f["max_rss_mb"] for f in floor],
                    [f["wall_s"] for f in floor] if args.golden else None),
        "python_env": {name: os.environ.get(name) for name in PYTHON_ENV},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
