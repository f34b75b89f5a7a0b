"""Benchmark of the qopinion CLI, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``sweep_256``, ``simulate_1e7``, ``golden_run`` or ``all``.  Run it
from anywhere inside a checkout; it imports and runs ``src/qopinion`` of
that checkout, writes only under ``.bench_build/perfbench/`` and prints one
JSON result as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` times the workload as CLI subprocesses in a closed loop for S
seconds and reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced for a third of S, then repeats a traced in-process pass
over every layer (see probes.py) while another pass fits in S, and reports
the per-layer metrics.  ``attempted``/``failed`` count CLI invocations; an
invocation fails on a nonzero exit, a missing output or a failed output
check, so ``failed / attempted`` is the fail ratio.  A readable summary and
the environment go to stderr, and the full record (environment, per-pass
timings, spans) to ``.bench_build/perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sweep_256", "simulate_1e7", "golden_run")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "throughput": "units/s", "peak_rss_mb": "MB"}


def environment() -> dict:
    """Machine and software facts recorded with every result."""
    import numpy

    from qopinion import kernels

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "last_level_cache": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.backend_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }
    try:
        out = subprocess.run(
            ["lscpu", "-J"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
        fields = {f["field"].rstrip(":"): f["data"] for f in json.loads(out)["lscpu"]}
    except (OSError, ValueError, KeyError, subprocess.SubprocessError):
        return info
    info["cpu_model"] = fields.get("Model name")
    info["last_level_cache"] = fields.get("L3 cache") or fields.get("L2 cache")
    return info


def _per_layer(workload, sizes, seed, seconds, workdir, env, root):
    """Untraced passes for a third of ``seconds``, then traced probe sets
    while another one fits in ``seconds`` (at least one); per-layer medians
    over the sets."""
    import probes
    from workloads import closed_loop, median

    start = time.perf_counter()
    walls, invocations = closed_loop(workload, seed, seconds / 3.0, workdir, env)
    sets, replays, spans = [], [], []
    last = 0.0
    while not sets or time.perf_counter() - start + last < seconds:
        set_start = time.perf_counter()
        metrics, replay, set_spans = probes.probe_set(sizes, root, env)
        last = time.perf_counter() - set_start
        sets.append(metrics)
        replays.append(replay[workload.name])
        spans.append(set_spans)
    values = {name: median(s.get(name) for s in sets) for name in probes.PER_LAYER_UNITS}
    replay = median(replays)
    values["trace.overhead_s"] = None if replay is None else replay - median(walls)
    return values, walls, invocations, spans


def run(name: str, seed: int, seconds: float, trace: int, sizes=None, root: Path = ROOT):
    """Run one workload and return (result, record)."""
    # workloads, checks and probes import qopinion, so they load only after
    # main() has put the checkout's src/ first on sys.path.
    import workloads

    sizes = sizes or workloads.FULL
    env = workloads.child_env(root)
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        workload = workloads.WORKLOADS[name](sizes)
        if trace:
            import probes

            values, walls, invocations, spans = _per_layer(
                workload, sizes, seed, seconds, workdir, env, root
            )
            units = probes.PER_LAYER_UNITS
        else:
            values, walls, invocations = workloads.measure_end_to_end(
                workload, seed, seconds, workdir, env, root
            )
            units, spans = E2E_UNITS, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(inv.failed for inv in invocations)
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "work_units_per_pass": f"{workload.units_per_pass} {workload.unit}",
        "pass_walls_s": walls,
        "invocations": [
            {"args": i.args, "wall_s": i.wall_s, "user_s": i.user_s, "sys_s": i.sys_s,
             "exit_code": i.exit_code, "maxrss_mb": i.maxrss_mb, "problems": i.problems}
            for i in invocations
        ],
        "spans": spans,
        "result": result,
    }
    path = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def _summary(name: str, record: dict) -> None:
    result = record["result"]
    print(f"== {name}: {record['work_units_per_pass']} per pass, "
          f"{len(record['pass_walls_s'])} passes", file=sys.stderr)
    for metric, v in result["metrics"].items():
        value = "missing" if v["value"] is None else f"{v['value']:.6g}"
        print(f"  {metric:32s} {value:>14s} {v['unit']}", file=sys.stderr)
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':32s} {ratio:>14.6g} ({result['failed']}/{result['attempted']})",
          file=sys.stderr)
    print(f"  environment: {json.dumps(record['environment'])}", file=sys.stderr)


def _combine(results: dict) -> dict:
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": v
            for name, r in results.items()
            for metric, v in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    src = ROOT / "src"
    if not (src / "qopinion" / "__init__.py").is_file():
        print(f"no qopinion sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qopinion

    if Path(qopinion.__file__).resolve().parent != src / "qopinion":
        print(f"imported qopinion from {qopinion.__file__}, not {src}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name], record = run(name, args.seed, args.seconds, args.trace)
        _summary(name, record)
    print(json.dumps(results[names[0]] if len(names) == 1 else _combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
