"""Traced in-process run: per-layer timings from spans around public calls.

Spans (name, start, end, parent, trace) are recorded by this file around
calls into each module, never inside the program.  Every probe step is
guarded: a step whose function has moved or changed shape is reported as
missing (``None``) instead of failing the run, so refactors of internal
signatures cannot break the benchmark.  End-to-end numbers never come from
here.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from workloads import (
    INPUTS,
    SIM_DEFAULT_SEED,
    SIM_FILE,
    SWEEP_LO,
    SWEEP_HI,
    SWEEP_PHI,
    Sizes,
    median,
)

TASK_KINDS = ("fallacy", "sequence", "sweep", "simulate", "underextension", "uncertainty")

# Per-layer metric -> unit.  See BENCHMARK.json for what each should move.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "dsl.parse_s": "s",
    "cli.build_runtime_s": "s",
    **{f"cli.task.{kind}_s": "s" for kind in TASK_KINDS},
    "analysis.sweep_s": "s",
    "analysis.cells": "count",
    "cli.format_s": "s",
    "cli.csv_bytes": "bytes",
    "heatmap.svg_s": "s",
    "heatmap.svg_bytes": "bytes",
    "population.simulate_s": "s",
    "population.agents": "count",
    "kernels.answers_s": "s",
    "kernels.bytes_computed": "bytes",
    "population.self_s": "s",
    "population.tracemalloc_peak_mb": "MB",
    "trace.overhead_s": "s",
}

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import qopinion.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t0)\n"
)


class Tracer:
    """In-memory span recorder; spans under one root share its trace name."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": parent["trace"] if parent else name,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str, trace: str | None = None) -> float | None:
        """Summed duration of the completed spans called ``name``."""
        hits = [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s.get("ok") and (trace is None or s["trace"] == trace)
        ]
        return sum(hits) if hits else None

    def step(self, name: str, fn):
        """Call ``fn()`` inside a span; on any error report it and return None.

        ``fn`` looks up the function it calls, so a moved function is caught
        here too.
        """
        with self.span(name) as rec:
            result = guarded(name, fn)
            rec["ok"] = result is not None
            return result


def guarded(name: str, fn):
    """``fn()``, or None (reported on stderr) if what it probes moved or
    changed shape."""
    try:
        return fn()
    except Exception:  # the metric goes missing instead of failing the run
        print(f"probe {name} unavailable:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None


def _import_times(root: Path, env: dict) -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=root, env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    numpy_s, cli_s = map(float, out.stdout.split())
    return numpy_s, cli_s


def _golden(tracer: Tracer, sizes: Sizes, root: Path, env: dict, imports: list):
    from qopinion import cli, dsl

    for path in sorted(INPUTS.glob("*.qx")):
        text = path.read_text()
        with tracer.span("golden_run", file=path.name):
            imports.append(tracer.step("cli.import", lambda: _import_times(root, env)))
            spec = tracer.step("dsl.parse", lambda: dsl.parse(text))
            if spec is None:
                continue
            tracer.step("cli.build_runtime", lambda: cli.build_runtime(spec))
            singles = guarded("one-task specs", lambda: [
                (task.kind, dataclasses.replace(spec, tasks=(task,))) for task in spec.tasks
            ])
            for kind, one in singles or []:
                tracer.step(f"cli.task.{kind}", lambda: cli.execute_tasks(one))
    return {}


def _sweep(tracer: Tracer, sizes: Sizes, root: Path, env: dict, imports: list):
    from qopinion import analysis, cli, dsl, heatmap

    n = sizes.sweep_steps
    axis = f"{SWEEP_LO}:{SWEEP_HI}:{n}"
    text = (
        "question a\nquestion b from a theta=0.2\n"
        f"task sweep pair=a,b theta={axis} theta_a={axis} phi={SWEEP_PHI}\n"
    )
    counts = {}
    with tracer.span("sweep_256", cells=n * n):
        imports.append(tracer.step("cli.import", lambda: _import_times(root, env)))
        spec = tracer.step("dsl.parse", lambda: dsl.parse(text))
        csv = tracer.step("cli.execute_tasks", lambda: cli.execute_tasks(spec))
        counts["cli.csv_bytes"] = guarded("cli.csv_bytes", lambda: len(csv.encode()))
        cells = tracer.step(
            "analysis.sweep_fallacy_map",
            lambda: analysis.sweep_fallacy_map(
                analysis.GridRange(SWEEP_LO, SWEEP_HI, n),
                analysis.GridRange(SWEEP_LO, SWEEP_HI, n),
                SWEEP_PHI,
            ),
        )
        counts["analysis.cells"] = guarded("analysis.cells", lambda: len(cells))
        svg = tracer.step(
            "heatmap.fallacy_heatmap_svg", lambda: heatmap.fallacy_heatmap_svg(cells, n, n)
        )
        counts["heatmap.svg_bytes"] = guarded("heatmap.svg_bytes", lambda: len(svg.encode()))
    return counts


def _simulate(tracer: Tracer, sizes: Sizes, root: Path, env: dict, imports: list):
    import numpy as np

    from qopinion import cli, dsl, kernels, population

    n, seed = sizes.agents, SIM_DEFAULT_SEED
    counts = {"population.agents": n}

    def model():
        spec = dsl.parse(SIM_FILE.read_text())
        task = next(t for t in spec.tasks if t.kind == "simulate")
        rt = cli.build_runtime(spec)
        a_name, b_name = task.arg("pair")
        return rt.populations[task.arg("population")], rt.questions[a_name], rt.questions[b_name]

    def kernel_inputs(pop, a, b):
        # The same inputs simulate_population hands the kernel for this seed.
        from qopinion.measurement import outcome_probability
        from qopinion.observables import conditional_probability
        from qopinion.states import PureState, density_from_pure

        uniforms = np.random.default_rng(seed).random((n, 5))
        rhos = [
            density_from_pure(c.preparation) if isinstance(c.preparation, PureState)
            else c.preparation
            for c in pop.components
        ]
        cum = np.cumsum([c.fraction for c in pop.components])
        cum[-1] = max(cum[-1], 1.0)
        p_a1 = np.array([outcome_probability(r, a, 1) for r in rhos])
        p_b1 = np.array([outcome_probability(r, b, 1) for r in rhos])
        cond = np.array([
            conditional_probability(a, 0, b, 1), conditional_probability(a, 1, b, 1),
            conditional_probability(b, 0, a, 1), conditional_probability(b, 1, a, 1),
        ])
        return uniforms, cum, p_a1, p_b1, cond

    def traced_peak(pop, a, b):
        tracemalloc.start()
        try:
            population.simulate_population(pop, a, b, n, seed)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    with tracer.span("simulate_1e7", agents=n):
        imports.append(tracer.step("cli.import", lambda: _import_times(root, env)))
        pab = tracer.step("build_model", model)
        if pab is None:
            return counts
        tracer.step(
            "population.simulate_population",
            lambda: population.simulate_population(*pab, n, seed),
        )
        inputs = tracer.step("kernel_inputs", lambda: kernel_inputs(*pab))
        out = inputs and tracer.step(
            "kernels.simulate_answers", lambda: kernels.simulate_answers(*inputs)
        )
        # Computed from array sizes (each read or written once), not measured.
        counts["kernels.bytes_computed"] = guarded(
            "kernels.bytes_computed", lambda: sum(x.nbytes for x in (*inputs, out))
        )
        del inputs, out  # free the uniform matrix before the next call
        counts["population.tracemalloc_peak_mb"] = tracer.step(
            "population.tracemalloc", lambda: traced_peak(*pab)
        )
    return counts


def _minus(a, b):
    return a - b if a is not None and b is not None else None


def probe_set(sizes: Sizes, root: Path, env: dict):
    """One traced pass over every layer.

    Returns (metrics without trace.overhead_s, replay seconds per workload,
    spans).  A workload's replay time sums the spans that redo its work in
    process: the fresh-process import plus the calls the CLI would make.
    """
    tracer = Tracer()
    imports: list = []
    counts: dict = {}
    for group in (_golden, _sweep, _simulate):
        try:
            counts.update(group(tracer, sizes, root, env, imports))
        except ImportError:  # a module moved: its metrics go missing
            traceback.print_exc(file=sys.stderr)

    t = tracer.total
    metrics = {
        "cli.import_s": median(i[1] for i in imports if i),
        "cli.import_numpy_s": median(i[0] for i in imports if i),
        "dsl.parse_s": t("dsl.parse", "golden_run"),
        "cli.build_runtime_s": t("cli.build_runtime", "golden_run"),
        **{f"cli.task.{k}_s": t(f"cli.task.{k}", "golden_run") for k in TASK_KINDS},
        "analysis.sweep_s": t("analysis.sweep_fallacy_map"),
        "cli.format_s": _minus(t("cli.execute_tasks"), t("analysis.sweep_fallacy_map")),
        "heatmap.svg_s": t("heatmap.fallacy_heatmap_svg"),
        "population.simulate_s": t("population.simulate_population"),
        "kernels.answers_s": t("kernels.simulate_answers"),
        "population.self_s": _minus(
            t("population.simulate_population"), t("kernels.simulate_answers")
        ),
        **counts,
    }

    def replay(trace, names):
        parts = [t(name, trace) for name in names]
        return None if None in parts else sum(parts)

    golden_names = ["cli.import", "dsl.parse", "cli.build_runtime"]
    golden_names += [f"cli.task.{k}" for k in TASK_KINDS if t(f"cli.task.{k}", "golden_run")]
    replays = {
        "golden_run": replay("golden_run", golden_names),
        "sweep_256": replay(
            "sweep_256", ["cli.import", "cli.execute_tasks", "heatmap.fallacy_heatmap_svg"]
        ),
        "simulate_1e7": replay("simulate_1e7", ["cli.import", "population.simulate_population"]),
    }
    return metrics, replays, tracer.spans
