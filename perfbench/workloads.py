"""The three CLI workloads and the closed loop that times them.

Every invocation is a fresh ``python -m qopinion`` process, spawned only
after the previous one exited (one client, no concurrency), as a researcher
waiting on each command would run it.  Peak memory is read per child from
``os.wait4``; ``RUSAGE_CHILDREN`` would be a running maximum over all
children and carry one workload's peak into the next.
"""

from __future__ import annotations

import os
import random
import select
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
SWEEP_LO, SWEEP_HI, SWEEP_PHI = 0.01, 3.13, 0.0
SIM_FILE = INPUTS / "simulate_population.qx"
SIM_DEFAULT_SEED = 11  # the seed in SIM_FILE; its CSV bytes are pinned
INVOCATION_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Sizes:
    sweep_steps: int = 256
    agents: int = 10**7


FULL = Sizes()


@dataclass
class Invocation:
    args: list[str]
    check: Callable[[Path], list[str]]  # workdir -> problems with the output
    wall_s: float = 0.0
    exit_code: int | None = None
    maxrss_mb: float = 0.0
    user_s: float = 0.0
    sys_s: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def spawn(argv: list[str], cwd: Path, env: dict, stderr=subprocess.DEVNULL):
    """Run ``argv`` to completion; return (wall seconds, exit code, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=stderr
    )
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], INVOCATION_TIMEOUT_S)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except FileNotFoundError:
        return None


class SweepWorkload:
    """The paper's 256x256 (theta, theta_a) raster with CSV and SVG."""

    name = "sweep_256"
    unit = "cells"

    def __init__(self, sizes: Sizes):
        self.steps = sizes.sweep_steps
        self.units_per_pass = self.steps * self.steps
        self.flags_digest = checks.load_digests()["sweep_flags"][str(self.steps)]
        self._verified: set[str] = set()

    def plan(self, rng: random.Random, index: int) -> list[Invocation]:
        grid = f"{SWEEP_LO}:{SWEEP_HI}:{self.steps}"
        args = ["sweep", "--theta", grid, "--theta-a", grid,
                "--phi", str(SWEEP_PHI), "--out", "sweep.csv", "--svg", "sweep.svg"]
        return [Invocation(args, self._check)]

    def _check(self, workdir: Path) -> list[str]:
        csv, svg = _read(workdir / "sweep.csv"), _read(workdir / "sweep.svg")
        if csv is None or svg is None:
            return ["sweep: missing output"]
        # The oracle pass takes about a second at 256x256; outputs already
        # verified are recognised by their digest.
        key = checks.sha256(csv + "\0" + svg)
        if key in self._verified:
            return []
        problems = checks.check_sweep(
            csv, svg, SWEEP_LO, SWEEP_HI, self.steps, SWEEP_PHI, self.flags_digest
        )
        if not problems:
            self._verified.add(key)
        return problems


class SimulateWorkload:
    """Seeded Monte Carlo of the two-component ``crowd`` mixture at 10^7 agents."""

    name = "simulate_1e7"
    unit = "agents"

    def __init__(self, sizes: Sizes):
        self.agents = sizes.agents
        self.units_per_pass = self.agents
        self.digest = checks.load_digests()["simulate"][str(self.agents)]

    def plan(self, rng: random.Random, index: int) -> list[Invocation]:
        # The first pass of every run uses the file's own seed, whose bytes
        # are pinned; later passes draw seeds from the workload seed and are
        # checked against the model only.
        seed = SIM_DEFAULT_SEED if index == 0 else rng.randrange(2**31)
        args = ["simulate", str(SIM_FILE), "--agents", str(self.agents),
                "--seed", str(seed), "--out", "sim.csv"]
        return [Invocation(args, lambda workdir: self._check(workdir, seed))]

    def _check(self, workdir: Path, seed: int) -> list[str]:
        csv = _read(workdir / "sim.csv")
        if csv is None:
            return ["simulate: missing output"]
        digest = self.digest if seed == SIM_DEFAULT_SEED else None
        return checks.check_simulate(csv, self.agents, seed, digest)


class GoldenWorkload:
    """``qopinion run`` once on each of the 12 golden experiment files."""

    name = "golden_run"
    unit = "files"

    def __init__(self, sizes: Sizes):
        self.files = sorted(INPUTS.glob("*.qx"))
        self.units_per_pass = len(self.files)

    def plan(self, rng: random.Random, index: int) -> list[Invocation]:
        files = list(self.files)
        rng.shuffle(files)
        return [
            Invocation(
                ["run", str(path), "--out", path.stem + ".csv"],
                lambda workdir, stem=path.stem: self._check(workdir, stem),
            )
            for path in files
        ]

    def _check(self, workdir: Path, stem: str) -> list[str]:
        csv = _read(workdir / f"{stem}.csv")
        if csv is None:
            return [f"{stem}: missing output"]
        reference = (checks.REFERENCE / "golden" / f"{stem}.csv").read_text()
        return [f"{stem}: {p}" for p in checks.check_against_reference(csv, reference)]


WORKLOADS = {w.name: w for w in (SweepWorkload, SimulateWorkload, GoldenWorkload)}


def run_pass(workload, rng, index, workdir: Path, env: dict):
    """One pass of the workload: its invocations in sequence, then checks.

    Returns (pass wall seconds, invocations).  Checks run after the timed
    region.
    """
    invocations = workload.plan(rng, index)
    start = time.perf_counter()
    for inv in invocations:
        argv = [sys.executable, "-m", "qopinion", *inv.args]
        inv.wall_s, inv.exit_code, usage = spawn(argv, workdir, env)
        inv.maxrss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        inv.user_s, inv.sys_s = usage.ru_utime, usage.ru_stime
    wall = time.perf_counter() - start
    for inv in invocations:
        if inv.exit_code == 0:
            inv.problems = inv.check(workdir)
        for problem in inv.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if inv.exit_code != 0:
            print(f"exit {inv.exit_code}: qopinion {' '.join(inv.args)}", file=sys.stderr)
    for path in workdir.iterdir():
        path.unlink()
    return wall, invocations


def closed_loop(workload, seed: int, seconds: float, workdir: Path, env: dict,
                before_pass=None):
    """Run passes back to back until ``seconds`` have elapsed (at least one).

    ``before_pass()``, if given, runs untimed before each pass.
    """
    rng = random.Random(seed)
    walls, invocations = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if before_pass is not None:
            before_pass()
        wall, invs = run_pass(workload, rng, len(walls), workdir, env)
        walls.append(wall)
        invocations.extend(invs)
    return walls, invocations


SETUP_MIN_SAMPLES = 7


def setup_sample(root: Path, env: dict) -> float:
    """Wall time of a fresh process that imports ``qopinion.cli`` and exits."""
    wall, code, _ = spawn([sys.executable, "-c", "import qopinion.cli"], root, env,
                          stderr=None)
    if code != 0:
        raise RuntimeError(f"importing qopinion.cli failed with exit code {code}")
    return wall


def measure_end_to_end(workload, seed, seconds, workdir, env, root):
    """Closed-loop run with set-up samples interleaved between passes.

    Set-up is sampled once before every pass (at least SETUP_MIN_SAMPLES
    times), so its median covers the same stretch of time as the passes.
    The first, unrecorded start fills the bytecode cache of a fresh checkout.
    """
    setup_sample(root, env)
    setup = []
    walls, invocations = closed_loop(
        workload, seed, seconds, workdir, env,
        before_pass=lambda: setup.append(setup_sample(root, env)),
    )
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_sample(root, env))
    wall = median(walls)
    values = {
        "setup_s": median(setup),
        "wall_s": wall,
        "throughput": workload.units_per_pass / wall,
        "peak_rss_mb": max(inv.maxrss_mb for inv in invocations),
    }
    return values, walls, invocations


def median(values):
    """Median of the values that are not None; None if there are none."""
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None
