"""Command-line front end: run experiment files, sweeps and simulations.

Exit codes: 0 success, 1 usage error or a file that cannot be opened or
written (a closed stdout pipe too), 2 experiment-file parse error (also a
file that is not UTF-8), 3 validation error or out of memory.  All results
go to the selected output stream as CSV; diagnostics go to stderr, one line
each.  ``run`` and ``simulate`` start every task's section, the first one
too, with a ``# task <index> <kind>`` comment line; ``sweep`` writes one
table without one.  ``run`` and ``simulate`` prepare every task before they
open the output, then stream it: a task that fails to prepare writes
nothing, but a failure in the middle of a large sweep's arithmetic, such as
a MemoryError, may leave partial output.  ``sweep`` rejects an ``--svg``
that names the ``--out`` file.

The ``qopinion`` command (also ``python -m qopinion``) ends its process
without the interpreter's teardown once its work is done; code that embeds
qopinion calls ``cli.main``, which returns the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import shutil
import sys
import tempfile
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, NoReturn, TextIO

from . import dsl
from .errors import QOpinionError, ValidationError
from .fallacy import FallacyReport, _bloch, _fallacy, _pair, classify_regime, fallacy_report
from .fallacy import underextension_estimate
from .measurement import chain_table
from .observables import (
    BasisRelation,
    Question,
    compose_relations,
    eigenvectors_in_reference,
    from_basis,
)
from .states import (
    MixedState,
    PureState,
    _as_density,
    _Record,
    density_from_pure,
    mix,
    pure_from_angles,
)

# analysis, heatmap and population load numpy, whose import is most of the
# start-up of a run that needs none: the point-wise tasks and a small run
# sweep (_POINTWISE_CELLS).  So the larger sweeps and the simulate and
# uncertainty paths import them on first use.
if TYPE_CHECKING:
    from .analysis import SweepResult
    from .population import PopulationSpec

# The columns shared by the fallacy and sweep CSVs: a FallacyReport's fields,
# six values, then four flags.
_FALLACY_FIELDS = FallacyReport._fields
SWEEP_HEADER = ",".join(["theta", "theta_a", "phi", *_FALLACY_FIELDS, "regime"])


class _CliError(Exception):
    """``_CliError(message, code)``: a one-line message for stderr and its exit
    code, both in ``args``, so that it survives a worker's pickle round trip."""

    def __str__(self) -> str:
        return self.args[0]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _CliError(f"usage error: {message}", 1)


def _cell(value) -> str:
    """One CSV field: flags as 0/1, floats with 17 significant digits (so
    re-parsing reproduces them exactly), anything else as ``str``; the same
    bytes as :func:`analysis.csv_rows` gives a sweep's cells, a block at once."""
    if isinstance(value, bool):  # first: str(True) would print "True"
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _row(*values) -> str:
    """One CSV line of ``values``."""
    return ",".join(map(_cell, values))


class Runtime(_Record):
    """A spec's ``questions``, ``states`` and ``populations``, each a dict by name."""

    __slots__ = ("questions", "states", "populations")


def build_runtime(spec: dsl.ExperimentSpec) -> Runtime:
    questions: dict[str, Question] = {}
    for q in spec.questions:
        if q.base is None:
            questions[q.name] = Question(q.name)
        else:
            rel = compose_relations(
                questions[q.base].relation_to_reference,
                BasisRelation(q.theta, q.phi),
            )
            questions[q.name] = Question(q.name, rel)
    states: dict[str, PureState | MixedState] = {}
    for st in spec.states:
        basis = questions[st.basis]
        if isinstance(st, dsl.PureStateDecl):
            local = pure_from_angles(st.theta_a, st.phi_a)
            states[st.name] = from_basis(local, basis.relation_to_reference)
        else:
            e0, e1 = eigenvectors_in_reference(basis)
            states[st.name] = mix(
                [
                    (1.0 - st.p1, density_from_pure(e0)),
                    (st.p1, density_from_pure(e1)),
                ]
            )
    populations: dict[str, PopulationSpec] = {}
    if spec.populations:
        from .population import PopulationComponent, PopulationSpec
    for pop in spec.populations:
        populations[pop.name] = PopulationSpec(
            tuple(
                PopulationComponent(frac, states[name], name)
                for frac, name in pop.components
            )
        )
    return Runtime(questions, states, populations)


def _require_pure(state, name: str) -> PureState:
    if not isinstance(state, PureState):
        raise ValidationError(f"task requires a pure state, {name!r} is mixed")
    return state


# Theta rows per block that a sweep computes, formats and writes at a time.
# A raster of one block is written in process; a larger one by two processes,
# the lower half of its theta rows (rounded up) by the command itself.
_CHUNK_ROWS = 16


def _sweep_rows(block: SweepResult) -> str:
    """The CSV rows of a block of theta rows, row-major in theta and
    newline-separated; its axis values go through :func:`_cell`."""
    from .analysis import csv_rows

    return csv_rows(
        [[_cell(theta)] for theta in block.theta.tolist()],
        [_cell(theta_a) for theta_a in block.theta_a.tolist()],
        _cell(block.phi),
        *(getattr(block, name) for name in _FALLACY_FIELDS),
        [[regime.value] for regime in block.regime],
    )


def _run_fallacy(args: dict, rt: Runtime):
    state, (a, b) = args["state"], args["pair"]
    rep = fallacy_report(
        _require_pure(rt.states[state], state), rt.questions[a], rt.questions[b]
    )
    return [_row(state, a, b, *(getattr(rep, name) for name in _FALLACY_FIELDS))]


def _run_sequence(args: dict, rt: Runtime):
    order = args["order"]
    if len(order) > 16:
        raise ValidationError(f"sequence too long ({len(order)} questions)")
    rho = _as_density(rt.states[args["state"]])
    table = chain_table(rho, [rt.questions[name] for name in order], [(0, 1)] * len(order))
    return [_row("".join(map(str, outcomes)), p) for outcomes, p in table]


# A run sweep of at most this many cells is computed at preparation, cell by
# cell by fallacy._fallacy from each column's r and each row's axis terms (the
# bits of the raster and of fallacy_report), so it loads no numpy.  Numpy's
# import takes ~0.1 s and a cell ~9 us (2-vCPU Xeon, Python 3.11, numpy 2.4).
# At ~36 us a cell, tools/sweep_pairs.py found the point-wise run faster in 9
# of 10 pairs at 52 x 52 cells, in 7 at 56 x 56 and in 2 at 64 x 64.
_POINTWISE_CELLS = 2500


def _run_sweep(args: dict, rt: Runtime):
    theta, theta_a, phi = args["theta"], args["theta_a"], args["phi"]
    if theta.steps * theta_a.steps <= _POINTWISE_CELLS:
        a = Question("a")
        columns = [(t_a, _bloch(pure_from_angles(t_a, 0.0))) for t_a in theta_a.values()]
        lines = []
        for t in theta.values():
            pair = _pair(a, Question("b", BasisRelation(t, phi)))
            regime = classify_regime(t).value
            lines += [_row(t, t_a, phi, *_fallacy(r, *pair), regime) for t_a, r in columns]
        return lines
    from .analysis import sweep_blocks

    blocks = sweep_blocks(theta, theta_a, phi, 0, theta.steps, _CHUNK_ROWS)
    return map(_sweep_rows, blocks)


# The columns a simulate or underextension row takes from its result, after
# the task's arguments and, for simulate, the agent count.
_SIMULATE_FIELDS = (
    "seed count_a1 count_b1 count_a1_then_b1 count_b1_then_a1 p_a1 p_b1 p_a1_then_b1 p_b1_then_a1"
).split()
_UNDEREXTENSION_FIELDS = "mu_a mu_b and_low and_high or_low or_high underextension".split()


def _run_simulate(args: dict, rt: Runtime):
    from .population import simulate_population

    pop, (a, b) = args["population"], args["pair"]
    t = simulate_population(
        rt.populations[pop], rt.questions[a], rt.questions[b],
        args["agents"], args["seed"],
    )
    return [_row(pop, a, b, t.n_agents, *(getattr(t, name) for name in _SIMULATE_FIELDS))]


def _run_underextension(args: dict, rt: Runtime):
    state, (a, b) = args["state"], args["pair"]
    est = underextension_estimate(rt.states[state], rt.questions[a], rt.questions[b])
    return [_row(state, a, b, *(getattr(est, name) for name in _UNDEREXTENSION_FIELDS))]


def _run_uncertainty(args: dict, rt: Runtime):
    from .analysis import uncertainty_sum_minimum

    (a, b), steps = args["pair"], args["steps"]
    minimum, (theta_s, phi_s) = uncertainty_sum_minimum(
        rt.questions[a], rt.questions[b], steps
    )
    return [_row(a, b, steps, minimum, theta_s, phi_s)]


# kind -> (CSV header, runner).  A runner takes the task's arguments, which
# dsl._TASK_ARGS declares, and the runtime; it returns its CSV lines, a
# sweep's in blocks of newline-separated rows.
_TASKS = {
    "fallacy": (",".join(["state", "a", "b", *_FALLACY_FIELDS]), _run_fallacy),
    "sequence": ("outcomes,probability", _run_sequence),
    "sweep": (SWEEP_HEADER, _run_sweep),
    "simulate": (",".join(["population", "a", "b", "agents", *_SIMULATE_FIELDS]), _run_simulate),
    "underextension": (
        ",".join(["state", "a", "b", *_UNDEREXTENSION_FIELDS]), _run_underextension
    ),
    "uncertainty": ("a,b,steps,minimum,theta_s,phi_s", _run_uncertainty),
}


def _task_lines(spec: dsl.ExperimentSpec, seed=None, agents=None) -> Iterator[str]:
    """Prepare every task in declaration order, then return its CSV lines
    lazily: a ``# task`` line, the header and the rows, a sweep's in blocks
    computed as they are taken.  Preparing builds the runtime and calls each
    runner, which computes every point-wise result and reserves every raster.

    ``seed`` and ``agents``, when given, replace the arguments of those names
    in every task that takes them (the simulate tasks).
    """
    rt = build_runtime(spec)
    overrides = {k: v for k, v in (("seed", seed), ("agents", agents)) if v is not None}
    sections: list[Iterable[str]] = []
    for idx, task in enumerate(spec.tasks):
        header, runner = _TASKS[task.kind]
        args = dict(task.args)
        args.update((k, v) for k, v in overrides.items() if k in args)
        sections += ([f"# task {idx} {task.kind}", header], runner(args, rt))
    return itertools.chain.from_iterable(sections)


def execute_tasks(spec: dsl.ExperimentSpec, seed=None, agents=None) -> str:
    """Run every task in declaration order and return the combined CSV text:
    the lines of :func:`_task_lines`, each ended by a newline."""
    return "\n".join([*_task_lines(spec, seed, agents), ""])


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """stdout when ``path`` is None, else the file ``path`` (created or
    truncated).  stdout is flushed at the end, since entry() ends the process
    without a final flush; if writing to it fails (a closed pipe), it is
    pointed at the null device, so the exit flush has no bytes to fail on."""
    if path is not None:
        with open(path, "w", newline="") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _option(parse):
    """An argparse ``type`` from a ``dsl`` parser; errors name the option."""

    def read(raw: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


_INT, _NUMBER, _RANGE = map(_option, (dsl.parse_int, dsl.parse_number, dsl.parse_range))


# Options whose values may start with "-" (-pi/4, -3.5:7:37).  argparse reads
# such a value as an option unless it is a plain negative number, so main()
# rewrites "--phi -pi/4" as "--phi=-pi/4".
_SIGNED_OPTIONS = ("--theta", "--theta-a", "--phi")


def _attach_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_OPTIONS and tok[:1] == "-" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="qopinion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment file")
    p_run.add_argument("file")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=_INT, default=None)

    p_sweep = sub.add_parser("sweep", help="rasterize the fallacy map")
    p_sweep.add_argument("--theta", type=_RANGE, required=True)
    p_sweep.add_argument("--theta-a", dest="theta_a", type=_RANGE, required=True)
    p_sweep.add_argument("--phi", type=_NUMBER, default=0.0)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--svg", default=None)

    p_sim = sub.add_parser("simulate", help="run a file's simulate tasks")
    p_sim.add_argument("file")
    p_sim.add_argument("--agents", type=_INT, required=True)
    p_sim.add_argument("--seed", type=_INT, required=True)
    p_sim.add_argument("--out", default=None)
    return parser


def _load_spec(path: str) -> dsl.ExperimentSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            return dsl.parse(fh.read())
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: not UTF-8 text ({exc.reason})", 2) from None


def cmd_run(args) -> int:
    lines = _task_lines(_load_spec(args.file), seed=args.seed)
    with _output(args.out) as fh:
        fh.writelines(f"{line}\n" for line in lines)
    return 0


def cmd_sweep(args) -> int:
    """Write the sweep's CSV to ``--out`` and, with ``--svg``, its heatmap.

    A block's SVG rows are built in pure Python and its CSV rows by
    :func:`analysis.csv_rows` in many small numpy calls, so a sweep runs
    mostly under the GIL, where a second thread would mostly take turns with
    this one.  So once the raster is reserved and the outputs are opened, a
    raster of more than one block is written by two processes, each over its
    own span of theta rows: compute a block, write its CSV rows, write its SVG
    rows.  One forked worker writes the upper rows and the SVG's legend to two
    unnamed files beside the outputs, appended once it has returned; its
    failures reach this process by the protocol of :mod:`qopinion._fork`.  A
    failed sweep may leave a partial ``--out`` or ``--svg``.
    """
    from ._fork import in_two_processes
    from .analysis import sweep_blocks
    from .heatmap import fallacy_heatmap_rows

    rows = args.theta.steps
    split = rows if rows <= _CHUNK_ROWS else rows - rows // 2
    lower, upper = (
        sweep_blocks(args.theta, args.theta_a, args.phi, lo, hi, _CHUNK_ROWS)
        for lo, hi in ((0, split), (split, rows))
    )
    paths = [args.out] if args.svg is None else [args.out, args.svg]

    def write(blocks, lo: int, files) -> None:  # the CSV file, then the SVG file if any
        for block in blocks:
            files[0].write(_sweep_rows(block) + "\n")
            if len(files) > 1:
                files[1].writelines(fallacy_heatmap_rows(block, lo, rows))
            lo += len(block.theta)
        for fh in files:
            fh.flush()

    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_output(path)) for path in paths]
        if len(files) > 1 and os.path.samestat(*(os.fstat(fh.fileno()) for fh in files)):
            raise _CliError(f"--svg {args.svg}: the same file as --out {args.out}", 1)
        files[0].write(SWEEP_HEADER + "\n")
        if split == rows:  # one block: no worker
            write(lower, 0, files)
            return 0
        spills = [stack.enter_context(_spill_file(path)) for path in paths]
        in_two_processes(lambda: write(upper, split, spills),
                         lambda: write(lower, 0, files), "sweep")
        for spill, fh in zip(spills, files):
            spill.seek(0)
            shutil.copyfileobj(spill, fh)
    return 0


def _spill_file(path: str):
    """An unnamed temporary text file beside ``path``, where the worker's
    part fits whenever the whole output does; in the default temporary
    directory when that directory takes no new file (``--out /dev/stdout``)."""
    try:
        return tempfile.TemporaryFile(
            "w+", newline="", dir=os.path.dirname(os.path.abspath(path))
        )
    except OSError:
        return tempfile.TemporaryFile("w+", newline="")


def _exit(code: int) -> NoReturn:
    """Flush stderr and end the process with ``code`` at once: no atexit
    hooks, no final flush of stdout and no teardown of numpy and the
    package, which takes tens of milliseconds.  Every output file is closed
    and every worker process reaped by then."""
    try:
        sys.stderr.flush()
    finally:
        os._exit(code)


def cmd_simulate(args) -> int:
    spec = _load_spec(args.file)
    tasks = tuple(t for t in spec.tasks if t.kind == "simulate")
    if not tasks:
        raise ValidationError(f"{args.file}: no simulate tasks")
    spec = dsl.ExperimentSpec(spec.questions, spec.states, spec.populations, tasks)
    lines = _task_lines(spec, seed=args.seed, agents=args.agents)
    with _output(args.out) as fh:
        fh.writelines(f"{line}\n" for line in lines)
    return 0


_ERRORS = (_CliError, dsl.ExperimentSyntaxError, OSError, QOpinionError, MemoryError)


def _report(exc: Exception) -> int:
    """Print an error of ``_ERRORS`` to stderr, one line per diagnostic, and
    return its exit code."""
    if isinstance(exc, dsl.ExperimentSyntaxError):
        for err in exc.errors:
            print(f"{err}", file=sys.stderr)
        return 2
    if isinstance(exc, MemoryError):
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    print(str(exc), file=sys.stderr)
    if isinstance(exc, _CliError):
        return exc.args[1]
    return 1 if isinstance(exc, OSError) else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_signed_values(sys.argv[1:] if argv is None else argv)
        )
        commands = {"run": cmd_run, "sweep": cmd_sweep, "simulate": cmd_simulate}
        return commands[args.command](args)
    except _ERRORS as exc:
        return _report(exc)


def entry() -> NoReturn:  # console-script hook
    """Run :func:`main` and end the process with its code.  An exception that
    ``main`` does not turn into a code (Ctrl-C, ``--help``, a bug) takes the
    interpreter's usual way out."""
    _exit(main())


if __name__ == "__main__":
    entry()
