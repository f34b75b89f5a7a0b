"""Command-line front end: run experiment files, sweeps and simulations.

Exit codes: 0 success, 1 usage error or a file that cannot be opened,
2 experiment-file parse error (also a file that is not UTF-8), 3 validation
error or out of memory.  All results go to the selected output stream as
CSV (sections separated by ``# task`` comment lines when a file contains
more than one task); diagnostics go to stderr, one line each.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from . import dsl
from .errors import QOpinionError, ValidationError
from .fallacy import FallacyReport, fallacy_report, underextension_estimate
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
    density_from_pure,
    mix,
    pure_from_angles,
)

# analysis, heatmap and population load numpy, whose import is most of the
# start-up of a run that needs none: the point-wise tasks.  So the sweep,
# simulate and uncertainty paths import them on first use.
if TYPE_CHECKING:
    from .analysis import SweepResult
    from .population import PopulationSpec

# The columns shared by the fallacy and sweep CSVs: a FallacyReport's fields
# but its margins: six values, then four flags.
_FALLACY_FIELDS = [f.name for f in fields(FallacyReport) if f.name != "margins"]
SWEEP_HEADER = ",".join(["theta", "theta_a", "phi", *_FALLACY_FIELDS, "regime"])


class _CliError(Exception):
    """A one-line message for stderr and the exit code that goes with it."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _CliError(f"usage error: {message}", 1)


def _cell(value) -> str:
    """One CSV field: flags as 0/1, floats with 17 significant digits (so
    re-parsing reproduces them exactly), anything else as ``str``."""
    if isinstance(value, bool):  # first: str(True) would print "True"
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass
class Runtime:
    questions: dict[str, Question]
    states: dict[str, PureState | MixedState]
    populations: dict[str, PopulationSpec]


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


# The four flag columns for each 4-bit code, whose binary digits are the flags.
_FLAG_FIELDS = [",".join(f"{code:04b}") for code in range(16)]


def _sweep_lines(header: str, sweep: SweepResult) -> list[str]:
    """The header, then one CSV row per cell, row-major in theta.

    The axis columns are formatted once per axis value, not once per row,
    and a cell's four flags once per code.
    """
    theta_a = [_cell(x) for x in sweep.theta_a.tolist()]
    columns = [getattr(sweep, name) for name in _FALLACY_FIELDS]
    values, flags = columns[:-4], columns[-4:]
    codes = sum(flag * (8 >> k) for k, flag in enumerate(flags))
    fmt = f",{_cell(sweep.phi)}" + ",%.17g" * len(values) + ",%s,"
    lines = [header]
    for i, theta in enumerate(sweep.theta.tolist()):
        head = f"{_cell(theta)},"
        tail = fmt + sweep.regime[i].value
        cells = zip(*(column[i].tolist() for column in values))
        row_flags = [_FLAG_FIELDS[code] for code in codes[i].tolist()]
        lines.extend(
            head + x + tail % (*v, f) for x, v, f in zip(theta_a, cells, row_flags)
        )
    return lines


def _csv_lines(header: str, result) -> list[str]:
    """The header, then the rows: a sweep's raster or one line per value tuple."""
    if isinstance(result, FallacyReport):  # only a sweep returns one
        return _sweep_lines(header, result)
    return [header, *(",".join(map(_cell, row)) for row in result)]


def _run_fallacy(args: dict, rt: Runtime):
    state, (a, b) = args["state"], args["pair"]
    rep = fallacy_report(
        _require_pure(rt.states[state], state), rt.questions[a], rt.questions[b]
    )
    return [(state, a, b, *(getattr(rep, name) for name in _FALLACY_FIELDS))]


def _run_sequence(args: dict, rt: Runtime):
    order = args["order"]
    if len(order) > 16:
        raise ValidationError(f"sequence too long ({len(order)} questions)")
    rho = _as_density(rt.states[args["state"]])
    table = chain_table(rho, [rt.questions[name] for name in order], [(0, 1)] * len(order))
    return [("".join(map(str, outcomes)), p) for outcomes, p in table]


def _run_sweep(args: dict, rt: Runtime) -> SweepResult:
    from .analysis import sweep_fallacy_map

    return sweep_fallacy_map(args["theta"], args["theta_a"], args["phi"])


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
    return [(pop, a, b, t.n_agents, *(getattr(t, name) for name in _SIMULATE_FIELDS))]


def _run_underextension(args: dict, rt: Runtime):
    state, (a, b) = args["state"], args["pair"]
    est = underextension_estimate(
        _require_pure(rt.states[state], state), rt.questions[a], rt.questions[b]
    )
    return [(state, a, b, *(getattr(est, name) for name in _UNDEREXTENSION_FIELDS))]


def _run_uncertainty(args: dict, rt: Runtime):
    from .analysis import uncertainty_sum_minimum

    (a, b), steps = args["pair"], args["steps"]
    minimum, (theta_s, phi_s) = uncertainty_sum_minimum(
        rt.questions[a], rt.questions[b], steps
    )
    return [(a, b, steps, minimum, theta_s, phi_s)]


# kind -> (CSV header, runner).  A runner takes the task's arguments, which
# dsl._TASK_ARGS declares, and the runtime; it returns its rows as value
# tuples, or a SweepResult.
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


def execute_tasks(spec: dsl.ExperimentSpec, seed=None, agents=None) -> str:
    """Run every task in declaration order and return the combined CSV text.

    ``seed`` and ``agents``, when given, replace the arguments of those names
    in every task that takes them (the simulate tasks).
    """
    rt = build_runtime(spec)
    overrides = {k: v for k, v in (("seed", seed), ("agents", agents)) if v is not None}
    sections: list[str] = []
    for idx, task in enumerate(spec.tasks):
        header, runner = _TASKS[task.kind]
        args = dict(task.args)
        args.update((k, v) for k, v in overrides.items() if k in args)
        lines = _csv_lines(header, runner(args, rt))
        sections.append(f"# task {idx} {task.kind}\n" + "\n".join(lines))
    return "\n".join(sections) + ("\n" if sections else "")


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


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
    spec = _load_spec(args.file)
    _write_output(execute_tasks(spec, seed=args.seed), args.out)
    return 0


def cmd_sweep(args) -> int:
    header, runner = _TASKS["sweep"]
    sweep = runner(vars(args), None)
    _write_output("\n".join(_csv_lines(header, sweep)) + "\n", args.out)
    if args.svg is not None:
        from .heatmap import fallacy_heatmap_svg

        _write_output(fallacy_heatmap_svg(sweep, len(sweep.theta), len(sweep.theta_a)), args.svg)
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args.file)
    tasks = tuple(t for t in spec.tasks if t.kind == "simulate")
    if not tasks:
        raise ValidationError(f"{args.file}: no simulate tasks")
    text = execute_tasks(replace(spec, tasks=tasks), seed=args.seed, agents=args.agents)
    _write_output(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_signed_values(sys.argv[1:] if argv is None else argv)
        )
        commands = {"run": cmd_run, "sweep": cmd_sweep, "simulate": cmd_simulate}
        return commands[args.command](args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except dsl.ExperimentSyntaxError as exc:
        for err in exc.errors:
            print(f"{err}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except QOpinionError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
