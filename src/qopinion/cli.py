"""Command-line front end: run experiment files, sweeps and simulations.

Exit codes: 0 success, 1 usage error, 2 experiment-file parse error,
3 validation error.  All results go to the selected output stream as CSV
(sections separated by ``# task`` comment lines when a file contains more
than one task); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass

from . import dsl
from .analysis import (
    GridRange,
    SweepResult,
    fallacy_report,
    sweep_fallacy_map,
    underextension_estimate,
    uncertainty_sum_minimum,
)
from .errors import QOpinionError, ValidationError
from .heatmap import fallacy_heatmap_svg
from .measurement import OutcomeStep, consecutive_probability
from .observables import BasisRelation, Question, compose_relations, from_basis
from .population import PopulationComponent, PopulationSpec, simulate_population
from .states import (
    MixedState,
    PureState,
    density_from_pure,
    mix,
    pure_from_angles,
)

SWEEP_HEADER = (
    "theta,theta_a,phi,p_a1,p_b1,classical_b1,interference_b1,"
    "classical_a1,interference_a1,fallacy_b,fallacy_a,reverse_b,reverse_a,regime"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _f(x: float) -> str:
    """17 significant digits: re-parsing reproduces the float exactly."""
    return format(x, ".17g")


def _b(flag: bool) -> str:
    return "1" if flag else "0"


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
            from .observables import eigenvectors_in_reference

            e0, e1 = eigenvectors_in_reference(basis)
            states[st.name] = mix(
                [
                    (1.0 - st.p1, density_from_pure(e0)),
                    (st.p1, density_from_pure(e1)),
                ]
            )
    populations: dict[str, PopulationSpec] = {}
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


# The four flag columns for each code fallacy_b*8 + fallacy_a*4 + reverse_b*2 + reverse_a.
_FLAG_FIELDS = [",".join(f"{code:04b}") for code in range(16)]


def _sweep_lines(sweep: SweepResult) -> list[str]:
    """Header plus one CSV row per cell, row-major in theta.

    The axis columns are formatted once per axis value, not once per row.
    """
    theta_a = [_f(x) for x in sweep.theta_a.tolist()]
    phi = _f(sweep.phi)
    columns = [
        sweep.p_a1,
        sweep.p_b1,
        sweep.classical_b1,
        sweep.interference_b1,
        sweep.classical_a1,
        sweep.interference_a1,
    ]
    codes = (
        sweep.fallacy_b * 8 + sweep.fallacy_a * 4 + sweep.reverse_b * 2 + sweep.reverse_a
    )
    lines = [SWEEP_HEADER]
    for i, theta in enumerate(sweep.theta.tolist()):
        head = f"{_f(theta)},"
        tail = f",{phi},%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,{sweep.regime[i].value}"
        values = zip(*(column[i].tolist() for column in columns))
        flags = [_FLAG_FIELDS[code] for code in codes[i].tolist()]
        lines.extend(
            head + x + tail % (*v, f) for x, v, f in zip(theta_a, values, flags)
        )
    return lines


def _run_fallacy(task: dsl.Task, rt: Runtime) -> list[str]:
    state_name = task.arg("state")
    a_name, b_name = task.arg("pair")
    s = _require_pure(rt.states[state_name], state_name)
    rep = fallacy_report(s, rt.questions[a_name], rt.questions[b_name])
    dec_b, dec_a = rep.decomposition_b, rep.decomposition_a
    header = (
        "state,a,b,p_a1,p_b1,classical_b1,interference_b1,"
        "classical_a1,interference_a1,fallacy_b,fallacy_a,reverse_b,reverse_a"
    )
    row = ",".join(
        [
            state_name,
            a_name,
            b_name,
            _f(dec_a.total),
            _f(dec_b.total),
            _f(dec_b.classical_part),
            _f(dec_b.interference),
            _f(dec_a.classical_part),
            _f(dec_a.interference),
            _b(rep.fallacy_on_b),
            _b(rep.fallacy_on_a),
            _b(rep.reverse_on_b),
            _b(rep.reverse_on_a),
        ]
    )
    return [header, row]


def _run_sequence(task: dsl.Task, rt: Runtime) -> list[str]:
    state_name = task.arg("state")
    order = task.arg("order")
    if len(order) > 16:
        raise ValidationError(f"sequence too long ({len(order)} questions)")
    state = rt.states[state_name]
    rho = density_from_pure(state) if isinstance(state, PureState) else state
    questions = [rt.questions[name] for name in order]
    rows = ["outcomes,probability"]
    for outcomes in itertools.product((0, 1), repeat=len(order)):
        steps = [OutcomeStep(q, o) for q, o in zip(questions, outcomes)]
        p = consecutive_probability(rho, steps)
        rows.append("".join(str(o) for o in outcomes) + "," + _f(p))
    return rows


def _run_sweep_task(task: dsl.Task, rt: Runtime) -> list[str]:
    theta = task.arg("theta")
    theta_a = task.arg("theta_a")
    phi = task.arg("phi")
    sweep = sweep_fallacy_map(
        GridRange(theta.start, theta.stop, theta.steps),
        GridRange(theta_a.start, theta_a.stop, theta_a.steps),
        phi,
    )
    return _sweep_lines(sweep)


def _run_simulate(
    task: dsl.Task, rt: Runtime, agents=None, seed=None
) -> list[str]:
    pop_name = task.arg("population")
    a_name, b_name = task.arg("pair")
    n = agents if agents is not None else task.arg("agents")
    sd = seed if seed is not None else task.arg("seed")
    table = simulate_population(
        rt.populations[pop_name], rt.questions[a_name], rt.questions[b_name], n, sd
    )
    header = (
        "population,a,b,agents,seed,count_a1,count_b1,count_a1_then_b1,"
        "count_b1_then_a1,p_a1,p_b1,p_a1_then_b1,p_b1_then_a1"
    )
    row = ",".join(
        [
            pop_name,
            a_name,
            b_name,
            str(table.n_agents),
            str(table.seed),
            str(table.count_a1),
            str(table.count_b1),
            str(table.count_a1_then_b1),
            str(table.count_b1_then_a1),
            _f(table.p_a1),
            _f(table.p_b1),
            _f(table.p_a1_then_b1),
            _f(table.p_b1_then_a1),
        ]
    )
    return [header, row]


def _run_underextension(task: dsl.Task, rt: Runtime) -> list[str]:
    state_name = task.arg("state")
    a_name, b_name = task.arg("pair")
    s = _require_pure(rt.states[state_name], state_name)
    est = underextension_estimate(s, rt.questions[a_name], rt.questions[b_name])
    header = "state,a,b,mu_a,mu_b,and_low,and_high,or_low,or_high,underextension"
    row = ",".join(
        [
            state_name,
            a_name,
            b_name,
            _f(est.mu_a),
            _f(est.mu_b),
            _f(est.and_low),
            _f(est.and_high),
            _f(est.or_low),
            _f(est.or_high),
            _b(est.underextension),
        ]
    )
    return [header, row]


def _run_uncertainty(task: dsl.Task, rt: Runtime) -> list[str]:
    a_name, b_name = task.arg("pair")
    minimum, (theta_s, phi_s) = uncertainty_sum_minimum(
        rt.questions[a_name], rt.questions[b_name], task.arg("steps")
    )
    header = "a,b,steps,minimum,theta_s,phi_s"
    row = ",".join(
        [a_name, b_name, str(task.arg("steps")), _f(minimum), _f(theta_s), _f(phi_s)]
    )
    return [header, row]


def execute_tasks(spec: dsl.ExperimentSpec, seed_override=None) -> str:
    """Run every task in declaration order and return the combined CSV text."""
    rt = build_runtime(spec)
    sections: list[str] = []
    for idx, task in enumerate(spec.tasks):
        if task.kind == "fallacy":
            rows = _run_fallacy(task, rt)
        elif task.kind == "sequence":
            rows = _run_sequence(task, rt)
        elif task.kind == "sweep":
            rows = _run_sweep_task(task, rt)
        elif task.kind == "simulate":
            rows = _run_simulate(task, rt, seed=seed_override)
        elif task.kind == "underextension":
            rows = _run_underextension(task, rt)
        elif task.kind == "uncertainty":
            rows = _run_uncertainty(task, rt)
        else:  # pragma: no cover - parser rejects unknown kinds
            raise ValidationError(f"unknown task kind {task.kind!r}")
        sections.append(f"# task {idx} {task.kind}\n" + "\n".join(rows))
    return "\n".join(sections) + ("\n" if sections else "")


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _number(tok: str) -> float:
    """A numeric option in the experiment language's grammar."""
    try:
        return dsl.parse_number(tok)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_range(raw: str) -> GridRange:
    parts = raw.split(":")
    if len(parts) != 3:
        raise _UsageError(f"expected START:END:STEPS, got {raw!r}")
    try:
        steps = int(parts[2])
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return GridRange(_number(parts[0]), _number(parts[1]), steps)


def build_parser() -> _Parser:
    parser = _Parser(prog="qopinion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment file")
    p_run.add_argument("file")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="rasterize the fallacy map")
    p_sweep.add_argument("--theta", required=True)
    p_sweep.add_argument("--theta-a", dest="theta_a", required=True)
    p_sweep.add_argument("--phi", default="0.0")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--svg", default=None)

    p_sim = sub.add_parser("simulate", help="run a file's simulate tasks")
    p_sim.add_argument("file")
    p_sim.add_argument("--agents", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", default=None)
    return parser


def _load_spec(path: str) -> dsl.ExperimentSpec:
    with open(path, encoding="utf-8") as fh:
        return dsl.parse(fh.read())


def cmd_run(args) -> int:
    spec = _load_spec(args.file)
    text = execute_tasks(spec, seed_override=args.seed)
    _write_output(text, args.out)
    return 0


def cmd_sweep(args) -> int:
    theta = _parse_range(args.theta)
    theta_a = _parse_range(args.theta_a)
    sweep = sweep_fallacy_map(theta, theta_a, _number(args.phi))
    _write_output("\n".join(_sweep_lines(sweep)) + "\n", args.out)
    if args.svg is not None:
        svg = fallacy_heatmap_svg(sweep, theta.steps, theta_a.steps)
        with open(args.svg, "w", newline="") as fh:
            fh.write(svg)
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args.file)
    sim_tasks = [t for t in spec.tasks if t.kind == "simulate"]
    if not sim_tasks:
        raise ValidationError(f"{args.file}: no simulate tasks")
    rt = build_runtime(spec)
    sections = []
    for idx, task in enumerate(sim_tasks):
        rows = _run_simulate(task, rt, agents=args.agents, seed=args.seed)
        sections.append(f"# task {idx} simulate\n" + "\n".join(rows))
    _write_output("\n".join(sections) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_simulate(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except dsl.ExperimentSyntaxError as exc:
        for err in exc.errors:
            print(f"{err}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except QOpinionError as exc:
        print(str(exc), file=sys.stderr)
        return 3


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
