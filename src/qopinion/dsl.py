"""Line-oriented experiment-description language (``.qx`` files).

One directive per line; ``#`` starts a comment; names must be declared
before use.  Angles are radians; a FLOAT is a finite ASCII decimal,
pi-fraction (``pi/4``, ``3pi/8``) or decimal with a ``deg`` suffix; an INT
is plain digits with an optional sign; in ``START:END:STEPS`` STEPS is an
INT >= 2 and the bounds and END - START must be finite.  The CLI reads
``--theta``, ``--theta-a``, ``--phi``, ``--seed`` and ``--agents`` with the
same :func:`parse_number`, :func:`parse_int` and :func:`parse_range`; a bad
option value exits 1.

    question NAME
    question NAME from NAME theta=FLOAT [phi=FLOAT]
    state NAME pure basis=NAME theta_a=FLOAT [phi_a=FLOAT]
    state NAME mixed basis=NAME p1=FLOAT
    population NAME = FLOAT*NAME [+ FLOAT*NAME ...]
    task fallacy state=NAME pair=NAME,NAME
    task sequence state=NAME order=NAME,NAME[,NAME...]
    task sweep pair=NAME,NAME theta=START:END:STEPS theta_a=START:END:STEPS [phi=FLOAT]
    task simulate population=NAME pair=NAME,NAME agents=INT seed=INT
    task underextension state=NAME pair=NAME,NAME
    task uncertainty pair=NAME,NAME steps=INT

A population's fractions are finite, non-negative and sum to 1 within 1e-9,
as :func:`states.mix`'s weights do; a violation is a parse error (exit 2).

A sweep's ``pair=`` names two declared questions but does not enter the
output: the grid sets b's relation to a (``theta``, ``phi``) and the state
(``theta_a``), and the raster does not depend on the frame, so ``pair=a,b``
and ``pair=b,c`` print identical rows.

Parsing collects every diagnostic in one pass instead of failing fast; on
any error no spec is produced.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import QOpinionError, ValidationError
from .states import _check_weights


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message}"


class ExperimentSyntaxError(QOpinionError):
    """Raised by :func:`parse` with the full list of collected errors."""

    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        super().__init__("; ".join(str(e) for e in errors))


@dataclass(frozen=True)
class QuestionDecl:
    name: str
    base: str | None = None
    theta: float = 0.0
    phi: float = 0.0


@dataclass(frozen=True)
class PureStateDecl:
    name: str
    basis: str
    theta_a: float
    phi_a: float = 0.0


@dataclass(frozen=True)
class MixedStateDecl:
    name: str
    basis: str
    p1: float


@dataclass(frozen=True)
class PopulationDecl:
    name: str
    components: tuple[tuple[float, str], ...]


@dataclass(frozen=True)
class GridRange:
    """Inclusive linear range with a fixed number of points (>= 2)."""

    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValidationError(f"grid needs at least 2 steps, got {self.steps}")
        if not math.isfinite(self.stop - self.start):  # also catches inf/nan bounds
            raise ValidationError("grid bounds and their difference must be finite")

    def values(self) -> list[float]:
        h = (self.stop - self.start) / (self.steps - 1)
        return [self.start + k * h for k in range(self.steps)]


@dataclass(frozen=True, eq=True)
class Task:
    kind: str
    args: tuple[tuple[str, object], ...]

    def arg(self, key: str):
        for k, v in self.args:
            if k == key:
                return v
        raise KeyError(key)


@dataclass(frozen=True)
class ExperimentSpec:
    questions: tuple[QuestionDecl, ...] = ()
    states: tuple[PureStateDecl | MixedStateDecl, ...] = ()
    populations: tuple[PopulationDecl, ...] = ()
    tasks: tuple[Task, ...] = ()


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# Number tokens are ASCII and matched whole (``fullmatch``), so neither
# ``float()``'s extras (``1_0``, surrounding space, non-ASCII digits) nor a
# trailing newline pass.  inf/nan are matched to be rejected as non-finite.
_DECIMAL_RE = re.compile(
    r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.ASCII | re.IGNORECASE,
)
_PI_RE = re.compile(r"([+-]?)([0-9]+(?:\.[0-9]+)?)?pi(?:/([0-9]+(?:\.[0-9]+)?))?")
_DEG_RE = re.compile(r"([+-]?[0-9]+(?:\.[0-9]+)?)deg")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_TOKEN_RE = re.compile(r"\S+")
# The line ends that text mode reads; str.splitlines() would also break at
# \f, \v, \x1c-\x1e, \x85, \u2028 and \u2029, which _TOKEN_RE reads as spaces.
_LINE_END_RE = re.compile(r"\r\n?|\n")


def parse_number(tok: str) -> float:
    """Value of one numeric token: a decimal, a pi-fraction such as ``pi/4``
    or ``3pi/8``, or a decimal with a ``deg`` suffix such as ``10deg``.

    Raises ValueError, with the reason as its message, for a malformed
    token, a zero denominator or a value that is not finite.
    """
    if m := _PI_RE.fullmatch(tok):
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise ValueError(f"division by zero in {tok!r}")
        value = sign * num * math.pi / den
    elif m := _DEG_RE.fullmatch(tok):
        value = math.radians(float(m.group(1)))
    elif _DECIMAL_RE.fullmatch(tok):
        value = float(tok)
    else:
        raise ValueError(f"malformed number {tok!r}")
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {tok!r}")
    return value


def parse_int(tok: str) -> int:
    """Value of an integer token: decimal digits with an optional sign, so
    not ``1_000``, ``5.0`` or ``1e3``.  Raises ValueError otherwise."""
    if not _INT_RE.fullmatch(tok):
        raise ValueError(f"malformed integer {tok!r}")
    return int(tok)


def parse_range(tok: str) -> GridRange:
    """Value of a ``START:END:STEPS`` token: two numbers and an integer.
    Raises ValueError with the reason, also for a range GridRange rejects."""
    parts = tok.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected START:END:STEPS, got {tok!r}")
    start, stop = parse_number(parts[0]), parse_number(parts[1])
    steps = parse_int(parts[2])
    try:
        return GridRange(start, stop, steps)
    except ValidationError as exc:
        raise ValueError(str(exc)) from None


# Required and optional key=value arguments per task kind.
_TASK_ARGS: dict[str, tuple[dict[str, str], dict[str, tuple[str, object]]]] = {
    "fallacy": ({"state": "state", "pair": "pair"}, {}),
    "sequence": ({"state": "state", "order": "order"}, {}),
    "sweep": (
        {"pair": "pair", "theta": "range", "theta_a": "range"},
        {"phi": ("float", 0.0)},
    ),
    "simulate": (
        {"population": "population", "pair": "pair", "agents": "int", "seed": "int"},
        {},
    ),
    "underextension": ({"state": "state", "pair": "pair"}, {}),
    "uncertainty": ({"pair": "pair", "steps": "int"}, {}),
}


class _LineErrors(QOpinionError):
    """Internal: abort the current directive after recording diagnostics."""


_NUMERIC = {"float": parse_number, "int": parse_int, "range": parse_range}


class _Parser:
    def __init__(self) -> None:
        self.errors: list[ParseError] = []
        # Number of the line being read; every diagnostic cites it.
        self.line_no = 0
        self.questions: list[QuestionDecl] = []
        self.states: list[PureStateDecl | MixedStateDecl] = []
        self.populations: list[PopulationDecl] = []
        self.tasks: list[Task] = []
        self._names: dict[str, set[str]] = {k: set() for k in ("question", "state", "population")}

    def fail(self, col: int, message: str):
        self.errors.append(ParseError(self.line_no, col, message))
        raise _LineErrors()

    def read(self, parse, tok: str, col: int):
        """``parse(tok)``, or a diagnostic at ``col`` that gives the reason."""
        try:
            return parse(tok)
        except ValueError as exc:
            self.fail(col, str(exc))

    def check_ref(self, kind: str, name: str, col: int):
        if name not in self._names[kind]:
            self.fail(col, f'unresolved reference "{name}"')

    def declare(self, kind: str, name: str, col: int):
        if not _NAME_RE.match(name):
            self.fail(col, f"invalid name {name!r}")
        if name in self._names[kind]:
            self.fail(col, f'duplicate {kind} name "{name}"')
        self._names[kind].add(name)

    # --- directives -----------------------------------------------------

    def parse_question(self, toks):
        if len(toks) not in (2, 5, 6) or (len(toks) > 2 and toks[2][0] != "from"):
            col = toks[min(2, len(toks) - 1)][1] if len(toks) > 1 else toks[0][1]
            self.fail(col, "expected: question NAME [from NAME theta=F [phi=F]]")
        name, name_col = toks[1]
        self.declare("question", name, name_col)
        if len(toks) == 2:
            self.questions.append(QuestionDecl(name))
            return
        base, base_col = toks[3]
        if base == name:  # declared above, so check_ref would accept it
            self.fail(base_col, f'unresolved reference "{base}"')
        self.check_ref("question", base, base_col)
        kv = self.parse_kv(toks[4:], {"theta": "float"}, {"phi": ("float", 0.0)})
        self.questions.append(QuestionDecl(name, base, kv["theta"], kv["phi"]))

    def parse_state(self, toks):
        if len(toks) < 3 or toks[2][0] not in ("pure", "mixed"):
            self.fail(toks[min(2, len(toks) - 1)][1], "expected: state NAME pure|mixed ...")
        name, name_col = toks[1]
        self.declare("state", name, name_col)
        if toks[2][0] == "pure":
            kv = self.parse_kv(
                toks[3:], {"basis": "question", "theta_a": "float"}, {"phi_a": ("float", 0.0)}
            )
            self.states.append(PureStateDecl(name, kv["basis"], kv["theta_a"], kv["phi_a"]))
        else:
            kv = self.parse_kv(toks[3:], {"basis": "question", "p1": "probability"}, {})
            self.states.append(MixedStateDecl(name, kv["basis"], kv["p1"]))

    def parse_population(self, toks):
        if len(toks) < 4 or toks[2][0] != "=":
            col = toks[min(2, len(toks) - 1)][1]
            self.fail(col, "expected: population NAME = FLOAT*NAME [+ ...]")
        name, name_col = toks[1]
        self.declare("population", name, name_col)
        terms = toks[3:]
        components: list[tuple[float, str]] = []
        # FLOAT*NAME at even positions, '+' at odd ones.
        for i, (tok, col) in enumerate(terms):
            if i % 2:
                if tok != "+":
                    self.fail(col, f"expected '+', got {tok!r}")
                continue
            if "*" not in tok:
                self.fail(col, f"expected FLOAT*NAME, got {tok!r}")
            frac_tok, state_name = tok.split("*", 1)
            frac = self.read(parse_number, frac_tok, col)
            self.check_ref("state", state_name, col + len(frac_tok) + 1)
            components.append((frac, state_name))
        if len(terms) % 2 == 0:
            self.fail(terms[-1][1], "trailing '+' in population")
        try:
            _check_weights("fraction", [f for f, _ in components])
        except ValidationError as exc:
            self.fail(terms[0][1], str(exc))
        self.populations.append(PopulationDecl(name, tuple(components)))

    def parse_task(self, toks):
        if len(toks) < 2:
            self.fail(toks[0][1], "expected: task KIND key=value ...")
        kind, kind_col = toks[1]
        if kind not in _TASK_ARGS:
            self.fail(kind_col, f"unknown task kind {kind!r}")
        required, optional = _TASK_ARGS[kind]
        kv = self.parse_kv(toks[2:], required, optional)
        # Canonical argument order: required keys first, then optionals.
        self.tasks.append(Task(kind, tuple((k, kv[k]) for k in [*required, *optional])))

    # --- key=value machinery --------------------------------------------

    def parse_kv(self, toks, required, optional):
        values: dict[str, object] = {}
        for tok, col in toks:
            if "=" not in tok:
                self.fail(col, f"expected key=value, got {tok!r}")
            key, raw = tok.split("=", 1)
            if key in required:
                vtype = required[key]
            elif key in optional:
                vtype = optional[key][0]
            else:
                self.fail(col, f"unknown argument {key!r}")
            if key in values:
                self.fail(col, f"duplicate argument {key!r}")
            values[key] = self.parse_value(key, vtype, raw, col + len(key) + 1)
        for key in required:
            if key not in values:
                self.fail(toks[0][1] if toks else 1, f"missing required argument {key!r}")
        for key, (_, default) in optional.items():
            values.setdefault(key, default)
        return values

    def parse_value(self, key, vtype, raw, col):
        if vtype == "probability":
            value = self.read(parse_number, raw, col)
            if not 0.0 <= value <= 1.0:
                self.fail(col, f"{key} must lie in [0, 1], got {value!r}")
            return value
        if vtype in _NUMERIC:
            return self.read(_NUMERIC[vtype], raw, col)
        if vtype in ("question", "state", "population"):
            self.check_ref(vtype, raw, col)
            return raw
        # "pair" or "order": a comma-separated list of question names.
        names = raw.split(",")
        if vtype == "pair" and len(names) != 2:
            self.fail(col, f"expected NAME,NAME, got {raw!r}")
        if len(names) < 2:
            self.fail(col, f"expected at least two names, got {raw!r}")
        for name in names:
            self.check_ref("question", name, col)
        return tuple(names)


def parse(text: str) -> ExperimentSpec:
    """Parse a ``.qx`` document; raises :class:`ExperimentSyntaxError` with
    every collected diagnostic when the document is invalid."""
    p = _Parser()
    directives = {
        "question": p.parse_question,
        "state": p.parse_state,
        "population": p.parse_population,
        "task": p.parse_task,
    }
    for p.line_no, line in enumerate(_LINE_END_RE.split(text), start=1):
        body = line.split("#", 1)[0]
        toks = [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        if not toks:
            continue
        head, head_col = toks[0]
        try:
            if head not in directives:
                p.fail(head_col, f"unknown directive {head!r}")
            directives[head](toks)
        except _LineErrors:
            continue
    if p.errors:
        raise ExperimentSyntaxError(p.errors)
    return ExperimentSpec(
        questions=tuple(p.questions),
        states=tuple(p.states),
        populations=tuple(p.populations),
        tasks=tuple(p.tasks),
    )


def _fmt(value: object) -> str:
    if isinstance(value, GridRange):
        return f"{value.start!r}:{value.stop!r}:{value.steps}"
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(spec: ExperimentSpec) -> str:
    """Canonical text form; ``parse(render(spec))`` equals ``spec``.

    Floats are printed with full precision so a round trip is exact.
    """
    lines: list[str] = []
    for q in spec.questions:
        if q.base is None:
            lines.append(f"question {q.name}")
        else:
            lines.append(
                f"question {q.name} from {q.base} theta={q.theta!r} phi={q.phi!r}"
            )
    for st in spec.states:
        if isinstance(st, PureStateDecl):
            lines.append(
                f"state {st.name} pure basis={st.basis} "
                f"theta_a={st.theta_a!r} phi_a={st.phi_a!r}"
            )
        else:
            lines.append(f"state {st.name} mixed basis={st.basis} p1={st.p1!r}")
    for pop in spec.populations:
        terms = " + ".join(f"{frac!r}*{name}" for frac, name in pop.components)
        lines.append(f"population {pop.name} = {terms}")
    for task in spec.tasks:
        args = " ".join(f"{k}={_fmt(v)}" for k, v in task.args)
        lines.append(f"task {task.kind} {args}")
    return "\n".join(lines) + ("\n" if lines else "")
