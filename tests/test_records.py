"""The package's records: plain ``__slots__`` classes on ``states._Record``.

Every record is immutable and compares, hashes, prints and pickles by its
fields, except the fallacy reports, which compare by identity.  The
validated ones raise the same error types and messages as ever, and
BasisRelation still canonicalises its angles.  ``dataclasses.replace`` still
works on an ExperimentSpec, and ``dsl.render`` gives each golden file's
canonical text, byte for byte, as it did when the records were dataclasses.
"""

import copy
import dataclasses
import hashlib
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from qopinion import analysis, cli, dsl
from qopinion.dsl import (
    ExperimentSpec, GridRange, MixedStateDecl, ParseError, PopulationDecl, PureStateDecl,
    QuestionDecl, Task,
)
from qopinion.errors import ValidationError
from qopinion.fallacy import DecompositionResult, FallacyReport, UnderextensionEstimate
from qopinion.measurement import OutcomeStep
from qopinion.observables import BasisRelation, Question
from qopinion.population import PopulationComponent, PopulationSpec, SimulationTable
from qopinion.states import MixedState, PureState, _Record

GOLDEN = Path(__file__).parent / "golden"
Q = Question("b", BasisRelation(0.3, 0.1))
GRID = GridRange(0.0, 1.0, 3)

# One instance of every record, and its fields' values in order.
SAMPLES = {
    PureState: (0.6 + 0j, 0.8j),
    MixedState: (0.25, 0.75, 0.1 + 0.2j),
    BasisRelation: (0.3, 0.1),
    Question: ("b", BasisRelation(0.3, 0.1)),
    OutcomeStep: (Q, 1),
    DecompositionResult: (0.5, 0.625, -0.125),
    FallacyReport: (0.2, 0.3, 0.4, -0.1, 0.25, -0.05, True, False, False, True),
    UnderextensionEstimate: (0.1, 0.2, 0.6, 0.7, 0.4, 0.4, False),
    ParseError: (3, 7, "boom"),
    QuestionDecl: ("b", "a", 0.2, 0.0),
    PureStateDecl: ("s", "a", 0.4, 0.0),
    MixedStateDecl: ("m", "a", 0.25),
    PopulationDecl: ("p", ((0.6, "s"), (0.4, "m"))),
    GridRange: (0.0, 1.0, 3),
    Task: ("sweep", (("pair", ("a", "b")), ("theta", GRID))),
    ExperimentSpec: ((QuestionDecl("a"),), (), (), (Task("fallacy", ()),)),
    cli.Runtime: ({"a": Question("a")}, {}, {}),
    analysis.SweepResult: (*(np.zeros((1, 2)),) * 10, np.zeros(1), np.zeros(2), 0.3, ()),
    PopulationComponent: (1.0, MixedState(0.5, 0.5, 0j), "c"),
    PopulationSpec: ((PopulationComponent(1.0, MixedState(0.5, 0.5, 0j), "c"),),),
    SimulationTable: (4, 11, (1, 0, 0, 3) + (0,) * 12),
}
BY_IDENTITY = {FallacyReport, analysis.SweepResult}
HASHABLE = set(SAMPLES) - BY_IDENTITY - {cli.Runtime}  # a Runtime holds dicts
CLASSES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def _make(cls):
    return cls(*SAMPLES[cls])


@CLASSES
def test_the_fields_are_the_values_given_in_order(cls):
    record = _make(cls)
    assert [getattr(record, name) for name in cls._fields] == list(SAMPLES[cls])
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError, match=f"^{cls.__name__} takes the fields"):
        _Record.__init__(cls.__new__(cls), *SAMPLES[cls][:-1])


@CLASSES
def test_a_field_cannot_be_assigned_or_deleted(cls):
    record = _make(cls)
    for name in cls._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable"):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 0


@CLASSES
def test_equality_hash_repr_and_pickle(cls):
    record, twin = _make(cls), _make(cls)
    assert (record == twin) is (cls not in BY_IDENTITY)
    assert record == record
    if cls in HASHABLE:
        assert hash(record) == hash(twin)
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
    assert repr(record).startswith(f"{cls.__name__}({cls._fields[0]}=")


def test_equality_needs_the_same_type():
    # Two declarations with equal values are still different declarations.
    assert QuestionDecl("a", "b", 0.0, 0.0) != PureStateDecl("a", "b", 0.0, 0.0)
    assert BasisRelation(0.3, 0.1) != (0.3, 0.1)
    assert GridRange(0.0, 1.0, 3) != (0.0, 1.0, 3)


def test_the_sweep_fields_extend_the_report_fields():
    assert analysis.SweepResult._fields == (
        *FallacyReport._fields, "theta", "theta_a", "phi", "regime"
    )
    assert cli._FALLACY_FIELDS is FallacyReport._fields


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PureState(1, 1), "PureState not normalized: |amp0|^2 + |amp1|^2 = 2"),
        (lambda: PureState(float("nan"), 0), "PureState: non-finite component nan"),
        (lambda: MixedState(0.5, 0.6, 0), "MixedState trace 1.1 != 1"),
        (lambda: MixedState(1.5, -0.5, 0),
         "MixedState not positive semidefinite (m00=1.5, m11=-0.5, det=-0.75)"),
        (lambda: MixedState(0.5, 0.5, 0.6),
         "MixedState not positive semidefinite (m00=0.5, m11=0.5, det=-0.10999999999999999)"),
        (lambda: MixedState(float("inf"), 0, 0), "MixedState: non-finite component inf"),
        (lambda: BasisRelation(float("nan"), 0.0), "BasisRelation: non-finite component nan"),
        (lambda: BasisRelation(0.0, float("inf")), "BasisRelation: non-finite component inf"),
        (lambda: OutcomeStep(Question("a"), 2), "outcome must be 0 or 1, got 2"),
        (lambda: GridRange(0.0, 1.0, 1), "grid needs at least 2 steps, got 1"),
        (lambda: GridRange(-1e308, 1e308, 3), "grid bounds and their difference must be finite"),
        (lambda: GridRange(0.0, float("nan"), 3),
         "grid bounds and their difference must be finite"),
        (lambda: PopulationSpec(()), "need at least one fraction"),
        (lambda: PopulationSpec((PopulationComponent(0.5, MixedState(0.5, 0.5, 0j), "x"),)),
         "fractions sum to 0.5, expected 1"),
    ],
)
def test_a_validation_error_keeps_its_type_and_message(make, message):
    with pytest.raises(ValidationError) as info:
        make()
    assert type(info.value) is ValidationError
    assert str(info.value) == message


# A tiny negative angle modulo pi rounds to pi itself, which is 0 again.
_ROUNDS_TO_PERIOD = {(-1e-300, -1e-300): (0.0, 0.0)}


@pytest.mark.parametrize(
    "theta, phi",
    [(-0.5, -1.0), (4.0, 7.0), (math.pi, 2.0 * math.pi), (0.3, 0.1), *_ROUNDS_TO_PERIOD],
)
def test_basis_relation_canonicalises_its_angles(theta, phi):
    rel = BasisRelation(theta, phi)
    canonical = _ROUNDS_TO_PERIOD.get((theta, phi), (theta % math.pi, phi % (2.0 * math.pi)))
    assert (rel.theta, rel.phi) == canonical
    assert 0.0 <= rel.theta < math.pi and 0.0 <= rel.phi < 2.0 * math.pi
    assert BasisRelation(rel.theta, rel.phi) == rel  # already canonical
    assert pickle.loads(pickle.dumps(rel)) == rel


def test_defaults_and_keywords_where_callers_use_them():
    assert Question("a") == Question("a", BasisRelation(0.0, 0.0))
    assert QuestionDecl("a") == QuestionDecl("a", None, 0.0, 0.0)
    assert PureStateDecl("s", "a", 0.4) == PureStateDecl("s", "a", 0.4, 0.0)
    assert ExperimentSpec() == ExperimentSpec(questions=(), states=(), populations=(), tasks=())


def test_dataclasses_replace_still_makes_a_one_task_spec():
    # perfbench's traced pass calls dataclasses.replace(spec, tasks=(task,)).
    spec = dsl.parse((GOLDEN / "everything.qx").read_text())
    for task in spec.tasks:
        one = dataclasses.replace(spec, tasks=(task,))
        assert type(one) is ExperimentSpec and one.tasks == (task,)
        assert (one.questions, one.states, one.populations) == (
            spec.questions, spec.states, spec.populations
        )
    assert [f.name for f in dataclasses.fields(spec)] == list(ExperimentSpec._fields)


def test_fmt_checks_a_grid_before_a_tuple_and_cell_a_bool_before_a_float():
    assert dsl._fmt(GRID) == "0.0:1.0:3"
    assert dsl._fmt(("a", "b")) == "a,b"
    assert dsl._fmt(0.1) == "0.1" and dsl._fmt(7) == "7"
    assert [cli._cell(v) for v in (True, False, 0.1, 7)] == ["1", "0", "0.10000000000000001", "7"]


# sha256 prefixes of dsl.render(dsl.parse(text)) of each golden file, as the
# dataclass records rendered them.
RENDER_DIGESTS = {
    "chained_bases": "742e495ed5aa7a2a",
    "degrees": "f10188a7943fcf5e",
    "everything": "f18496d9f110a47d",
    "fallacy_basic": "b068642b5d1e2f5a",
    "mixed_sequence": "97faedd3dccd2a00",
    "reverse_point": "1b2f90214d3113f9",
    "sequence_three": "22360add9a631ee7",
    "simulate_population": "742253cceb94a996",
    "sweep_grid": "b3ef4c540b52b8ff",
    "sweep_phi": "17a1cca99464eb49",
    "uncertainty": "553c21f914d6bdd3",
    "underextension": "89692366cda8fe20",
}


def test_render_of_each_golden_file_keeps_its_bytes():
    assert sorted(RENDER_DIGESTS) == sorted(p.stem for p in GOLDEN.glob("*.qx"))
    for stem, digest in RENDER_DIGESTS.items():
        text = dsl.render(dsl.parse((GOLDEN / f"{stem}.qx").read_text()))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, stem
