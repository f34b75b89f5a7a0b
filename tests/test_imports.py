"""The numpy import boundary and the package API that serves it lazily.

The point-wise tasks (fallacy, sequence, underextension) are scalar code:
importing the package or the CLI, or running a file of such tasks, must not
load numpy.  The sweep, uncertainty and simulate paths must; a one-chunk
simulation must not load the thread pool that counts a second span.  Each
check runs in a fresh interpreter, since this one has long since loaded numpy.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qopinion

GOLDEN = Path(__file__).parent / "golden"

NUMPY_FREE = [
    "chained_bases",
    "degrees",
    "fallacy_basic",
    "mixed_sequence",
    "reverse_point",
    "sequence_three",
    "underextension",
]
NUMPY_USERS = ["sweep_grid", "uncertainty", "simulate_population"]

# qopinion.__all__ by home module; the package also exports these modules.
EXPORTS = {
    "analysis": ("SweepResult", "sweep_fallacy_map", "uncertainty_sum_minimum"),
    "dsl": ("GridRange",),
    "errors": (
        "ImpossibleOutcomeError", "PreconditionError", "QOpinionError",
        "SingularityError", "ValidationError",
    ),
    "fallacy": (
        "DecompositionResult", "FallacyReport", "RegimeClass", "UnderextensionEstimate",
        "classify_regime", "decompose_total_probability", "fallacy_inequalities",
        "fallacy_report", "mixed_state_total_probability", "underextension_estimate",
    ),
    "measurement": (
        "OutcomeStep", "collapse", "consecutive_probability", "mean_value",
        "ordering_flip_probability", "outcome_probability", "sample_answer", "variance",
    ),
    "observables": (
        "BasisRelation", "Question", "change_basis", "commutator_is_zero",
        "compose_relations", "conditional_probability", "eigenvectors_in_reference",
        "from_basis", "relative_relation",
    ),
    "population": (
        "PopulationComponent", "PopulationSpec", "SimulationTable",
        "predicted_fallacy_rate", "simulate_population",
    ),
    "states": (
        "MAXIMALLY_MIXED", "MixedState", "PureState", "density_from_pure", "is_pure",
        "mix", "pure_from_angles",
    ),
}
MODULES = (
    "analysis", "dsl", "errors", "kernels", "measurement", "observables",
    "population", "states",
)
ALL = {*MODULES, *(name for names in EXPORTS.values() for name in names)}


def _loads(module: str, code: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    probe = code + f"\nimport sys\nprint({module!r} in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    return out.split()[-1] == "True"


def _run_file(stem: str) -> str:
    path = str(GOLDEN / f"{stem}.qx")
    return (
        "from qopinion import cli\n"
        f"assert cli.main(['run', {path!r}, '--out', {os.devnull!r}]) == 0"
    )


@pytest.mark.parametrize("module", ["qopinion", "qopinion.cli"])
def test_import_does_not_load_numpy(module):
    assert not _loads("numpy", f"import {module}")


@pytest.mark.parametrize("stem", NUMPY_FREE)
def test_point_wise_file_does_not_load_numpy(stem):
    assert not _loads("numpy", _run_file(stem))


@pytest.mark.parametrize("stem", NUMPY_USERS)
def test_array_file_loads_numpy(stem):
    assert _loads("numpy", _run_file(stem))


def test_one_chunk_simulation_starts_no_thread_pool():
    # The golden file's 20,000 agents are one chunk: simulate_population
    # imports concurrent.futures only to count a second span.
    assert not _loads("concurrent.futures", _run_file("simulate_population"))


def test_all_is_the_pinned_set():
    assert len(qopinion.__all__) == len(ALL)
    assert set(qopinion.__all__) == ALL


@pytest.mark.parametrize("name", sorted(ALL))
def test_exported_name_is_its_home_object(name):
    if name in MODULES:
        home = importlib.import_module(f"qopinion.{name}")
        assert getattr(qopinion, name) is home
    else:
        (module,) = [m for m, names in EXPORTS.items() if name in names]
        home = importlib.import_module(f"qopinion.{module}")
        assert getattr(qopinion, name) is getattr(home, name)
    assert name in dir(qopinion)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from qopinion import *", namespace)
    assert set(namespace) - {"__builtins__"} == ALL
    assert namespace["sweep_fallacy_map"] is qopinion.analysis.sweep_fallacy_map


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qopinion.no_such_name  # noqa: B018 - the access is the test
