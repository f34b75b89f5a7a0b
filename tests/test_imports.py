"""The numpy import boundary and the package API that serves it lazily.

The point-wise tasks (fallacy, sequence, underextension) are scalar code,
and so is a ``run`` sweep of at most ``cli._POINTWISE_CELLS`` cells:
importing the package or the CLI, or running a file of such tasks, must not
load numpy, nor the fork helper ``qopinion._fork``.  A larger sweep and the
uncertainty and simulate paths must load numpy; no simulation loads logging.
``import qopinion`` itself loads no submodule: each public name is imported
on first access.  Each import check runs in a fresh
interpreter, since this one has long since loaded numpy and the package.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qopinion
from qopinion import cli, population

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(qopinion.__file__).parent

NUMPY_FREE = [
    "chained_bases",
    "degrees",
    "fallacy_basic",
    "mixed_sequence",
    "reverse_point",
    "sequence_three",
    "sweep_grid",
    "sweep_phi",
    "underextension",
]
NUMPY_USERS = ["uncertainty", "simulate_population"]

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


def _fresh(code: str) -> str:
    """What ``code`` prints when it runs in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout


def _loaded(modules: tuple[str, ...], code: str) -> list[str]:
    """Those of ``modules`` that are in ``sys.modules`` after ``code`` runs in
    a fresh interpreter."""
    probe = code + f"\nimport sys\nprint(*[m for m in {modules!r} if m in sys.modules])\n"
    return _fresh(probe).splitlines()[-1].split()


def _loads(module: str, code: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    return _loaded((module,), code) == [module]


def _run_file(stem: str) -> str:
    path = str(GOLDEN / f"{stem}.qx")
    return (
        "from qopinion import cli\n"
        f"assert cli.main(['run', {path!r}, '--out', {os.devnull!r}]) == 0"
    )


@pytest.mark.parametrize("module", ["qopinion", "qopinion.cli"])
def test_import_does_not_load_numpy(module):
    assert not _loads("numpy", f"import {module}")


def test_import_loads_no_submodule():
    probe = "import sys, qopinion\nprint(*sorted(m for m in sys.modules if m.startswith('qopinion.')))"
    assert _fresh(probe).split() == []


def test_oracle_loads_only_the_modules_it_checks_against():
    # The oracle is written apart from the code it checks: it shares states,
    # questions and errors with it, and no probability or array code.
    probe = (
        "import sys, qopinion.oracle\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qopinion.')))\n"
        "print('numpy' in sys.modules)"
    )
    assert _fresh(probe).split() == [
        "qopinion.errors", "qopinion.observables", "qopinion.oracle", "qopinion.states", "False",
    ]


def test_scalar_name_does_not_load_numpy():
    assert not _loads("numpy", "from qopinion import fallacy_report")


def test_home_module_outside_all_resolves():
    # fallacy defines ten of the names but is not itself exported.
    assert "fallacy" not in qopinion.__all__
    probe = "import sys, qopinion\nprint(qopinion.fallacy is sys.modules['qopinion.fallacy'])"
    assert _fresh(probe).split() == ["True"]


def test_unlisted_module_is_an_attribute_only_once_imported():
    probe = (
        "import qopinion\n"
        "try:\n"
        "    qopinion.cli\n"
        "except AttributeError:\n"
        "    print('absent')\n"
        "import qopinion.cli\n"
        "print(qopinion.cli.__name__)"
    )
    assert _fresh(probe).split() == ["absent", "qopinion.cli"]


@pytest.mark.parametrize("stem", NUMPY_FREE)
def test_point_wise_file_does_not_load_numpy(stem):
    # Nor the fork helper, which only a sweep's and a simulation's split use.
    probe = _run_file(stem) + (
        "\nimport sys\nprint([m for m in ('numpy', 'qopinion._fork') if m in sys.modules])"
    )
    assert _fresh(probe).splitlines()[-1] == "[]"


# dataclasses and what it imports, which nothing else on the numpy-free path
# loads: importing them and generating the classes took ~17 ms of a ~80 ms
# point-wise run, so the package's records are plain classes instead.
DATACLASS_MODULES = ("dataclasses", "inspect", "ast", "dis", "copy")


@pytest.mark.parametrize(
    "code", ["import qopinion.cli", *map(_run_file, NUMPY_FREE)], ids=["import", *NUMPY_FREE]
)
def test_numpy_free_path_loads_no_dataclass_machinery(code):
    assert _loaded(DATACLASS_MODULES, code) == []


@pytest.mark.parametrize("stem", NUMPY_USERS)
def test_array_file_loads_numpy(stem):
    assert _loads("numpy", _run_file(stem))


def _sweep_file(tmp_path, rows: int, cols: int) -> str:
    path = tmp_path / f"sweep_{rows}x{cols}.qx"
    path.write_text("question a\nquestion b from a theta=0.3\n"
                    f"task sweep pair=a,b theta=0.01:3.13:{rows} theta_a=0.01:3.13:{cols}\n")
    return (
        "from qopinion import cli\n"
        f"assert cli.main(['run', {str(path)!r}, '--out', {os.devnull!r}]) == 0"
    )


def test_run_sweep_loads_numpy_only_past_the_point_wise_cells(tmp_path):
    cells = cli._POINTWISE_CELLS
    rows = next((d for d in range(2, cells) if cells % d == 0), cells)
    assert cells // rows >= 2, "no raster of exactly that many cells"
    assert not _loads("numpy", _sweep_file(tmp_path, rows, cells // rows))
    assert _loads("numpy", _sweep_file(tmp_path, 2, cells // 2 + 1))


def test_simulation_forks_only_past_the_split(monkeypatch, tmp_path):
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    path, out = str(GOLDEN / "simulate_population.qx"), str(tmp_path / "sim.csv")
    split = population._SPLIT_AGENTS
    for agents, expected in ((20_000, 0), (split, 0), (split + 1, 1)):
        forks.clear()
        argv = ["simulate", path, "--agents", str(agents), "--seed", "1", "--out", out]
        assert cli.main(argv) == 0
        assert len(forks) == expected, agents


def test_two_span_simulation_loads_no_logging():
    # The second span's worker comes from os.fork and a pipe; a pool from
    # multiprocessing or concurrent.futures would add their imports, and
    # logging's 6-11 ms, which nothing else in the command needs.
    path = str(GOLDEN / "simulate_population.qx")
    agents = str(population._SPLIT_AGENTS + 1)
    simulate = (
        "from qopinion import cli\n"
        f"assert cli.main(['simulate', {path!r}, '--agents', {agents!r}, '--seed', '1',"
        f" '--out', {os.devnull!r}]) == 0\n"
        "import sys\n"
        "print([m for m in ('logging', 'multiprocessing', 'concurrent.futures')"
        " if m in sys.modules])"
    )
    assert _fresh(simulate).splitlines()[-1] == "[]"


# What starts, kills or reaps a process, and what encodes a worker's outcome.
PROCESS_NAMES = {"os.fork", "os.waitpid", "signal.SIGKILL", "pickle"}


def _process_names(path: Path) -> set[str]:
    """The names of ``PROCESS_NAMES`` that the code of ``path`` uses or
    imports (not its comments or docstrings)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, (ast.Name, ast.alias)):
            used.add(getattr(node, "id", None) or node.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            used.update({node.module, *(f"{node.module}.{a.name}" for a in node.names)})
    return used & PROCESS_NAMES


def test_only_the_fork_module_forks_kills_reaps_or_pickles():
    found = {path.name: _process_names(path) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("_fork.py") == PROCESS_NAMES
    assert {name: used for name, used in found.items() if used} == {}


def test_heatmap_does_not_load_urllib():
    # urllib.request brings http, email, ssl and socket, tens of milliseconds
    # of import that a sweep's worker does not need; xml.sax.saxutils loads it.
    render = (
        "from qopinion import analysis, dsl, heatmap\n"
        "grid = dsl.GridRange(0.1, 3.0, 4)\n"
        "sweep = analysis.sweep_fallacy_map(grid, grid, 0.3)\n"
        "heatmap.fallacy_heatmap_svg(sweep, 4, 4)"
    )
    assert not _loads("urllib.request", render)


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
