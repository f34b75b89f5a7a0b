"""`qopinion sweep` writes a raster of more than one block in two processes.

The CLI computes and writes the lower theta rows itself and one forked
worker the upper rows, each block's CSV rows and then its SVG rows.  These
tests hold the files to the bytes of a per-cell ``format(x, ".17g")`` row
loop over one in-process raster at every split point, check that the
outputs are opened before any work and that two names of one file are
rejected there, that memory does not grow with the theta rows, that the
worker's failures end the command with main's exit code and one
diagnostic, and that no process outlives a sweep.  The worker prints
nothing: the command writes every diagnostic, the worker's failures too.
Tests that read stderr use ``capfd``, which would also catch a line that a
forked process wrote to the file descriptor, where ``capsys`` would not.
"""

import errno
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from qopinion import analysis, cli
from qopinion.analysis import sweep_blocks, sweep_fallacy_map
from qopinion.dsl import GridRange
from qopinion.heatmap import fallacy_heatmap_svg

from conftest import HoldsLock, TwoArgs, assert_no_child_left, raising


GOLDEN = Path(__file__).parent / "golden"
ONE_BLOCK = cli._CHUNK_ROWS


def _reference_rows(sweep) -> str:
    """The CSV rows of a raster, one cell at a time: each float through
    ``format(x, ".17g")`` and each flag as 0 or 1."""
    columns = [getattr(sweep, name).tolist() for name in cli._FALLACY_FIELDS]
    lines = []
    for i, theta in enumerate(sweep.theta.tolist()):
        for k, theta_a in enumerate(sweep.theta_a.tolist()):
            cells = [theta, theta_a, sweep.phi, *(column[i][k] for column in columns)]
            text = [format(v, ".17g") if isinstance(v, float) else str(int(v)) for v in cells]
            lines.append(",".join([*text, sweep.regime[i].value]))
    return "\n".join(lines)


def _reference(theta: str, theta_a: str, phi: float) -> tuple[bytes, bytes]:
    """The CSV and SVG bytes of one in-process raster over every row."""
    grids = [GridRange(*map(float, axis.split(":")[:2]), int(axis.split(":")[2]))
             for axis in (theta, theta_a)]
    sweep = sweep_fallacy_map(*grids, phi)
    csv = "\n".join([cli.SWEEP_HEADER, _reference_rows(sweep), ""])
    svg = fallacy_heatmap_svg(sweep, grids[0].steps, grids[1].steps)
    return csv.encode(), svg.encode()


def _sweep(tmp_path, theta, theta_a, phi=0.0):
    return cli.main(["sweep", "--theta", theta, "--theta-a", theta_a, "--phi", repr(phi),
                     "--out", str(tmp_path / "sweep.csv"), "--svg", str(tmp_path / "sweep.svg")])


@pytest.mark.parametrize(
    "theta, theta_a, phi",
    [
        ("0.01:3.13:2", "0.2:2.9:3", 0.0),  # the smallest grid: 2 rows
        (f"0.01:3.13:{ONE_BLOCK}", "0.2:2.9:5", 0.0),
        (f"0.01:3.13:{ONE_BLOCK + 1}", "0.2:2.9:4", 0.0),
        (f"0.01:3.13:{2 * ONE_BLOCK + 1}", "0.2:2.9:6", 0.0),
        ("0.01:3.13:37", "0.4:1.3:2", 0.0),  # odd rows, the fewest columns
        ("-3.5:7:41", "0.05:3.09:7", 0.7),
        # Exact angles: zeros, signed zeros and exponent forms in the values.
        ("0:3.141592653589793:64", "0:3.141592653589793:64", math.pi / 2),
        ("-3.5:7:37", "-3.5:7:5", 0.7),  # negative angles
        ("-2:2:40", "-1:3:33", -math.pi / 2),
    ],
    ids=["2-rows", "one-block", "one-block+1", "two-blocks+1", "odd-two-columns", "phi",
         "exact-angles", "negative-angles", "negative-phi"],
)
def test_sweep_files_match_the_one_process_bytes(tmp_path, theta, theta_a, phi):
    assert _sweep(tmp_path, theta, theta_a, phi) == 0
    csv, svg = _reference(theta, theta_a, phi)
    assert (tmp_path / "sweep.csv").read_bytes() == csv
    assert (tmp_path / "sweep.svg").read_bytes() == svg
    assert_no_child_left()


def test_row_blocks_do_not_depend_on_the_span():
    grids = (GridRange(0.01, 3.13, 2 * ONE_BLOCK + 3), GridRange(0.2, 2.9, 5), 0.3)
    rows = grids[0].steps
    whole = cli._sweep_rows(sweep_fallacy_map(*grids))
    assert whole == _reference_rows(sweep_fallacy_map(*grids))
    blocks = [cli._sweep_rows(b) for b in sweep_blocks(*grids, 0, rows, ONE_BLOCK)]
    assert len(blocks) == 3  # two full blocks and one of three rows
    one_by_one = [
        cli._sweep_rows(b) for i in range(rows) for b in sweep_blocks(*grids, i, i + 1, 1)
    ]
    assert "\n".join(one_by_one) == "\n".join(blocks) == whole
    assert len(whole.split("\n")) == rows * 5


def test_full_size_sweep_matches_the_one_process_bytes(tmp_path):
    axis = "0.01:3.13:256"
    proc = subprocess.run(
        [sys.executable, "-m", "qopinion", "sweep", "--theta", axis, "--theta-a", axis,
         "--out", str(tmp_path / "sweep.csv"), "--svg", str(tmp_path / "sweep.svg")],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    csv, svg = _reference(axis, axis, 0.0)
    assert (tmp_path / "sweep.csv").read_bytes() == csv
    assert (tmp_path / "sweep.svg").read_bytes() == svg


def test_spill_falls_back_to_the_temporary_directory(tmp_path, monkeypatch):
    # As for --out /dev/stdout run by a user who may not create files in /dev.
    make = tempfile.TemporaryFile

    def beside_out_refused(*args, dir=None, **kwargs):
        if dir is not None:
            raise PermissionError(13, "Permission denied", dir)
        return make(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", beside_out_refused)
    theta, theta_a = f"0.01:3.13:{3 * ONE_BLOCK}", "0.2:2.9:4"
    assert _sweep(tmp_path, theta, theta_a) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == _reference(theta, theta_a, 0.0)[0]


def _fail_in(monkeypatch, side: str, fail):
    """Make the row formatter call ``fail()`` in the parent or the worker only."""
    parent, rows = os.getpid(), cli._sweep_rows

    def patched(block):
        if (os.getpid() == parent) == (side == "parent"):
            fail()
        return rows(block)

    monkeypatch.setattr(cli, "_sweep_rows", patched)


def _raise_memory_error():
    raise MemoryError("injected")


FULL_DISK = "/spill/on/a/full/disk"


def _raise_no_space():
    # A spill or output file on a full disk; an OSError is pickled with its
    # errno, message and file name.
    raise OSError(errno.ENOSPC, "No space left on device", FULL_DISK)


@pytest.mark.parametrize("side", ["worker", "parent"])
def test_out_of_memory_on_either_side_exits_3_with_one_line(tmp_path, monkeypatch, capfd, side):
    _fail_in(monkeypatch, side, _raise_memory_error)
    assert _sweep(tmp_path, "0.01:3.13:40", "0.2:2.9:4") == 3
    out, err = capfd.readouterr()
    assert (out, err) == ("", "out of memory: injected\n")
    assert_no_child_left()


@pytest.mark.parametrize("side", ["worker", "parent"])
def test_a_full_disk_on_either_side_exits_1_with_one_line(tmp_path, monkeypatch, capfd, side):
    _fail_in(monkeypatch, side, _raise_no_space)
    assert _sweep(tmp_path, "0.01:3.13:40", "0.2:2.9:4") == 1
    out, err = capfd.readouterr()
    assert (out, err) == ("", f"[Errno 28] No space left on device: '{FULL_DISK}'\n")
    assert_no_child_left()


def test_a_worker_failing_midway_appends_none_of_its_rows(tmp_path, monkeypatch, capfd):
    # The worker writes one block of its rows, then runs out of memory: the
    # CSV keeps the header and this process's rows, and no partial tail.
    parent, rows, worker_blocks = os.getpid(), cli._sweep_rows, []

    def one_block_then_fail(block):
        if os.getpid() != parent:
            if worker_blocks:  # the worker's own copy of the list
                raise MemoryError("injected")
            worker_blocks.append(block)
        return rows(block)

    monkeypatch.setattr(cli, "_sweep_rows", one_block_then_fail)
    theta, theta_a, n = "0.01:3.13:40", "0.2:2.9:4", 40
    assert _sweep(tmp_path, theta, theta_a) == 3
    assert capfd.readouterr().err == "out of memory: injected\n"
    split = n - n // 2  # this process's span: the lower half, rounded up
    lines = _reference(theta, theta_a, 0.0)[0].splitlines(keepends=True)
    assert (tmp_path / "sweep.csv").read_bytes() == b"".join(lines[: 1 + split * 4])
    assert_no_child_left()


def test_a_failing_parent_ends_the_worker_first(tmp_path, monkeypatch, capfd):
    parent, rows = os.getpid(), cli._sweep_rows

    def patched(block):
        if os.getpid() == parent:
            raise MemoryError("injected")
        time.sleep(60)  # a worker left to finish would hold the command here
        return rows(block)

    monkeypatch.setattr(cli, "_sweep_rows", patched)
    start = time.monotonic()
    assert _sweep(tmp_path, "0.01:3.13:40", "0.2:2.9:4") == 3
    assert time.monotonic() - start < 30
    assert capfd.readouterr().err == "out of memory: injected\n"
    assert_no_child_left()


def test_the_worker_leaves_ctrl_c_to_the_command(tmp_path, monkeypatch, capfd):
    _fail_in(monkeypatch, "worker", lambda: os.kill(os.getpid(), signal.SIGINT))
    theta, theta_a = "0.01:3.13:40", "0.2:2.9:4"
    assert _sweep(tmp_path, theta, theta_a) == 0
    assert capfd.readouterr().err == ""
    assert (tmp_path / "sweep.csv").read_bytes() == _reference(theta, theta_a, 0.0)[0]
    assert_no_child_left()


def test_worker_killed_by_a_signal_exits_3(tmp_path, monkeypatch, capfd):
    _fail_in(monkeypatch, "worker", lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert _sweep(tmp_path, "0.01:3.13:40", "0.2:2.9:4") == 3
    assert capfd.readouterr().err == f"sweep worker ended by signal {int(signal.SIGKILL)}\n"
    assert_no_child_left()


@pytest.mark.parametrize("exc", [TwoArgs("lost on the way back", 2), HoldsLock("never sent")],
                         ids=["extra-init-argument", "unpicklable"])
def test_a_worker_error_that_cannot_come_back_exits_3_with_one_line(tmp_path, monkeypatch,
                                                                      capfd, exc):
    _fail_in(monkeypatch, "worker", raising(exc))
    assert _sweep(tmp_path, "0.01:3.13:40", "0.2:2.9:4") == 3
    out, err = capfd.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("sweep worker failed; unreadable outcome (")
    assert str(exc) in err
    assert_no_child_left()


def test_a_worker_cli_error_keeps_its_exit_code(tmp_path, monkeypatch, capfd):
    _fail_in(monkeypatch, "worker", raising(cli._CliError("x", 2)))
    assert _sweep(tmp_path, "0.01:3.13:40", "0.2:2.9:4") == 2
    assert capfd.readouterr() == ("", "x\n")
    assert_no_child_left()


def _refuse(what: str):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} reached")

    return refused


@pytest.mark.parametrize("rows", [ONE_BLOCK, 3 * ONE_BLOCK])
def test_unopenable_svg_exits_1_before_any_work(tmp_path, monkeypatch, capfd, rows):
    monkeypatch.setattr(analysis, "_fallacy", _refuse("a block's arithmetic"))
    monkeypatch.setattr(os, "fork", _refuse("os.fork"))
    missing = tmp_path / "missing" / "map.svg"
    argv = ["sweep", "--theta", f"0.01:3.13:{rows}", "--theta-a", "0.2:2.9:4",
            "--out", str(tmp_path / "sweep.csv"), "--svg", str(missing)]
    assert cli.main(argv) == 1
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1 and str(missing) in err
    assert_no_child_left()


@pytest.mark.parametrize("rows", [ONE_BLOCK, 3 * ONE_BLOCK])
@pytest.mark.parametrize("name", ["same-path", "symlink", "hard-link", "dev-stdout"])
def test_svg_naming_the_out_file_exits_1_before_any_work(tmp_path, monkeypatch, capfd,
                                                         name, rows):
    # Two writers on one file would interleave the CSV and the SVG.
    monkeypatch.setattr(analysis, "_fallacy", _refuse("a block's arithmetic"))
    monkeypatch.setattr(os, "fork", _refuse("os.fork"))
    out = tmp_path / "sweep.csv"
    svg = {"same-path": out, "symlink": tmp_path / "link.svg",
           "hard-link": tmp_path / "hard.svg", "dev-stdout": Path("/dev/stdout")}[name]
    if name == "dev-stdout":
        out = svg
    else:
        out.write_text("")
        if name == "symlink":
            svg.symlink_to(out)
        elif name == "hard-link":
            svg.hardlink_to(out)
    argv = ["sweep", "--theta", f"0.01:3.13:{rows}", "--theta-a", "0.2:2.9:4",
            "--out", str(out), "--svg", str(svg)]
    assert cli.main(argv) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and str(svg) in captured.err
    assert_no_child_left()


def _traced_peak(tmp_path, rows: int) -> int:
    tracemalloc.start()
    try:
        assert _sweep(tmp_path, f"0.01:3.13:{rows}", "0.01:3.13:256", 0.3) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_theta_rows(tmp_path):
    # Each process holds one block of the raster, its CSV rows and its SVG
    # rows at a time, so eight times the rows take no more memory.
    assert _sweep(tmp_path, "0.01:3.13:32", "0.01:3.13:256", 0.3) == 0  # warm caches
    small, large = _traced_peak(tmp_path, 64), _traced_peak(tmp_path, 512)
    assert large <= 1.25 * small, (small, large)


def test_no_worker_where_one_block_is_the_whole_raster(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _sweep(tmp_path, f"0.01:3.13:{ONE_BLOCK}", "0.2:2.9:5") == 0
    out = tmp_path / "run.csv"
    assert cli.main(["run", str(GOLDEN / "sweep_grid.qx"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_grid.csv").read_bytes()
    qx = tmp_path / "big.qx"
    qx.write_text("question a\nquestion b from a theta=0.3\n"
                  "task sweep pair=a,b theta=0.01:3.13:64 theta_a=0.2:2.9:3\n")
    assert cli.main(["run", str(qx), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 64 * 3
