import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

import qopinion.analysis  # noqa: F401 - numpy's import is not a run's to trace
from qopinion import FallacyReport, cli, dsl, heatmap
from qopinion.cli import SWEEP_HEADER, execute_tasks, main

GOLDEN = Path(__file__).parent / "golden"

BASIC = GOLDEN / "fallacy_basic.qx"
SIMULATE = GOLDEN / "simulate_population.qx"


def _run(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "qopinion", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def _buffered_env() -> dict:
    """This environment without ``PYTHONUNBUFFERED``: a child's stdout to a
    pipe is then block-buffered, so what it writes waits for a flush."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _piped_stdout(argv) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "qopinion", *argv], capture_output=True, env=_buffered_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_emits_fallacy_section(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["run", str(BASIC), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# task 0 fallacy"
    assert lines[1].startswith("state,a,b,")
    fields = lines[2].split(",")
    assert fields[:3] == ["tilted", "a", "b"]
    assert float(fields[4]) == pytest.approx(0.8268, abs=1e-3)
    assert fields[9] == "1"  # fallacy_b
    assert fields[10] == "0"  # fallacy_a


def test_fallacy_columns_are_the_report_fields():
    names = [f.name for f in dataclasses.fields(FallacyReport)]
    assert names == [
        "p_a1", "p_b1", "classical_b1", "interference_b1", "classical_a1",
        "interference_a1", "fallacy_b", "fallacy_a", "reverse_b", "reverse_a",
    ]
    assert SWEEP_HEADER == ",".join(["theta", "theta_a", "phi", *names, "regime"])


def test_run_holds_a_sweep_text_about_twice():
    # The rows as blocks, then the joined text: any further copy of the text
    # would push the peak to three times its length.
    spec = dsl.parse(
        "question a\nquestion b from a theta=0.2\n"
        "task sweep pair=a,b theta=0.01:3.13:256 theta_a=0.01:3.13:256 phi=0.3\n"
    )
    tracemalloc.start()
    try:
        text = execute_tasks(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text), peak / len(text)


def _run_peak(tmp_path, rows: int) -> int:
    qx = tmp_path / "sweep.qx"
    qx.write_text("question a\nquestion b from a theta=0.3\n"
                  f"task sweep pair=a,b theta=0.01:3.13:{rows} theta_a=0.01:3.13:256 phi=0.3\n")
    tracemalloc.start()
    try:
        assert main(["run", str(qx), "--out", str(tmp_path / "run.csv")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_run_does_not_hold_the_raster(tmp_path):
    # run writes a sweep's blocks as they are computed, so eight times the
    # theta rows take no more memory.
    _run_peak(tmp_path, 32)  # warm caches
    small, large = _run_peak(tmp_path, 64), _run_peak(tmp_path, 512)
    assert large <= 1.25 * small, (small, large)


def test_run_defaults_to_stdout():
    code, stdout, _ = _run(["run", str(BASIC)])
    assert code == 0
    assert stdout.startswith("# task 0 fallacy\n")


def test_run_every_golden_file(tmp_path):
    for path in sorted(GOLDEN.glob("*.qx")):
        out = tmp_path / (path.stem + ".csv")
        assert main(["run", str(path), "--out", str(out)]) == 0, path.name
        assert out.read_text().startswith("# task 0 ")


@pytest.mark.parametrize("qx", sorted(GOLDEN.glob("*.qx")), ids=lambda p: p.stem)
def test_run_reproduces_golden_csv_bytes(tmp_path, qx):
    out = tmp_path / "out.csv"
    assert main(["run", str(qx), "--out", str(out)]) == 0
    assert out.read_bytes() == qx.with_suffix(".csv").read_bytes()


# Axes that hold the angles where interference vanishes and zeros are signed
# (0, -0.0, -pi/2, pi/2, pi, 2pi) and a tiny one, at phases that include -0.0.
EDGE_AXES = ["0:2pi:5", "-0.0:-pi:3", "1e-9:pi/2:2"]
EDGE_PHIS = ["0", "-0.0", "0.3", "pi/2", "pi", "-2", "3pi/2"]


@pytest.mark.parametrize("phi", EDGE_PHIS)
def test_point_wise_and_block_sweeps_write_the_same_bytes(monkeypatch, phi):
    # A small run sweep is computed cell by cell, a large one in blocks; the
    # text is compared whole, since float == cannot tell -0 from 0.
    spec = dsl.parse("question a\nquestion b from a theta=0.3\n" + "".join(
        f"task sweep pair=a,b theta={theta} theta_a={theta_a} phi={phi}\n"
        for theta, theta_a in itertools.product(EDGE_AXES, repeat=2)
    ))
    texts = []
    for cells in (0, 10**9):  # every sweep in blocks, then every sweep point-wise
        monkeypatch.setattr(cli, "_POINTWISE_CELLS", cells)
        texts.append(execute_tasks(spec))
    assert ",-0," in texts[0]
    assert texts[0] == texts[1]


# The command ends its process without the interpreter's final flush, so
# main() flushes stdout itself: a buffered CSV must reach the pipe whole.
@pytest.mark.parametrize("qx", sorted(GOLDEN.glob("*.qx")), ids=lambda p: p.stem)
def test_run_to_piped_stdout_loses_no_output(qx):
    assert _piped_stdout(["run", str(qx)]) == qx.with_suffix(".csv").read_bytes()


def test_simulate_to_piped_stdout_loses_no_output(tmp_path):
    argv = ["simulate", str(SIMULATE), "--agents", "5000", "--seed", "3"]
    out = tmp_path / "sim.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert _piped_stdout(argv) == out.read_bytes()


# fallacy_basic's CSV fits the stdout buffer, so it first fails at the final
# flush; sweep_grid's ~115 KB fill the buffer, so a write in the loop fails.
CLOSED_PIPE_FILES = [BASIC, GOLDEN / "sweep_grid.qx"]


@pytest.mark.parametrize("qx", CLOSED_PIPE_FILES, ids=lambda p: p.stem)
def test_closed_stdout_pipe_exits_1_with_one_line(qx):
    # The reader is gone before the command starts; a buffered stdout first
    # fails when it is flushed.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qopinion", "run", str(qx)],
            stdout=write, stderr=subprocess.PIPE, text=True, env=_buffered_env(),
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["[Errno 32] Broken pipe"]


@pytest.mark.parametrize("qx", CLOSED_PIPE_FILES, ids=lambda p: p.stem)
def test_closed_stdout_pipe_in_process_exits_1_with_one_line(qx):
    # main() called in process, as embedding code calls it: the embedding
    # interpreter's own exit flush must then find nothing left to fail on.
    read, write = os.pipe()
    os.close(read)
    code = f"import sys\nfrom qopinion import cli\nsys.exit(cli.main(['run', {str(qx)!r}]))"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            stdout=write, stderr=subprocess.PIPE, text=True, env=_buffered_env(),
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["[Errno 32] Broken pipe"]


def test_usage_errors_exit_1():
    code, _, err = _run(["sweep", "--theta", "0:1:4"])
    assert code == 1
    assert "usage error" in err
    code, _, _ = _run(["sweep", "--theta", "0:1", "--theta-a", "0:1:4", "--out", "/dev/null"])
    assert code == 1
    code, _, err = _run(["run", "/nonexistent/file.qx"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{dir}"],
        ["run", str(BASIC), "--out", "{dir}"],
        ["sweep", "--theta", "0:1:3", "--theta-a", "0:1:3", "--out", "{dir}"],
    ],
    ids=["run-dir", "out-dir", "sweep-out-dir"],
)
def test_unreadable_or_unwritable_path_exits_1(tmp_path, argv):
    code, out, err = _run([arg.format(dir=tmp_path) for arg in argv])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and str(tmp_path) in err


def test_non_utf8_file_exits_2_naming_the_file(tmp_path):
    bad = tmp_path / "bad.qx"
    bad.write_bytes(b"\xff\xfequestion a\n")
    for argv in (["run", str(bad)], ["simulate", str(bad), "--agents", "3", "--seed", "1"]):
        code, out, err = _run(argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"{bad}: not UTF-8 text (invalid start byte)"]


def test_parse_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.qx"
    bad.write_text("question a\nquestion b from a theta=oops\nwibble\n")
    code, _, err = _run(["run", str(bad)])
    assert code == 2
    diagnostics = [line for line in err.splitlines() if line]
    assert len(diagnostics) == 2
    assert diagnostics[0].startswith("line 2, col ")
    assert diagnostics[1].startswith("line 3, col ")


def test_validation_errors_exit_3(tmp_path):
    # Parses cleanly but the fallacy task requires a pure state.
    bad = tmp_path / "mixed.qx"
    bad.write_text(
        "question a\nquestion b from a theta=0.2\n"
        "state m mixed basis=a p1=0.5\n"
        "task fallacy state=m pair=a,b\n"
    )
    code, _, err = _run(["run", str(bad)])
    assert code == 3
    assert "pure" in err


def test_sweep_csv_and_svg(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    assert (
        main(
            [
                "sweep",
                "--theta", "0.01:1.2:3",
                "--theta-a", "0.5:2.5:4",
                "--out", str(csv_path),
                "--svg", str(svg_path),
            ]
        )
        == 0
    )
    lines = csv_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.01)
    assert float(first[1]) == pytest.approx(0.5)
    assert first[-1] in ("correlated", "uncorrelated", "anticorrelated")
    root = ET.fromstring(svg_path.read_text())
    cells = [el for el in root.iter() if el.get("class") == "cell"]
    legend = [el for el in root.iter() if el.get("class") == "legend"]
    assert len(cells) == 12
    assert len(legend) == 4
    labels = [label for _, label in heatmap._LEGEND]
    assert [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")][1:] == labels


def test_heatmap_legend_labels_need_no_escaping():
    # The SVG writes them as they are.
    for _, label in heatmap._LEGEND:
        assert escape(label, {'"': "&quot;", "'": "&apos;"}) == label


def test_sweep_accepts_pi_fraction_bounds(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--theta", "pi/8:pi/2:3", "--theta-a", "0.3:1.1:2",
                 "--out", str(csv_path)]) == 0
    rows = csv_path.read_text().splitlines()
    assert float(rows[1].split(",")[0]) == pytest.approx(0.39269908169872414)


def test_simulate_overrides_agents_and_seed(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", str(SIMULATE), "--agents", "777", "--seed", "5",
                 "--out", str(out)]) == 0
    row = out.read_text().splitlines()[2].split(",")
    assert row[3] == "777"
    assert row[4] == "5"


def test_simulate_of_ten_million_agents_keeps_its_bytes(tmp_path):
    # The run whose bytes each change to the simulation must keep: 611 chunks
    # over two processes, seed 11.
    out = tmp_path / "sim.csv"
    assert main(["simulate", str(SIMULATE), "--agents", "10000000", "--seed", "11",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "# task 0 simulate",
        "population,a,b,agents,seed,count_a1,count_b1,count_a1_then_b1,count_b1_then_a1,"
        "p_a1,p_b1,p_a1_then_b1,p_b1_then_a1",
        "crowd,a,b,10000000,11,9186108,8123934,8824018,7802924,0.91861079999999995,"
        "0.81239340000000004,0.88240180000000001,0.7802924",
    ]


def test_two_span_simulate_to_a_pipe_writes_its_output_once(tmp_path):
    # A forked worker that flushed its copy of stdout's buffer, or went on into
    # the caller's code, would write the CSV a second time.
    from qopinion import population

    argv = [sys.executable, "-m", "qopinion", "simulate", str(SIMULATE),
            "--agents", str(population._SPLIT_AGENTS + 1), "--seed", "7"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = tmp_path / "sim.csv"
    subprocess.run([*argv, "--out", str(out)], env=env, check=True)
    piped = subprocess.run(argv, env=env, capture_output=True, check=True)
    assert (piped.stdout, piped.stderr) == (out.read_bytes(), b"")


def test_simulate_requires_simulate_task():
    code, _, err = _run(["simulate", str(BASIC), "--agents", "10", "--seed", "1"])
    assert code == 3
    assert "no simulate tasks" in err


def test_run_seed_override_changes_simulation(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["run", str(SIMULATE), "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["run", str(SIMULATE), "--out", str(out_b), "--seed", "2"]) == 0
    assert out_a.read_text() != out_b.read_text()


def test_run_is_byte_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        code, _, _ = _run(["run", str(SIMULATE), "--out", str(out)])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_phi_accepts_dsl_numbers(tmp_path):
    by_name = tmp_path / "pi.csv"
    by_value = tmp_path / "value.csv"
    grid = ["--theta", "0.1:1.2:3", "--theta-a", "0.5:2.5:4"]
    assert main(["sweep", *grid, "--phi", "pi/4", "--out", str(by_name)]) == 0
    assert main(["sweep", *grid, "--phi", "0.7853981633974483", "--out", str(by_value)]) == 0
    assert by_name.read_bytes() == by_value.read_bytes()
    assert by_name.read_text().splitlines()[1].split(",")[2] == "0.78539816339744828"


def test_sweep_range_accepts_degrees(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--theta", "10deg:20deg:3", "--theta-a", "0.3:1.1:2",
                 "--out", str(csv_path)]) == 0
    thetas = [float(row.split(",")[0]) for row in csv_path.read_text().splitlines()[1::2]]
    assert thetas == pytest.approx([math.radians(10), math.radians(15), math.radians(20)])


@pytest.mark.parametrize(
    "option",
    [
        "--phi=oops", "--phi=nan", "--phi=inf", "--phi=pi/0", "--theta=0:inf:3",
        "--theta=0:1:1", "--theta=1e308:-1e308:3", "--theta=0:1:1_0",
        "--phi=1_0", "--phi= 1", "--phi=\u0663", "--theta-a=0:1_0:3",
    ],
)
def test_sweep_rejects_bad_numbers_with_usage_error(tmp_path, option):
    argv = ["sweep", "--theta", "0:1:2", "--theta-a", "0:1:2", option]
    code, _, err = _run([*argv, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert f"usage error: argument {option.split('=')[0]}: " in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", str(SIMULATE), "--agents", "1_000", "--seed", "1"],
        ["run", str(SIMULATE), "--seed", "1_0"],
    ],
)
def test_integer_options_take_plain_digits_only(tmp_path, argv):
    code, out, err = _run(argv)
    assert code == 1
    assert out == ""
    assert "malformed integer" in err


def test_simulate_negative_seed_is_a_validation_error():
    code, _, err = _run(["simulate", str(SIMULATE), "--agents", "10", "--seed", "-1"])
    assert code == 3
    assert "seed must be >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, diagnostic",
    [
        (
            "question a\nquestion b from a theta=inf\n",
            "line 2, col 25: non-finite number 'inf'",
        ),
        (
            "question a\nstate s pure basis=a theta_a=0.3\n"
            "state t pure basis=a theta_a=1.1\npopulation p = nan*s + 1.0*t\n",
            "line 4, col 16: non-finite number 'nan'",
        ),
        (
            "question a\nquestion b from a theta=0.2\n"
            "task sweep pair=a,b theta=1e308:-1e308:3 theta_a=0:1:3\n",
            "line 3, col 27: grid bounds and their difference must be finite",
        ),
    ],
)
def test_non_finite_numbers_are_parse_errors(tmp_path, text, diagnostic):
    path = tmp_path / "bad.qx"
    path.write_text(text)
    code, out, err = _run(["run", str(path)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [diagnostic]


@pytest.mark.parametrize(
    "line, diagnostic",
    [
        ("question b from a theta=1_0", "line 2, col 25: malformed number '1_0'"),
        ("state s pure basis=a theta_a=\u0663",
         "line 2, col 30: malformed number '\u0663'"),
    ],
)
def test_malformed_numbers_are_parse_errors(tmp_path, line, diagnostic):
    path = tmp_path / "bad.qx"
    path.write_text(f"question a\n{line}\n", encoding="utf-8")
    code, out, err = _run(["run", str(path)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [diagnostic]


@pytest.mark.parametrize(
    "option, value",
    [
        ("--theta", "-3.5:7:37"),
        ("--theta-a", "-pi/2:pi/2:5"),
        ("--phi", "-pi/4"),
        ("--phi", "-0.5"),
    ],
)
def test_sweep_accepts_negative_values_after_a_space(tmp_path, option, value):
    grid = {"--theta": "0.1:1.2:3", "--theta-a": "0.5:2.5:4"}
    grid.pop(option, None)
    rest = [arg for item in grid.items() for arg in item]
    outputs = []
    for form in ([option, value], [f"{option}={value}"]):
        out = tmp_path / f"{len(outputs)}.csv"
        assert main(["sweep", *rest, *form, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_option_without_value_is_a_usage_error(tmp_path):
    code, _, err = _run(["sweep", "--theta", "0:1:2", "--theta-a", "0:1:2",
                         "--out", str(tmp_path / "x.csv"), "--phi"])
    assert code == 1
    assert "expected one argument" in err


def test_sweep_pair_does_not_enter_the_output(tmp_path):
    outputs = []
    for pair in ("a,b", "b,c"):
        path = tmp_path / "pair.qx"
        path.write_text(
            "question a\nquestion b from a theta=pi/4\nquestion c from b theta=1.1 phi=0.4\n"
            f"task sweep pair={pair} theta=0.05:3.09:5 theta_a=0.05:3.09:4 phi=0.3\n"
        )
        out = tmp_path / "out.csv"
        assert main(["run", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# Simulate draws in fixed-size chunks, so no --agents value allocates beyond
# the address space; test_population checks that its memory stays bounded.
# A sweep or an uncertainty scan allocates one raster-sized array before any
# other work.
@pytest.mark.parametrize(
    "argv, text",
    [
        (["run", "{tmp}/big.qx"], "question a\nquestion b from a theta=0.3\n"
                                  "task uncertainty pair=a,b steps=100000000000000\n"),
        (["run", "{tmp}/big.qx"], "question a\nquestion b from a theta=0.3\n"
                                  "task uncertainty pair=a,b steps=100000000000000000000\n"),
        (["run", "{tmp}/big.qx"], "question a\nquestion b from a theta=0.3\n"
                                  "task sweep pair=a,b theta=0:1:100000000000000 theta_a=0:1:4\n"),
        # Every task is prepared before the output is opened, so a later
        # task's failure writes none of the earlier tasks' lines.
        (["run", "{tmp}/big.qx", "--out", "{tmp}/big.csv"],
         "question a\nquestion b from a theta=0.3\nstate s pure basis=a theta_a=0.5\n"
         "task fallacy state=s pair=a,b\n"
         "task sweep pair=a,b theta=0:1:20 theta_a=0:1:4\n"
         "task uncertainty pair=a,b steps=100000000000000\n"),
        (["sweep", "--theta", "0:1:100000000000000", "--theta-a", "0:1:4",
          "--out", "{tmp}/big.csv"], ""),
        (["sweep", "--theta", "0:1:10000000", "--theta-a", "0:1:10000000",
          "--out", "{tmp}/big.csv"], ""),
        (["sweep", "--theta", "0:1:100000000000000", "--theta-a", "0:1:100000000000000",
          "--out", "{tmp}/big.csv"], ""),
    ],
    ids=["steps", "steps-overflow", "sweep", "later-task", "sweep-option", "sweep-cells",
         "sweep-bytes-overflow"],
)
def test_allocation_beyond_the_address_space_exits_3(tmp_path, argv, text):
    # The first allocation exceeds 128 TiB (or its byte count overflows), so it
    # fails before touching memory.
    (tmp_path / "big.qx").write_text(text)
    code, out, err = _run([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 3
    assert out == ""
    assert err.startswith("out of memory: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "big.csv").exists()


def test_equal_questions_show_no_fallacy(tmp_path):
    # c is b up to eigenvector phase, composed through a tilted base, so
    # each side's interference vanishes and P(a1) = P(b1).
    qx = tmp_path / "equal.qx"
    qx.write_text(
        "question a\nquestion b from a theta=2.2 phi=0.3\n"
        "question c from b theta=0 phi=1.0\nstate s pure basis=a theta_a=0.5\n"
        "task fallacy state=s pair=b,c\n"
    )
    out = tmp_path / "out.csv"
    assert main(["run", str(qx), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()[1:]
    fields = dict(zip(header.split(","), row.split(",")))
    assert [fields[f] for f in ("fallacy_b", "fallacy_a", "reverse_b", "reverse_a")] == ["0"] * 4
    assert abs(float(fields["interference_b1"])) <= 1e-15
    assert abs(float(fields["interference_a1"])) <= 1e-15
    assert abs(float(fields["p_a1"]) - float(fields["p_b1"])) <= 1e-15
