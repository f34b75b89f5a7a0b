import math
from pathlib import Path

import pytest

from qopinion import dsl
from qopinion.dsl import (
    ExperimentSyntaxError,
    MixedStateDecl,
    ParseError,
    GridRange,
    PureStateDecl,
    parse,
    render,
)

GOLDEN = sorted(Path(__file__).parent.joinpath("golden").glob("*.qx"))


def test_golden_corpus_exists():
    assert len(GOLDEN) >= 10


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
def test_round_trip_fixed_point(path):
    spec = parse(path.read_text())
    text = render(spec)
    again = parse(text)
    assert again == spec
    assert render(again) == text


def test_parse_basic_document():
    spec = parse(
        "question a\n"
        "question b from a theta=pi/4 phi=0.5\n"
        "state s pure basis=a theta_a=45deg\n"
        "state m mixed basis=b p1=0.25\n"
        "population p = 0.6*s + 0.4*m\n"
        "task fallacy state=s pair=a,b\n"
    )
    assert [q.name for q in spec.questions] == ["a", "b"]
    assert spec.questions[1].theta == pytest.approx(math.pi / 4)
    assert spec.questions[1].phi == 0.5
    s = spec.states[0]
    assert isinstance(s, PureStateDecl)
    assert s.theta_a == pytest.approx(math.pi / 4)
    assert s.phi_a == 0.0
    assert isinstance(spec.states[1], MixedStateDecl)
    assert spec.populations[0].components == ((0.6, "s"), (0.4, "m"))
    assert spec.tasks[0].kind == "fallacy"
    assert spec.tasks[0].arg("pair") == ("a", "b")


def test_numeric_forms():
    spec = parse(
        "question a\n"
        "question b from a theta=3pi/8\n"
        "question c from a theta=-pi\n"
        "question d from a theta=-90deg\n"
        "question e from a theta=1.5e-3\n"
    )
    thetas = [q.theta for q in spec.questions[1:]]
    assert thetas[0] == pytest.approx(3 * math.pi / 8)
    assert thetas[1] == pytest.approx(-math.pi)
    assert thetas[2] == pytest.approx(-math.pi / 2)
    assert thetas[3] == pytest.approx(1.5e-3)


def test_range_argument():
    spec = parse(
        "question a\nquestion b from a theta=0.2\n"
        "task sweep pair=a,b theta=0.1:pi:5 theta_a=0:1:3\n"
    )
    rng = spec.tasks[0].arg("theta")
    assert rng == GridRange(0.1, math.pi, 5)
    assert spec.tasks[0].arg("phi") == 0.0


def test_comments_and_blank_lines_ignored():
    spec = parse("\n# header\nquestion a  # trailing\n\n")
    assert len(spec.questions) == 1


def test_all_errors_collected_in_one_pass():
    bad = (
        "question a\n"
        "question a\n"            # duplicate name
        "state s pure basis=zz theta_a=0.1\n"  # unresolved basis
        "task fallacy state=s\n"  # missing pair
        "wibble 3\n"              # unknown directive
    )
    with pytest.raises(ExperimentSyntaxError) as exc:
        parse(bad)
    lines = sorted(e.line for e in exc.value.errors)
    assert lines == [2, 3, 4, 5]


def test_error_columns_point_at_offending_token():
    with pytest.raises(ExperimentSyntaxError) as exc:
        parse("question a\nquestion b from a theta=oops\n")
    (err,) = exc.value.errors
    assert err.line == 2
    # Column points at the value, just past "theta=".
    assert err.column == len("question b from a theta=") + 1
    assert "oops" in err.message
    assert str(err).startswith("line 2, col ")


def test_population_fraction_sum_checked():
    base = "question a\nstate s pure basis=a theta_a=0.1\n"
    with pytest.raises(ExperimentSyntaxError) as exc:
        parse(base + "population p = 0.6*s + 0.6*s2\n")
    assert any("unresolved" in e.message for e in exc.value.errors)
    with pytest.raises(ExperimentSyntaxError) as exc:
        parse(base + "population p = 0.6*s + 0.6*s\n")
    assert any("sum" in e.message for e in exc.value.errors)
    with pytest.raises(ExperimentSyntaxError) as exc:
        parse(base + "population p = 1.0*s +\n")
    assert any("trailing" in e.message for e in exc.value.errors)


def test_task_argument_validation():
    base = "question a\nquestion b from a theta=0.2\n"
    with pytest.raises(ExperimentSyntaxError):
        parse(base + "task sweep pair=a,b theta=0:1:1 theta_a=0:1:4\n")
    with pytest.raises(ExperimentSyntaxError):
        parse(base + "task juggle pair=a,b\n")
    with pytest.raises(ExperimentSyntaxError):
        parse(base + "task uncertainty pair=a,b steps=2.5\n")
    with pytest.raises(ExperimentSyntaxError):
        parse(base + "task uncertainty pair=a,b steps=8 steps=9\n")


def test_mixed_state_p1_bounds():
    with pytest.raises(ExperimentSyntaxError):
        parse("question a\nstate m mixed basis=a p1=1.5\n")


def test_declaration_before_use():
    with pytest.raises(ExperimentSyntaxError) as exc:
        parse("task fallacy state=s pair=a,b\nquestion a\n")
    assert exc.value.errors[0].line == 1
    # A question cannot be tilted from itself: it is not declared before use.
    with pytest.raises(ExperimentSyntaxError) as exc:
        parse("question a\nquestion b from b theta=0.2\n")
    assert [str(e) for e in exc.value.errors] == ['line 2, col 17: unresolved reference "b"']


def _mutate_each_line(text):
    """Yield (line_no, mutated_text) appending one stray token per directive."""
    lines = text.splitlines()
    for idx, line in enumerate(lines):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        mutated = lines.copy()
        mutated[idx] = line.split("#", 1)[0].rstrip() + " ~stray~"
        yield idx + 1, "\n".join(mutated) + "\n"


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
def test_injected_errors_report_correct_line(path):
    text = path.read_text()
    cases = list(_mutate_each_line(text))
    assert cases
    for line_no, mutated in cases:
        with pytest.raises(ExperimentSyntaxError) as exc:
            dsl.parse(mutated)
        assert any(e.line == line_no for e in exc.value.errors), (
            path.name,
            line_no,
            exc.value.errors,
        )


def test_parse_error_is_frozen_value():
    err = ParseError(3, 7, "boom", "snippet")
    assert str(err) == "line 3, col 7: boom"


def test_parse_number_grammar():
    assert dsl.parse_number("0.25") == 0.25
    assert dsl.parse_number("-3pi/8") == -3 * math.pi / 8
    assert dsl.parse_number("10deg") == math.radians(10)
    for tok, value in [(".5", 0.5), ("5.", 5.0), ("+1E-3", 1e-3), ("-2.5e+1", -25.0)]:
        assert dsl.parse_number(tok) == value
    for tok, reason in [
        ("oops", "malformed number"),
        # Python float() takes these; the grammar is ASCII and whole-token.
        ("1_0", "malformed number"),
        (" 1", "malformed number"),
        ("1\n", "malformed number"),
        ("\u0663", "malformed number"),  # ARABIC-INDIC DIGIT THREE
        ("\u0663pi/4", "malformed number"),
        ("pi/4\n", "malformed number"),
        ("10deg\n", "malformed number"),
        ("pi/0", "division by zero"),
        ("nan", "non-finite number"),
        ("-inf", "non-finite number"),
        ("1e999", "non-finite number"),
        ("1e999deg", "malformed number"),
    ]:
        with pytest.raises(ValueError, match=reason):
            dsl.parse_number(tok)


def test_parse_int_and_range_grammar():
    assert dsl.parse_int("-12") == -12
    assert dsl.parse_range("-pi:90deg:3") == GridRange(-math.pi, math.pi / 2, 3)
    for parse, tok, reason in [
        (dsl.parse_int, "1_000", "malformed integer"),
        (dsl.parse_int, "5.0", "malformed integer"),
        (dsl.parse_int, "7\n", "malformed integer"),
        (dsl.parse_range, "0:1", "expected START:END:STEPS"),
        (dsl.parse_range, "0:nan:3", "non-finite number"),
        (dsl.parse_range, "0:1:1_0", "malformed integer"),
        (dsl.parse_range, "0:1:1", "at least 2 steps"),
        (dsl.parse_range, "1e308:-1e308:3", "difference must be finite"),
    ]:
        with pytest.raises(ValueError, match=reason):
            parse(tok)


@pytest.mark.parametrize(
    "line",
    [
        "question b from a theta=nan",
        "question b from a theta=0.1 phi=-inf",
        "state big pure basis=a theta_a=1e400",
        "state m mixed basis=a p1=nan",
        "population p = nan*s + 1.0*s",
        "task sweep pair=a,a theta=0:inf:3 theta_a=0:1:3",
    ],
)
def test_non_finite_numbers_rejected_with_location(line):
    text = "question a\nstate s pure basis=a theta_a=0.3\n" + line + "\n"
    with pytest.raises(ExperimentSyntaxError) as info:
        parse(text)
    (err,) = info.value.errors
    assert err.line == 3
    assert "non-finite number" in err.message


# Each bad line sits at line 4, between valid lines; ``token`` is the text
# the diagnostic's column must point at.
@pytest.mark.parametrize(
    "bad, token, message",
    [
        ("  question c from zz theta=0.1  # base not declared", "zz",
         'unresolved reference "zz"'),
        ("state t pure basis=a theta_a=nope # typo", "nope", "malformed number 'nope'"),
        ("    state m mixed basis=b p1=1.5", "1.5", "p1 must lie in [0, 1], got 1.5"),
        ("population p = 0.5*s + 0.5*ghost  # ghost", "ghost", 'unresolved reference "ghost"'),
        ("\ttask fallacy state=s pair=a,zz", "a,zz", 'unresolved reference "zz"'),
        ("task sweep pair=a,b theta=0:1:1 theta_a=0:1:4  # one step", "0:1:1",
         "grid needs at least 2 steps, got 1"),
        ("  observe a  # not a directive", "observe", "unknown directive 'observe'"),
    ],
    ids=["question", "state-pure", "state-mixed", "population", "task", "task-range",
         "unknown-directive"],
)
def test_diagnostic_cites_the_raw_line_and_token(bad, token, message):
    text = (
        "question a\nquestion b from a theta=pi/4\nstate s pure basis=a theta_a=0.3\n"
        + bad + "\ntask fallacy state=s pair=a,b\n"
    )
    with pytest.raises(ExperimentSyntaxError) as info:
        parse(text)
    (err,) = info.value.errors
    assert err == ParseError(4, bad.index(token) + 1, message, bad)


@pytest.mark.parametrize(
    "line", ["state m mixed basis=a p1=-0.25", "state m mixed p1=-0.25 basis=a"]
)
def test_p1_out_of_range_points_at_its_value(line):
    with pytest.raises(ExperimentSyntaxError) as info:
        parse("question a\n" + line + "\n")
    (err,) = info.value.errors
    assert err == ParseError(2, line.index("-0.25") + 1, "p1 must lie in [0, 1], got -0.25", line)


# Characters that str.splitlines() breaks at but text-mode reading does not;
# inside a .qx line they are whitespace between tokens.
_NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize(
    "sep", _NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in _NOT_LINE_ENDS]
)
def test_only_newlines_end_a_line(sep):
    good = f"question a {sep}# note{sep}\nquestion b from a{sep}theta=0.2\n"
    spec = parse(good)
    assert spec.questions[1] == dsl.QuestionDecl("b", "a", 0.2, 0.0)
    bad = "state s pure basis=zz theta_a=0.1"
    with pytest.raises(ExperimentSyntaxError) as info:
        parse(good + bad + "\n")
    (err,) = info.value.errors
    assert err == ParseError(3, bad.index("zz") + 1, 'unresolved reference "zz"', bad)


def test_separator_inside_a_line_is_not_a_new_directive():
    with pytest.raises(ExperimentSyntaxError) as info:
        parse("question a \x85 x\n")
    (err,) = info.value.errors
    assert (err.line, err.column) == (1, len("question a \x85 x"))
    assert "unknown directive" not in err.message


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_text_mode_line_ends_count_once(end):
    bad = "state s pure basis=zz theta_a=0.1"
    text = end.join(["question a", "# comment", bad, ""])
    with pytest.raises(ExperimentSyntaxError) as info:
        parse(text)
    (err,) = info.value.errors
    assert err == ParseError(3, bad.index("zz") + 1, 'unresolved reference "zz"', bad)
