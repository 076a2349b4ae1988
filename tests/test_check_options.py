"""A tolerance or point count with which the numeric check decides nothing is
refused, by the library and by ``texcas corpus``, before any record runs; so
is a round trip too short to reach a fixed point, or from a side it does not
translate from."""

import json
import math

import pytest

from texcas import cli
from texcas.corpus import CorpusRecord, run_corpus
from texcas.errors import CheckOptionError
from texcas.inert import parse_maple
from texcas.verify import SEMANTIC_LATEX, check_equivalence, round_trip

BAD_TOLERANCES = [math.nan, math.inf, -math.inf, 0.0, -1.0]
BAD_POINTS = [0, -5]

# two relations that are false: a check that passes either decides nothing
FALSE_RELATIONS = ["sin-cos\t\\sin@{z} = \\cos@{z}", "plus-one\tz + 1 = z + 2"]


@pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
def test_check_equivalence_refuses_the_tolerance(tolerance):
    with pytest.raises(CheckOptionError, match="tolerance must be finite and > 0"):
        check_equivalence(parse_maple("sin(z)"), parse_maple("cos(z)"), ["z"],
                          tolerance=tolerance)


@pytest.mark.parametrize("points", BAD_POINTS)
def test_check_equivalence_refuses_the_point_count(points):
    with pytest.raises(CheckOptionError, match="points must be at least 1"):
        check_equivalence(parse_maple("sin(z)"), parse_maple("cos(z)"), ["z"],
                          points=points)


def test_a_symbolic_zero_does_not_hide_a_bad_option():
    with pytest.raises(CheckOptionError):
        check_equivalence(parse_maple("z"), parse_maple("z"), ["z"], points=0)


def test_the_smallest_valid_options_still_check():
    verdict = check_equivalence(parse_maple("sin(z)"), parse_maple("cos(z)"),
                                ["z"], tolerance=5e-324, points=1)
    assert verdict.outcome == "numeric-mismatch"
    assert len(verdict.samples) == 2


@pytest.mark.parametrize("option", [{"tolerance": t} for t in BAD_TOLERANCES]
                         + [{"points": p} for p in BAD_POINTS])
def test_run_corpus_refuses_before_its_first_record(lex, option):
    records = [CorpusRecord(*line.split("\t")) for line in FALSE_RELATIONS]
    with pytest.raises(CheckOptionError):
        run_corpus(records, lex, **option)
    with pytest.raises(CheckOptionError):
        run_corpus([], lex, **option)


@pytest.fixture
def false_corpus(tmp_path):
    path = tmp_path / "false.tsv"
    path.write_text("".join(line + "\n" for line in FALSE_RELATIONS), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [["--tolerance", t] for t in ("nan", "inf", "0", "-1")]
                         + [["--points", p] for p in ("0", "-5")])
def test_cli_prints_one_error_line(false_corpus, capsys, argv):
    code = cli.main(["corpus", false_corpus, *argv])
    assert code == next(c for kinds, c in cli.EXIT_CODES
                        if issubclass(CheckOptionError, kinds))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


def test_cli_options_left_out_are_run_corpus_defaults(false_corpus, capsys):
    assert cli.main(["corpus", false_corpus]) == cli.EXIT_OK
    default = capsys.readouterr().out
    assert json.loads(default)["translated_unverified"] == 2
    argv = ["--tolerance", "1e-10", "--points", "20", "--seed", "0"]
    assert cli.main(["corpus", false_corpus, *argv]) == cli.EXIT_OK
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("max_steps", [0, 2, 3])
def test_round_trip_needs_three_steps(lex, capsys, max_steps):
    # a fixed point repeats the text two steps back, so it takes three texts
    argv = ["roundtrip", "--max-steps", str(max_steps), "1+x"]
    if max_steps < 3:
        with pytest.raises(CheckOptionError, match="max_steps must be at least 3"):
            round_trip("1+x", SEMANTIC_LATEX, lex, max_steps=max_steps)
        assert cli.main(argv) == next(c for kinds, c in cli.EXIT_CODES
                                      if issubclass(CheckOptionError, kinds))
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        return
    report = round_trip("1+x", SEMANTIC_LATEX, lex, max_steps=max_steps)
    assert report.fixed_point_reached
    assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("side", ["latex", "mathematica", None])
def test_round_trip_needs_a_side_it_translates_from(lex, side):
    # a side that is neither would run backward and label each step with it
    with pytest.raises(CheckOptionError, match="start_side must be"):
        round_trip("x+1", side, lex)
