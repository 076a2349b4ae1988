"""The corpus pipeline: the report bytes are locked against a golden file, and
a record is a relation exactly when its Maple text parses to ``=`` at the root.

``data/corpus_report_golden.jsonl`` holds what ``texcas corpus --report``
wrote before the pipeline moved out of the CLI: the report of the seed corpus
and then its stats line on stdout, followed by the same two for the
ten-record corpus of ``test_cli.TestCorpus``.
"""

from pathlib import Path

import pytest

import test_cli
from texcas import inert
from texcas.cli import EXIT_OK, main
from texcas.corpus import CorpusRecord, run_corpus
from texcas.lexicon import seed_path

GOLDEN = Path(__file__).parent / "data" / "corpus_report_golden.jsonl"


def corpus_output(tmp_path, capsys) -> bytes:
    ten = tmp_path / "ten.tsv"
    ten.write_text("".join(line + "\n" for line in test_cli.TestCorpus.TEN_RECORDS),
                   encoding="utf-8")
    out = b""
    for corpus in (seed_path("seed_corpus.tsv"), ten):
        report = tmp_path / "report.jsonl"
        assert main(["corpus", str(corpus), "--report", str(report)]) == EXIT_OK
        out += report.read_bytes() + capsys.readouterr().out.encode("utf-8")
    return out


def test_report_matches_golden(tmp_path, capsys):
    assert corpus_output(tmp_path, capsys) == GOLDEN.read_bytes()


@pytest.mark.parametrize("latex, classification", [
    (r"\sin@{z} = \cos@{z}", "translated-unverified"),
    (r"\sin@{z=1}", "ignored"),        # the '=' is nested in a call
    (r"\sin@{z}", "ignored"),
    ("a = b = c", "errored"),          # the parser reads one '=' at most
    (r"\sin@{z} < 1", "errored"),      # the parser has no '<'
    (r"\left(z = z\right)", "verified"),
], ids=["relation", "nested-equals", "no-equals", "two-equals", "less-than",
        "parenthesised-relation"])
def test_relation_is_an_equation_at_the_root(latex, classification, lex):
    stats, log = run_corpus([CorpusRecord("r", latex)], lex)
    assert log[0]["classification"] == classification
    assert stats.as_dict()[classification.replace("-", "_")] == 1
    if classification == "ignored":
        assert log[0]["reason"] == "not a relation"
    if classification == "errored":
        assert log[0]["error"].startswith("syntax error at position 6")


def test_each_relation_is_parsed_once(lex, monkeypatch):
    parsed = []
    real = inert.parse_maple
    monkeypatch.setattr(inert, "parse_maple",
                        lambda text: parsed.append(text) or real(text))
    run_corpus([CorpusRecord("r", r"\sin@{z}^{2}+\cos@{z}^{2} = 1")], lex)
    assert parsed == ["sin(z)^2+cos(z)^2 = 1"]

