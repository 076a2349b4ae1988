"""The corpus pipeline: the report bytes are locked against a golden file, and
a record is a relation exactly when its Maple text parses to ``=`` at the root.

``data/corpus_report_golden.jsonl`` holds what ``texcas corpus --report``
wrote before the pipeline moved out of the CLI: the report of the seed corpus
and then its stats line on stdout, followed by the same two for the
ten-record corpus of ``test_cli.TestCorpus``.
"""

import json
from pathlib import Path

import pytest

import test_cli
from texcas import inert, verify
from texcas.cli import EXIT_OK, main
from texcas.corpus import CorpusRecord, read_corpus, run_corpus
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


def test_each_relation_walks_its_names_once(lex, monkeypatch):
    # the names are collected by the residue walk alone, one walk per
    # relation: a call from outside the walk starts a new one
    walks, depth = [], 0
    real_residue = verify._residue

    def residue(tree, names):
        nonlocal depth
        if not depth:
            walks.append(names)
        depth += 1
        try:
            return real_residue(tree, names)
        finally:
            depth -= 1
    monkeypatch.setattr(verify, "_residue", residue)
    stats, log = run_corpus(read_corpus(seed_path("seed_corpus.tsv")), lex)
    checked = [e for e in log if "outcome" in e]
    assert len(walks) == len(checked) == stats.total > 30
    assert len({id(names) for names in walks}) == len(walks)


@pytest.mark.parametrize("latex, reason", [
    # a overflows at every point, and degree 0 never reads it: no point is
    # finite, although JacobiP of degree 0 is 1 whatever a is
    (r"\JacobiP{\cos@{\frac{P}{\tan@{\cpi}}}\idt 0.00066}{j}{0}@{\ln@@{j}} = 1",
     "no finite evaluation point"),
    (r"\JacobiP{0}{0}{100000}@{z} = \JacobiP{0}{0}{100000}@{z}+0.0",
     "no numeric evaluator for JacobiP of degree above 1000")],
    ids=["failed-argument", "degree-above-bound"])
def test_an_unevaluated_jacobi_leaves_its_relation_inconclusive(latex, reason, lex):
    _, log = run_corpus([CorpusRecord("r", latex)], lex)
    assert log[0]["outcome"] == "inconclusive"
    assert log[0]["classification"] == "translated-unverified"
    assert log[0]["reason"] == reason


def test_a_point_whose_modulus_overflows_is_skipped(tmp_path, capsys):
    # the difference is finite at 12 of the 20 points, and at 4 of them its
    # modulus passes the double range: those are skipped, not a traceback
    corpus = tmp_path / "overflow.tsv"
    corpus.write_text("big\t10^{308} (1 + \\iunit) x = 0\n", encoding="utf-8")
    report = tmp_path / "report.jsonl"
    assert main(["corpus", str(corpus), "--report", str(report)]) == EXIT_OK
    header, entry = map(json.loads, report.read_text(encoding="utf-8").splitlines())
    assert entry["maple"] == "10^308*(1+I)*x = 0"
    assert entry["outcome"] == "numeric-mismatch"
    assert entry["classification"] == "translated-unverified"
    assert entry["max_abs_difference"] == 1.5152194818475313e+308
    assert json.loads(capsys.readouterr().out)["translated_unverified"] == 1
