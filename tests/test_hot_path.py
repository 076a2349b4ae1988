"""Per-relation and per-lexicon work is done once, with unchanged results.

Work counts are exact and untimed.  The golden verdicts of the seed corpus
(``data/seed_corpus_verdicts.json``) were recorded with the recursive
evaluator and the text canonical key, before tree compilation and the tuple
key replaced them: classification, outcome and ``max_abs_difference`` must
match bit for bit.
"""

import json
from pathlib import Path

import pytest

from texcas import backward, evaluator, verify
from texcas.backward import backward_string
from texcas.cli import CorpusRecord, read_corpus, run_corpus
from texcas.inert import FUNCTION, INTPOS, POWER, SUM, InertForm, parse_maple
from texcas.lexicon import Lexicon, load_default, seed_path
from texcas.verify import check_equivalence, simplify_light

GOLDEN = Path(__file__).parent / "data" / "seed_corpus_verdicts.json"


def test_seed_corpus_verdicts_match_golden(lex):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    _, log = run_corpus(read_corpus(seed_path("seed_corpus.tsv")), lex)
    fields = ("id", "classification", "outcome", "max_abs_difference")
    assert [{k: e[k] for k in fields if k in e} for e in log] == golden


# --- work counts ------------------------------------------------------------------

def test_reverse_rules_are_built_once_per_lexicon(monkeypatch):
    built = []
    real = backward.build_reverse_rules
    monkeypatch.setattr(backward, "build_reverse_rules",
                        lambda lex: built.append(lex) or real(lex))
    fresh = Lexicon.from_json(load_default().to_json())
    outputs = {backward_string("JacobiP(n, a, b, sin(x)) + Pi", fresh).output
               for _ in range(100)}
    assert built == [fresh]
    assert outputs == {"\\JacobiP{a}{b}{n}@{\\sin@{x}}+\\cpi"}


def _compiled_nodes(tree):
    """Nodes compile_tree visits: all but a call's name and argument list."""
    if tree.tag == FUNCTION:
        return 1 + sum(_compiled_nodes(c) for c in tree.children[1].children)
    return 1 + sum(_compiled_nodes(c) for c in tree.children)


@pytest.mark.parametrize("points", [2, 20, 64])
def test_check_equivalence_compiles_each_node_once(monkeypatch, points):
    compiled = []
    real = evaluator.compile_tree

    def counting(tree):
        compiled.append(id(tree))
        return real(tree)

    monkeypatch.setattr(evaluator, "compile_tree", counting)
    monkeypatch.setattr(verify, "compile_tree", counting)
    lhs, rhs = parse_maple("sin(x)^2 + cos(x)^2"), parse_maple("1")
    verdict = check_equivalence(lhs, rhs, ["x"], points=points)
    assert verdict.outcome == "numeric-converged"
    assert len(verdict.samples) == points
    assert len(compiled) == len(set(compiled))
    assert len(compiled) == _compiled_nodes(verify._difference(lhs, rhs))


# --- integer-power folding ---------------------------------------------------------

def test_huge_integer_power_relation_returns_a_record(lex):
    _, log = run_corpus([CorpusRecord("huge", "\\sin@{5^{12^{4}}} x = x")], lex)
    assert log[0]["classification"] == "translated-unverified"
    assert log[0]["outcome"] == "inconclusive"


def test_integer_power_folds_up_to_the_bit_bound():
    # 5^20736 has about 48k bits: folded as before
    assert simplify_light(parse_maple("5^(12^4)")) == InertForm(INTPOS, 5 ** 20736)


def test_integer_power_past_the_bit_bound_is_kept():
    # were the guard broken, this would build a 1.25 MB integer, not a tower
    kept = simplify_light(parse_maple("2^(10^7)"))
    assert kept == InertForm(POWER, children=[InertForm(INTPOS, 2),
                                              InertForm(INTPOS, 10 ** 7)])


def test_collection_keeps_signed_float_zeros_apart():
    # their texts differed, so the text key never collected them
    simplified = simplify_light(parse_maple("0.0*x + (-0.0)*x"))
    assert simplified.tag == SUM and len(simplified.children) == 2
