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

from texcas import backward, evaluator, forward, inert, verify
from texcas.backward import backward_string
from texcas.cli import CorpusRecord, read_corpus, run_corpus
from texcas.errors import TexcasError
from texcas.forward import translate_string
from texcas.inert import (DIVIDE, FUNCTION, INTNEG, INTPOS, POWER, PROD, SUM,
                          InertForm, parse_maple, preprocess)
from texcas.lexicon import Lexicon, load_default, seed_path
from texcas.scanner import TermKind
from texcas.verify import check_equivalence, simplify_light

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "seed_corpus_verdicts.json"


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


def _walked_nodes(tree):
    """Nodes the column walk visits: all but a call's name and argument list."""
    if tree.tag == FUNCTION:
        return 1 + sum(_walked_nodes(c) for c in tree.children[1].children)
    return 1 + sum(_walked_nodes(c) for c in tree.children)


@pytest.mark.parametrize("points", [2, 20, 64])
def test_check_equivalence_compiles_each_node_once(monkeypatch, points):
    walked = []
    real = evaluator._columns

    def counting(tree, columns, n):
        walked.append(id(tree))
        return real(tree, columns, n)

    monkeypatch.setattr(evaluator, "_columns", counting)
    monkeypatch.setattr(verify, "_columns", counting)
    lhs, rhs = parse_maple("sin(x)^2 + cos(x)^2"), parse_maple("1")
    verdict = check_equivalence(lhs, rhs, ["x"], points=points)
    assert verdict.outcome == "numeric-converged"
    assert len(verdict.samples) == points
    assert len(walked) == len(set(walked))
    assert len(walked) == _walked_nodes(verify._difference(lhs, rhs))


def _texts(name):
    return [row["text"] for row in json.loads((DATA / name).read_text(encoding="utf-8"))]


def _quotient_nodes(tree):
    """Products, DIVIDE nodes and negative integer powers: what preprocess
    turns into quotients."""
    own = tree.tag in (PROD, DIVIDE) or \
        tree.tag == POWER and tree.children[1].tag == INTNEG
    return own + sum(_quotient_nodes(c) for c in tree.children)


def test_preprocess_splits_each_quotient_node_once(monkeypatch):
    calls = []
    real = inert._parts
    monkeypatch.setattr(inert, "_parts", lambda t: calls.append(t) or real(t))
    expected = 0
    for text in _texts("maple_generated_golden.json"):
        try:
            tree = parse_maple(text)
        except TexcasError:
            continue
        expected += _quotient_nodes(tree)
        preprocess(tree)
    assert expected > 1000
    assert len(calls) == expected


def test_scripts_are_read_only_where_a_script_symbol_follows(monkeypatch, lex):
    script = (TermKind.CARET, TermKind.UNDERSCORE)
    calls = []
    real = forward._scripted

    def counting(base, children, i, ctx):
        calls.append(i < len(children) and children[i].is_leaf
                     and children[i].kind in script)
        return real(base, children, i, ctx)

    monkeypatch.setattr(forward, "_scripted", counting)
    for text, n in (("a+b", 0), ("x_a^b", 1), ("x^y^z", 2), ("x^{y^z}", 2),
                    ("\\sin@{x}^{2}+y_{1}", 2), ("x_a_b^c", 1)):
        del calls[:]
        translate_string(text, lex, "maple")
        assert len(calls) == n, text
    del calls[:]
    for text in _texts("translate_generated_golden.json"):
        try:
            translate_string(text, lex, "maple")
        except TexcasError:
            pass
    assert len(calls) > 500
    assert all(calls)


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
