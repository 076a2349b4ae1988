"""The scanned term carries its lexicon entry, and forward reads it there.

Each macro is looked up once, by the scan; forward translation looks up only
``\\root``, the template of ``\\sqrt[n]``.  Three goldens lock what this must
not change.  ``data/forward_golden.json`` holds the Maple and Mathematica
output and infos of every seed-corpus formula, and
``data/reverse_rules_golden.json`` the full reverse-rule table of the seed
lexicon and of the ``extended`` one.  Both were recorded while forward still
looked every macro up a second time and backward parsed call templates with
a regex of its own.  ``data/translate_generated_golden.json`` holds the same
for 2,000 generated texts, recorded before the first scan and the forward
walk became single passes: 1,100 backward renderings of seeded
``treegen.random_evaluable`` trees, then 900 seeded compositions of lexicon
macros (every ``@`` variant, a few with too few arguments), Greek letters,
constants, ``\\frac``, ``\\sqrt`` and ``\\sqrt[n]``, decimals, sub- and
superscripts, groups and ``\\left(``/``\\right)``, some with a stray
marker, an unknown macro or a relation.
"""

import json
from pathlib import Path

import pytest

from test_lexicon_sources import extended  # noqa: F401  (a fixture)
from texcas.backward import build_reverse_rules
from texcas.corpus import read_corpus
from texcas.errors import MalformedList, TexcasError
from texcas.forward import translate_forward, translate_string
from texcas.inert import INTPOS, InertForm, from_nested_list, render_maple
from texcas.lexicon import DIALECTS, Lexicon, seed_path
from texcas.scanner import scan

DATA = Path(__file__).parent / "data"
CRITERION_1 = r"\JacobiP{\alpha}{\beta}{n}@{\cos@{a\Theta}}"


def forward_row(text: str, lex) -> dict:
    """Per dialect: the output and infos of ``text``, or the error."""
    row = {}
    for dialect in DIALECTS:
        try:
            result = translate_string(text, lex, dialect)
        except TexcasError as exc:
            row[dialect] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        row[dialect] = {"output": result.output,
                        "infos": [[i.kind, i.text] for i in result.infos]}
    return row


def forward_table(lex) -> list:
    """Per seed-corpus formula and dialect: the output and infos, or the error."""
    return [{"id": record.id, **forward_row(record.semantic_latex, lex)}
            for record in read_corpus(seed_path("seed_corpus.tsv"))]


def reverse_table(lex) -> list:
    """Every reverse rule in table order: key, template and advisories."""
    return [{"function": name, "arity": arity, "template": rule.latex_template,
             "advisories": [[a.kind, a.text] for a in rule.advisories]}
            for (name, arity), rule in build_reverse_rules(lex).items()]


def read_golden(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


@pytest.fixture
def lookups(monkeypatch):
    """The names passed to ``Lexicon.lookup``, in call order."""
    names = []
    real = Lexicon.lookup

    def counting(self, name):
        names.append(name)
        return real(self, name)

    monkeypatch.setattr(Lexicon, "lookup", counting)
    return names


@pytest.mark.parametrize("dialect", sorted(DIALECTS))
def test_one_lookup_per_macro(lex, lookups, dialect):
    translate_string(CRITERION_1, lex, dialect)
    assert lookups == ["\\JacobiP", "\\alpha", "\\beta", "\\cos", "\\Theta"]


def test_a_radical_of_order_n_also_looks_up_its_template(lex, lookups):
    assert translate_string(r"\sqrt[3]{x}", lex, "maple").output == "root(x,3)"
    assert len(lookups) == 2


def test_scan_attaches_the_entry_itself(lex):
    term = scan(r"\sin@{z}", lex).children[0].term
    assert len(term.tentative_features) == 1
    assert term.tentative_features[0] is lex.lookup(r"\sin")


def test_forward_translates_with_the_scanned_entries(extended):  # noqa: F811
    result = translate_forward(scan(r"\dilog@{z}", extended), extended, "maple")
    assert result.output == "polylog(2,z)"


def test_complex_is_no_inert_tag():
    with pytest.raises(MalformedList):
        from_nested_list(["COMPLEX", ["INTPOS", 1]])
    with pytest.raises(MalformedList):
        render_maple(InertForm("COMPLEX", children=[InertForm(INTPOS, 1)]))


def test_forward_output_matches_golden(lex):
    assert forward_table(lex) == read_golden("forward_golden.json")


def test_forward_output_matches_generated_golden(lex):
    golden = read_golden("translate_generated_golden.json")
    assert [{"text": row["text"], **forward_row(row["text"], lex)}
            for row in golden] == golden


def test_reverse_rules_match_golden(lex, extended):  # noqa: F811
    assert {"seed": reverse_table(lex), "extended": reverse_table(extended)} == \
        read_golden("reverse_rules_golden.json")
