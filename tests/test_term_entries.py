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
marker, an unknown macro or a relation.  Its 19 texts with an ``@`` count
that the entry does not list were recorded again when forward began to
refuse such a count.
"""

import json
import random
from pathlib import Path

import pytest

from test_lexicon_sources import extended  # noqa: F401  (a fixture)
from texcas.backward import build_reverse_rules
from texcas.corpus import read_corpus
from texcas.errors import (MalformedList, NoDirectTranslation, TexcasError,
                           TranslationError, UnknownMacro)
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


def test_a_fresh_lexicons_first_translation_makes_only_the_scans_lookups(
        lex, lookups):
    fresh = Lexicon.from_json(lex.to_json())
    del lookups[:]  # from_json's own, of \\sqrt and \\root
    assert fresh.leaf_tables is None
    result = translate_string(CRITERION_1, fresh, "maple")
    assert lookups == ["\\JacobiP", "\\alpha", "\\beta", "\\cos", "\\Theta"]
    assert set(fresh.leaf_tables) == set(DIALECTS)
    assert result == translate_string(CRITERION_1, lex, "maple")


@pytest.mark.parametrize("seed", [1, 2])
def test_the_leaf_table_fill_order_does_not_matter(lex, seed):
    golden = read_golden("translate_generated_golden.json")
    random.Random(seed).shuffle(golden)
    fresh = Lexicon.from_json(lex.to_json())
    assert [{"text": row["text"], **forward_row(row["text"], fresh)}
            for row in golden] == golden


def test_a_stored_leaf_record_is_an_immutable_value(lex):
    # every later translation shares a stored record: its item and info
    # pairs are hashable, so nothing in them can change, and a second pass
    # over the same texts neither replaces nor adds a record
    fresh = Lexicon.from_json(lex.to_json())
    texts = [row["text"] for row in read_golden("translate_generated_golden.json")]
    for text in texts:
        forward_row(text, fresh)
    stored = {dialect: dict(table) for dialect, table in fresh.leaf_tables.items()}
    for table in stored.values():
        for record in table.values():
            hash(record[1:])
    for text in texts:
        forward_row(text, fresh)
    for dialect, table in fresh.leaf_tables.items():
        assert table.keys() == stored[dialect].keys()
        assert all(table[k] is stored[dialect][k] for k in table)


def test_the_leaf_table_holds_only_the_leaves_met(lex):
    fresh = Lexicon.from_json(lex.to_json())
    translate_string(r"\alpha+x", fresh, "maple")
    table = fresh.leaf_tables["maple"]
    assert set(table) == {"\\alpha", "+", "x"}
    stored = dict(table)
    # an unknown macro, a reserved symbol and a stray marker raise wherever
    # they stand; another lexicon's entries neither displace a stored one
    # nor fill an empty slot
    for text, error in ((r"\nosuch@{x}", UnknownMacro), ("x&x", TranslationError),
                        ("x@x", TranslationError)):
        for _ in range(2):
            with pytest.raises(error):
                translate_string(text, fresh, "maple")
    translate_forward(scan(r"\alpha+\cpi", respelled(lex)), fresh, "maple")
    assert table == stored
    assert all(table[k] is stored[k] for k in stored)
    # a leaf without a template in the dialect is not stored
    doc = lex.to_json()
    del doc["builtins"]["\\idt"]["translations"]["mathematica"]
    partial = Lexicon.from_json(doc)
    for _ in range(2):
        with pytest.raises(NoDirectTranslation):
            translate_string("x*x", partial, "mathematica")
    assert set(partial.leaf_tables["mathematica"]) == {"x"}


def respelled(lex):
    """The seed lexicon with \\alpha and \\cpi spelled differently, an
    advisory on \\cpi and no constant suggested for \\alpha."""
    doc = lex.to_json()
    doc["greek"]["\\alpha"] = {"maple": "a_alpha", "mathematica": "AAlpha"}
    for record in doc["constants"]:
        if record["macro"] == "\\cpi":
            record.update(translations={"maple": "pi()", "mathematica": "PiValue"},
                          advisory="pi() is a call")
        if record["macro"] == "\\finestructure":
            record["suggest_for"] = None
    return Lexicon.from_json(doc)


ALPHA_SUGGESTION = ["constant-suggestion", "command '\\alpha' may denote the "
                    "constant \\finestructure; it is translated as a Greek letter"]
EXPE_ADVISORY = ["no-direct-translation",
                 "\\expe: Maple has no symbol for e; the workaround exp(1) is used"]
CROSS_TEXT = r"\cpi\alpha + \expe^{x}"
# recorded before forward kept a leaf table: templates and advisories come
# from the entries the scan attached, suggestions from the translating lexicon
CROSS = {
    ("seed", "respelled"): {
        "maple": {"output": "Pi*alpha+exp(1)^x", "infos": [EXPE_ADVISORY]},
        "mathematica": {"output": "Pi \\[Alpha]+E^x", "infos": [EXPE_ADVISORY]}},
    ("respelled", "seed"): {
        "maple": {"output": "pi()*a_alpha+exp(1)^x", "infos": [
            ["no-direct-translation", "\\cpi: pi() is a call"],
            ALPHA_SUGGESTION, EXPE_ADVISORY]},
        "mathematica": {"output": "PiValue AAlpha+E^x", "infos": [
            ["no-direct-translation", "\\cpi: pi() is a call"],
            ALPHA_SUGGESTION, EXPE_ADVISORY]}},
}


@pytest.mark.parametrize("scanned, translated", sorted(CROSS))
def test_a_tree_scanned_with_another_lexicon_keeps_its_entries(
        lex, scanned, translated):
    lexicons = {"seed": lex, "respelled": respelled(lex)}
    for name in (translated, scanned):  # each lexicon's tables built first
        translate_string(CROSS_TEXT, lexicons[name], "maple")
    tree = scan(CROSS_TEXT, lexicons[scanned])
    row = {}
    for dialect in DIALECTS:
        result = translate_forward(tree, lexicons[translated], dialect)
        row[dialect] = {"output": result.output,
                        "infos": [[i.kind, i.text] for i in result.infos]}
    assert row == CROSS[scanned, translated]


def test_a_function_macros_info_pairs_are_stored_for_its_own_entry(lex):
    fresh = Lexicon.from_json(lex.to_json())
    doc = lex.to_json()
    doc["entries"]["\\sin"]["dlmf_link"] = "http://dlmf.nist.gov/4.14"
    other = Lexicon.from_json(doc)
    pairs = (("dlmf-link", "\\sin: http://dlmf.nist.gov/4.14#E1"),)
    result = translate_string(r"\sin@{x}+\sin@{y}", fresh, "maple")
    assert [(i.kind, i.text) for i in result.infos] == list(pairs)
    # formatted once, stored without an item: the macro's arguments vary
    assert fresh.leaf_tables["maple"]["\\sin"] == (fresh.lookup("\\sin"), None, pairs)
    # a term of another lexicon's entry gets that entry's pairs, unstored
    result = translate_forward(scan(r"\sin@{x}", other), fresh, "maple")
    assert [(i.kind, i.text) for i in result.infos] == \
        [("dlmf-link", "\\sin: http://dlmf.nist.gov/4.14")]
    assert fresh.leaf_tables["maple"]["\\sin"][2] == pairs


def test_a_macro_the_scan_did_not_know_stays_unknown(lex):
    doc = lex.to_json()
    doc["constants"] = [c for c in doc["constants"] if c["macro"] != "\\cpi"]
    tree = scan(CROSS_TEXT, Lexicon.from_json(doc))
    translate_string(CROSS_TEXT, lex, "maple")  # lex's tables hold \\cpi
    with pytest.raises(UnknownMacro, match=r"\\cpi"):
        translate_forward(tree, lex, "maple")


def test_a_leaf_without_a_template_is_refused_where_it_stands(lex):
    doc = lex.to_json()
    del doc["builtins"]["\\idt"]["translations"]["mathematica"]
    for record in doc["constants"]:
        if record["macro"] == "\\EulerConstant":
            del record["translations"]["mathematica"]
    partial = Lexicon.from_json(doc)
    for text in ("a*b", r"a\idt b", "2x", r"\EulerConstant"):
        with pytest.raises(NoDirectTranslation):
            translate_string(text, partial, "mathematica")
    assert [translate_string(text, partial, "maple").output
            for text in ("a*b", r"a\idt b", "2x", r"\EulerConstant")] == \
        ["a*b", "a*b", "2*x", "gamma"]
    assert translate_string("a+b", partial, "mathematica").output == "a+b"


def test_scan_attaches_the_entry_itself(lex):
    term = scan(r"\sin@{z}", lex).children[0]
    assert term.entry is lex.lookup(r"\sin")


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
