"""The lexicon data files are the only source of lexicon facts.

No module names a macro, constant or Greek letter from the data files, and a
new macro, constant suggestion or Greek letter needs only data edits.
"""

import ast
import csv
import json
import re
from pathlib import Path

import pytest

import texcas
from texcas.backward import backward_string
from texcas.errors import (NoDirectTranslation, PlaceholderOutOfRange,
                           SchemaError, UnknownFunction)
from texcas.forward import translate_string
from texcas.lexicon import (CSV_COLUMNS, Lexicon, compile_lexicon,
                            compile_macro_csv, load_default)
from texcas.scanner import TermKind, scan

PACKAGE = Path(texcas.__file__).parent
DATA = PACKAGE / "data"


def lexicon_names(data: Path) -> set:
    """Macro, constant and Greek names of the data files, and suggest_for values."""
    with open(data / "macros.csv", encoding="utf-8", newline="") as fh:
        names = {row["macro"] for row in csv.DictReader(fh)}
    constants = json.loads((data / "constants.json").read_text(encoding="utf-8"))
    names |= set(constants)
    names |= {c["suggest_for"] for c in constants.values() if "suggest_for" in c}
    names |= set(json.loads((data / "greek.json").read_text(encoding="utf-8")))
    return names


def _docstrings(tree: ast.AST) -> set:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
    return ids


def named_lexicon_facts(package: Path) -> list:
    """(file, line, name) for every non-docstring string literal naming one."""
    # a command name ends where its letters end: \pi does not match \pitch
    pattern = re.compile("|".join(re.escape(n) + "(?![A-Za-z])"
                                  for n in sorted(lexicon_names(package / "data"))))
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in docs:
                found += [(path.name, node.lineno, m.group())
                          for m in pattern.finditer(node.value)]
    return found


def test_no_module_names_a_lexicon_fact():
    assert named_lexicon_facts(PACKAGE) == []


def test_guard_sees_names_in_code(tmp_path):
    (tmp_path / "data").mkdir()
    for name in ("macros.csv", "constants.json", "greek.json"):
        (tmp_path / "data" / name).write_bytes((DATA / name).read_bytes())
    (tmp_path / "mod.py").write_text(
        '"""Mentions \\\\cpi in a docstring."""\n'
        'X = "\\\\EllIntF@{\\\\asin@{$0}}{$1}"\n'
        'Y = "\\\\pitch \\\\frac"\n', encoding="utf-8")
    assert [n for _, _, n in named_lexicon_facts(tmp_path)] == ["\\EllIntF", "\\asin"]


# --- extension by data alone --------------------------------------------------------

DILOG_ROW = ('\\dilog,0,1,1,http://dlmf.nist.gov/25.12#E1,"polylog(2,$0)",'
             '"PolyLog[2,$0]",,\\dilog@{$1}\n')


@pytest.fixture
def extended(tmp_path):
    """The seed sources plus a macro with a non-call Maple pattern and a reverse
    template, a constant with a suggestion, and a new Greek letter."""
    macros = tmp_path / "macros.csv"
    macros.write_text((DATA / "macros.csv").read_text(encoding="utf-8") + DILOG_ROW,
                      encoding="utf-8")
    constants = json.loads((DATA / "constants.json").read_text(encoding="utf-8"))
    constants["\\GoldenRatio"] = {"maple": "(1+sqrt(5))/2",
                                  "mathematica": "GoldenRatio",
                                  "suggest_for": "\\varphi"}
    greek = json.loads((DATA / "greek.json").read_text(encoding="utf-8"))
    greek["\\digamma"] = {"maple": "digamma", "mathematica": "\\[Digamma]"}
    paths = [macros]
    for name, doc in (("constants.json", constants), ("greek.json", greek)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        paths.append(tmp_path / name)
    return compile_lexicon(*paths, DATA / "builtins.json")


def test_new_macro_translates_both_ways(extended, lex):
    assert translate_string("\\dilog@{z}", extended, "maple").output == "polylog(2,z)"
    assert translate_string("\\dilog@{z}", extended, "mathematica").output == \
        "PolyLog[2,z]"
    assert backward_string("polylog(2, z)", extended).output == "\\dilog@{z}"
    with pytest.raises(UnknownFunction):
        backward_string("polylog(2, z)", lex)


def test_new_greek_letter_is_scanned_and_translated(extended, lex):
    assert scan("\\digamma", extended).children[0].term.kind is \
        TermKind.GREEK_LETTER_COMMAND
    assert scan("\\digamma", lex).children[0].term.kind is TermKind.MACRO_COMMAND
    assert translate_string("\\digamma", extended, "maple").output == "digamma"
    assert translate_string("\\digamma", extended, "mathematica").output == \
        "\\[Digamma]"
    assert backward_string("digamma", extended).output == "\\digamma"


def test_new_constant_suggestion(extended, lex):
    assert extended.command_suggestions["\\varphi"] == "\\GoldenRatio"
    result = translate_string("\\varphi", extended, "maple")
    assert result.output == "varphi"
    assert any(i.kind == "constant-suggestion" and "\\GoldenRatio" in i.text
               for i in result.infos)
    assert not translate_string("\\varphi", lex, "maple").infos
    assert translate_string("\\GoldenRatio", extended, "maple").output == \
        "(1+sqrt(5))/2"


def test_idt_renders_its_lexicon_template(lex, tmp_path):
    builtins = json.loads((DATA / "builtins.json").read_text(encoding="utf-8"))
    builtins["\\idt"]["mathematica"] = "*"
    path = tmp_path / "builtins.json"
    path.write_text(json.dumps(builtins), encoding="utf-8")
    starred = compile_lexicon(DATA / "macros.csv", DATA / "constants.json",
                              DATA / "greek.json", path)
    assert translate_string("a\\idt b", starred, "mathematica").output == "a*b"
    assert translate_string("a\\idt b", lex, "mathematica").output == "a b"


def with_builtins(tmp_path, edit):
    """The seed lexicon with its builtins.json changed by ``edit``."""
    builtins = json.loads((DATA / "builtins.json").read_text(encoding="utf-8"))
    edit(builtins)
    path = tmp_path / "builtins.json"
    path.write_text(json.dumps(builtins), encoding="utf-8")
    return compile_lexicon(DATA / "macros.csv", DATA / "constants.json",
                           DATA / "greek.json", path)


def test_frac_renders_its_lexicon_template(lex, tmp_path):
    divide = with_builtins(tmp_path, lambda b: b["\\frac"].update(
        maple="divide($0,$1)"))
    assert translate_string("\\frac{a}{b}", divide, "maple").output == \
        "divide(a,b)"
    assert translate_string("\\frac{a}{b}", lex, "maple").output == "a/b"


def test_every_product_renders_the_idt_template(lex, tmp_path):
    starred = with_builtins(tmp_path, lambda b: b["\\idt"].update(
        mathematica="*"))
    for text in ("a b", "a*b"):
        assert translate_string(text, starred, "mathematica").output == "a*b"
        assert translate_string(text, lex, "mathematica").output == "a b"


def test_a_product_needs_the_idt_entry(tmp_path):
    bare = with_builtins(tmp_path, lambda b: b.pop("\\idt"))
    assert translate_string("a+b", bare, "maple").output == "a+b"
    for text in ("a b", "a*b"):
        with pytest.raises(NoDirectTranslation) as exc:
            translate_string(text, bare, "maple")
        assert exc.value.macro == "\\idt"


# --- older sources and compiled lexicons ---------------------------------------------

def test_eight_column_header_still_compiles(tmp_path):
    path = tmp_path / "macros.csv"
    path.write_text(",".join(CSV_COLUMNS[:-1]) + "\n"
                    "\\sin,0,1,1,,sin($0),Sin[$0],\n", encoding="utf-8")
    assert compile_macro_csv(path)["\\sin"].reverse is None


def test_row_without_trailing_reverse_cell_compiles(tmp_path):
    path = tmp_path / "macros.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n"
                    "\\sin,0,1,1,,sin($0),Sin[$0],\n"
                    + DILOG_ROW, encoding="utf-8")
    entries = compile_macro_csv(path)
    assert entries["\\sin"].reverse is None
    assert entries["\\dilog"].reverse == "\\dilog@{$1}"


def test_reverse_needs_a_maple_call(tmp_path):
    path = tmp_path / "macros.csv"
    # a quotient, and a product whose outer parentheses close two calls
    for row in ("\\half,0,1,1,,($0)/2,($0)/2,,\\half@{$0}\n",
                "\\fg,0,2,1,,f($0)*g($1),,,\\fg@{$0}{$1}\n"):
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row, encoding="utf-8")
        with pytest.raises(SchemaError):
            compile_macro_csv(path)


def test_reverse_placeholders_index_the_maple_call(tmp_path):
    path = tmp_path / "macros.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n"
                    "\\dilog,0,1,1,,\"polylog(2,$0)\",,,\\dilog@{$2}\n",
                    encoding="utf-8")
    with pytest.raises(PlaceholderOutOfRange) as exc:
        compile_macro_csv(path)
    assert exc.value.index == 2


def test_saved_lexicon_keeps_reverse_and_suggestions(lex, tmp_path):
    path = tmp_path / "compiled.json"
    lex.save(path)
    reloaded = Lexicon.load(path)
    assert backward_string("root(x,5)", reloaded).output == "\\sqrt[5]{x}"
    assert backward_string("EllipticF(z,k)", reloaded).output == \
        backward_string("EllipticF(z,k)", lex).output
    assert reloaded.command_suggestions["\\pi"] == "\\cpi"


def test_lexicon_json_without_new_keys_loads(lex):
    doc = lex.to_json()
    for table in (doc["entries"], doc["builtins"]):
        for entry in table.values():
            del entry["reverse"]
    for constant in doc["constants"]:
        del constant["suggest_for"]
    old = Lexicon.from_json(doc)
    assert old.lookup("\\root").reverse is None
    assert old.command_suggestions == {}
    assert translate_string("\\sin@{z}", old, "maple").output == "sin(z)"


def test_each_lexicon_keeps_its_own_reverse_rules(extended, lex, tmp_path):
    """Reverse rules are built once per Lexicon: interleaved use leaks none."""
    doc = lex.to_json()
    for table in (doc["entries"], doc["builtins"]):
        for entry in table.values():
            del entry["reverse"]
    path = tmp_path / "compiled.json"
    Lexicon.from_json(doc).save(path)
    reloaded = Lexicon.load(path)
    for _ in range(3):
        assert backward_string("polylog(2, z)", extended).output == "\\dilog@{z}"
        with pytest.raises(UnknownFunction):
            backward_string("polylog(2, z)", load_default())
        assert backward_string("root(x,5)", reloaded).output == "\\root{x}{5}"
        assert backward_string("root(x,5)", load_default()).output == \
            "\\sqrt[5]{x}"
        with pytest.raises(UnknownFunction):
            backward_string("EllipticF(z,k)", reloaded)
        assert backward_string("digamma", extended).output == "\\digamma"
        assert backward_string("digamma", load_default()).output == "digamma"
    assert len({id(x.reverse_tables) for x in (extended, reloaded, lex)}) == 3
