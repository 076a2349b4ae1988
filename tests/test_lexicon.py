"""Lexicon compilation, validation, and persistence tests."""

import json
from pathlib import Path

import pytest

from texcas import cli
from texcas.errors import DuplicateMacro, PlaceholderOutOfRange, SchemaError
from texcas.lexicon import (CSV_COLUMNS, DIALECTS, Lexicon, compile_lexicon,
                            compile_macro_csv, load_default, seed_path)

HEADER = ",".join(CSV_COLUMNS)


def write_csv(tmp_path, rows):
    path = tmp_path / "macros.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def compile_with(tmp_path, rows, constants=None, greek=None, builtins=None):
    return compile_lexicon(
        write_csv(tmp_path, rows),
        write_json(tmp_path, "constants.json", constants or {}),
        write_json(tmp_path, "greek.json", greek or {}),
        write_json(tmp_path, "builtins.json", builtins or {}),
    )


class TestSeedLexicon:
    def test_seed_compiles_with_expected_coverage(self, lex):
        for name in ("\\sin", "\\cos", "\\asin", "\\JacobiP", "\\BesselK",
                     "\\EllIntF", "\\frac", "\\sqrt", "\\iunit", "\\expe",
                     "\\CatalansConstant", "\\cpi", "\\idt", "\\alpha",
                     "\\Theta", "\\EulerConstant"):
            assert lex.lookup(name) is not None, name

    def test_sin_entry_fields(self, lex):
        entry = lex.lookup("\\sin")
        assert entry.num_params == 0 and entry.num_vars == 1
        assert entry.at_variants == frozenset({1, 2})
        assert entry.translations["maple"] == "sin($0)"
        assert entry.translations["mathematica"] == "Sin[$0]"
        assert "dlmf.nist.gov" in entry.dlmf_link

    def test_jacobi_reorders_arguments(self, lex):
        entry = lex.lookup("\\JacobiP")
        assert entry.num_params == 3 and entry.num_vars == 1
        assert entry.translations["maple"] == "JacobiP($2,$0,$1,$3)"

    def test_frac_builtin_pattern(self, lex):
        entry = lex.lookup("\\frac")
        assert entry.translations["maple"] == "($0)/($1)"

    def test_absent_name_is_none(self, lex):
        assert lex.lookup("\\nosuchmacro") is None

    def test_constant_entries_have_zero_arity(self, lex):
        for record in lex.constants:
            entry = lex.lookup(record.semantic_macro)
            assert entry.num_params == 0 and entry.num_vars == 0

    def test_letter_and_command_suggestions(self, lex):
        assert lex.letter_suggestions == {"i": "\\iunit", "e": "\\expe",
                                          "C": "\\CatalansConstant"}
        assert lex.command_suggestions["\\pi"] == "\\cpi"
        assert lex.command_suggestions["\\alpha"] == "\\finestructure"

    def test_finestructure_is_advisory_only(self, lex):
        entry = lex.lookup("\\finestructure")
        assert entry.translations == {}


class TestCompileErrors:
    def test_placeholder_out_of_range(self, tmp_path):
        path = write_csv(tmp_path, [r"\cos,0,1,1,,cos($0),Cos[$0],",
                                    r"\sin,0,1,1,,sin($1),Sin[$1],"])
        with pytest.raises(PlaceholderOutOfRange) as exc:
            compile_macro_csv(path)
        assert exc.value.index == 1
        assert str(exc.value) == \
            f"{path}:3: \\sin: placeholder $1 exceeds declared arity"

    def test_duplicate_macro(self, tmp_path):
        path = write_csv(tmp_path, [r"\sin,0,1,1,,sin($0),Sin[$0],",
                                    r"\sin,0,1,1,,sin($0),Sin[$0],"])
        with pytest.raises(DuplicateMacro) as exc:
            compile_macro_csv(path)
        assert str(exc.value) == f"{path}:3: duplicate macro \\sin"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "macros.csv"
        path.write_text("name,arity\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            compile_macro_csv(path)

    def test_non_integer_arity(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            compile_macro_csv(write_csv(
                tmp_path, [r"\sin,zero,1,1,,sin($0),Sin[$0],"]))
        assert exc.value.line == 2

    def test_missing_backslash(self, tmp_path):
        with pytest.raises(SchemaError):
            compile_macro_csv(write_csv(tmp_path, ["sin,0,1,1,,sin($0),Sin[$0],"]))

    def test_unknown_advisory_kind(self, tmp_path):
        with pytest.raises(SchemaError):
            compile_macro_csv(write_csv(
                tmp_path, [r"\sin,0,1,1,,sin($0),Sin[$0],bogus:text"]))

    def test_bad_at_variants(self, tmp_path):
        with pytest.raises(SchemaError):
            compile_macro_csv(write_csv(
                tmp_path, [r"\sin,0,1,7,,sin($0),Sin[$0],"]))

    def test_bad_constant_alias(self, tmp_path):
        # an alias outside i, e, C, and an advisory that is not text
        for extra in ({"alias": "p"}, {"advisory": 5}):
            with pytest.raises(SchemaError):
                compile_with(tmp_path, [],
                             constants={"\\cpi": {"maple": "Pi", **extra}})

    def test_greek_missing_dialect(self, tmp_path):
        with pytest.raises(SchemaError):
            compile_with(tmp_path, [], greek={"\\alpha": {"maple": "alpha"}})


class TestCompileBehaviour:
    def test_empty_csv_with_header_gives_empty_entries(self, tmp_path):
        lexicon = compile_with(tmp_path, [])
        assert lexicon.entries == {}

    def test_advisories_parse_kind_and_text(self, tmp_path):
        lexicon = compile_with(tmp_path, [
            r"\asin,0,1,1,,arcsin($0),ArcSin[$0],branch-cut:principal branch only"])
        advisories = lexicon.entries["\\asin"].advisories
        assert [(a.kind, a.text) for a in advisories] == \
            [("branch-cut", "principal branch only")]

    def test_compile_is_deterministic(self):
        paths = [seed_path(n) for n in ("macros.csv", "constants.json",
                                        "greek.json", "builtins.json")]
        first = compile_lexicon(*paths)
        second = compile_lexicon(*paths)
        assert first.to_json() == second.to_json()

    def test_serialize_recompile_identity(self, lex, tmp_path):
        out = tmp_path / "compiled.json"
        lex.save(out)
        reloaded = Lexicon.load(out)
        assert reloaded.to_json() == lex.to_json()
        assert reloaded.lookup("\\JacobiP").translations == \
            lex.lookup("\\JacobiP").translations

    def test_to_json_shares_no_container_with_the_lexicon(self, lex):
        def empty(value):  # every dict and list in the document, innermost first
            for inner in (value.values() if isinstance(value, dict) else value):
                if isinstance(inner, (dict, list)):
                    empty(inner)
            value.clear()

        before = lex.to_json()
        empty(lex.to_json())
        assert lex.to_json() == before
        assert lex.greek["\\alpha"] and lex.lookup("\\cpi").translations


# --- one validating constructor for every input --------------------------------

REFUSED = (SchemaError, DuplicateMacro)
NOT_JSON = object()
DUPLICATE_KEY = object()

# (change to one record, CSV rows that express it or None); a dict updates
# the record's fields, anything else replaces the record
MALFORMED = {
    "string-count": ({"num_params": "1"}, [r"\sin,a,1,1,,sin($0),Sin[$0],"]),
    "bool-count": ({"num_vars": True}, [r"\sin,0,True,1,,sin($0),Sin[$0],"]),
    "count-10": ({"num_vars": 10}, [r"\sin,0,10,1,,sin($0),Sin[$0],"]),
    "count-10**400": ({"num_params": 10**400},
                      [rf"\sin,{10**400},1,1,,sin($0),Sin[$0],"]),
    "at-variants-7": ({"at_variants": [7]}, [r"\sin,0,1,7,,sin($0),Sin[$0],"]),
    "at-variants-none": ({"at_variants": []}, [r"\sin,0,1,,,sin($0),Sin[$0],"]),
    "bogus-advisory": ({"advisories": [{"kind": "bogus", "text": "t"}]},
                       [r"\sin,0,1,1,,sin($0),Sin[$0],bogus:t"]),
    "bogus-role": ({"role": "bogus"}, None),
    "non-object": (["not", "an", "object"], None),
    "non-text-translation": ({"maple": 5}, None),
    "non-text-reverse": ({"reverse": 5}, None),
    "duplicate-key": (DUPLICATE_KEY, [r"\sin,0,1,1,,sin($0),Sin[$0],"] * 2),
    "not-json": (NOT_JSON, None),
}


def malformed_json(doc, table, name, change, nested):
    """``doc`` as JSON text, ``change`` applied to its record ``table[name]``."""
    if change is NOT_JSON:
        return "{not json"
    if change is DUPLICATE_KEY:
        return '{"k": 1, "k": 2, ' + json.dumps(doc)[1:]
    if isinstance(change, dict):
        for key, value in change.items():
            record = table[name]
            (record["translations"] if nested and key in DIALECTS else record)[key] = value
    else:
        table[name] = change
    return json.dumps(doc)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_record_is_refused_from_every_input(case, tmp_path):
    change, rows = MALFORMED[case]
    builtins = json.loads(seed_path("builtins.json").read_text(encoding="utf-8"))
    path = write_text(tmp_path / "builtins.json",
                      malformed_json(builtins, builtins, "\\frac", change, False))
    with pytest.raises(REFUSED):
        compile_lexicon(*map(seed_path, ("macros.csv", "constants.json",
                                         "greek.json")), path)

    compiled = json.loads(json.dumps(load_default().to_json()))
    path = write_text(tmp_path / "compiled.json", malformed_json(
        compiled, compiled["entries"], "\\sin", change, True))
    with pytest.raises(REFUSED):
        Lexicon.load(path)

    if rows is not None:
        with pytest.raises(REFUSED):
            compile_macro_csv(write_csv(tmp_path, rows))


def test_lookup_precedence(tmp_path):
    lexicon = compile_with(
        tmp_path, [r"\alpha,0,1,1,,alpha($0),Alpha[$0],"],
        constants={"\\cpi": {"maple": "Pi", "mathematica": "Pi"}},
        greek={"\\alpha": {"maple": "alpha", "mathematica": "\\[Alpha]"}},
        builtins={"\\cpi": {"maple": "pi()", "mathematica": "Pi[]"}})
    assert lexicon.lookup("\\alpha").role == "function"
    assert lexicon.lookup("\\cpi").translations["maple"] == "pi()"
    assert lexicon.greek["\\alpha"]["maple"] == "alpha"


def test_seed_lexicon_matches_recorded_json():
    recorded = Path(__file__).parent / "data" / "seed_lexicon.json"
    assert load_default().to_json() == json.loads(recorded.read_text(encoding="utf-8"))


def test_a_count_cell_past_int_digits_is_refused(tmp_path):
    # int() refuses a decimal string of more than 4,300 digits
    with pytest.raises(SchemaError, match="num_params must be an integer from 0 to 9"):
        compile_macro_csv(write_csv(
            tmp_path, [rf"\sin,{'9' * 5000},1,1,,sin($0),Sin[$0],"]))


# \sqrt[n]{x} fills \root's template with \sqrt's arguments and then n, so a
# lexicon in which \root takes other than one argument more is refused
ROOT_ARITY = {
    "root-takes-three": ("\\root", {"num_vars": 3, "maple": "root($0,$1,$2)",
                                    "mathematica": "Surd[$0,$1,$2]"}),
    "sqrt-takes-none": ("\\sqrt", {}),
}


@pytest.mark.parametrize("case", sorted(ROOT_ARITY))
def test_root_must_take_sqrts_arguments_and_the_order(case, tmp_path, capsys):
    name, record = ROOT_ARITY[case]
    builtins = json.loads(seed_path("builtins.json").read_text(encoding="utf-8"))
    builtins[name] = {**builtins[name], **record} if record else {}
    path = write_json(tmp_path, "builtins.json", builtins)
    with pytest.raises(SchemaError, match=r"\\root must take") as refused:
        compile_lexicon(*map(seed_path, ("macros.csv", "constants.json",
                                         "greek.json")), path)
    assert refused.value.file == path

    compiled = load_default().to_json()
    compiled["builtins"][name] = {  # the record as a compiled lexicon holds it
        **{k: v for k, v in builtins[name].items() if k not in DIALECTS},
        "translations": {k: builtins[name][k] for k in DIALECTS if k in builtins[name]}}
    lexicon_path = write_json(tmp_path, "compiled.json", compiled)
    with pytest.raises(SchemaError, match=r"\\root must take") as refused:
        Lexicon.load(lexicon_path)
    assert refused.value.file == lexicon_path

    # and from the CLI: exit code 4 and one error line, not an IndexError
    capsys.readouterr()
    for argv in (["compile-lexicon", "--builtins", str(path),
                  "--out", str(tmp_path / "out.json")],
                 ["translate", "--lexicon", str(lexicon_path), "--", r"\sqrt[3]{x}"]):
        assert cli.main(argv) == cli.EXIT_SCHEMA
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1 and err.startswith("error:")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("counts", [{"num_vars": 1}, {"num_params": 1},
                                    {"num_params": 2, "num_vars": 1}])
def test_a_constant_that_declares_arguments_is_refused(counts, tmp_path, capsys):
    # it would compile to f($0) and save as a lexicon that does not load
    constants = json.loads(seed_path("constants.json").read_text(encoding="utf-8"))
    constants["\\cpi"].update(counts, maple="f($0)")
    path = write_json(tmp_path, "constants.json", constants)
    with pytest.raises(SchemaError, match=r"\\cpi: a constant takes no arguments") \
            as refused:
        compile_lexicon(seed_path("macros.csv"), path,
                        *map(seed_path, ("greek.json", "builtins.json")))
    assert refused.value.file == path

    capsys.readouterr()
    out_path = tmp_path / "out.json"
    argv = ["compile-lexicon", "--constants", str(path), "--out", str(out_path)]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and err.startswith("error:")
    assert not out_path.exists()


def test_a_root_error_names_the_csv_that_defines_root(tmp_path):
    sqrt = json.loads(seed_path("builtins.json").read_text(encoding="utf-8"))["\\sqrt"]
    with pytest.raises(SchemaError, match=r"\\root must take \\sqrt's 1 argument") \
            as refused:
        compile_with(tmp_path, [r"\root,0,1,0,,root($0),Surd[$0],"],
                     builtins={"\\sqrt": sqrt})
    assert refused.value.file == tmp_path / "macros.csv"


def test_a_root_error_names_the_csv_that_shadows_sqrt(tmp_path):
    # \root comes from builtins.json and still takes two arguments, but the
    # CSV's \sqrt takes two as well: the error says where each one comes from
    root = json.loads(seed_path("builtins.json").read_text(encoding="utf-8"))["\\root"]
    with pytest.raises(SchemaError, match=r"\\root must take \\sqrt's 2 argument") \
            as refused:
        compile_with(tmp_path, [r'\sqrt,0,2,0,,"sqrt($0,$1)","Sqrt[$0,$1]",'],
                     builtins={"\\root": root})
    assert refused.value.file == tmp_path / "builtins.json"
    assert f"(\\sqrt comes from {tmp_path / 'macros.csv'})" in refused.value.reason


def test_a_root_error_names_the_side_file_of_each_entry(tmp_path):
    with pytest.raises(SchemaError, match=r"\\sqrt's 0 argument\(s\) and the "
                       r"order; it takes 0") as refused:
        compile_with(tmp_path, [], greek={"\\root": {"maple": "r", "mathematica": "R"}},
                     constants={"\\sqrt": {"maple": "s", "mathematica": "S"}})
    assert refused.value.file == tmp_path / "greek.json"
    assert f"(\\sqrt comes from {tmp_path / 'constants.json'})" in refused.value.reason
