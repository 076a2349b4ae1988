"""Command-line interface tests: exit codes, stdout discipline, corpus stats."""

import argparse
import json

import pytest

from texcas.cli import (EXIT_OK, EXIT_PARSE, EXIT_SCHEMA, EXIT_TRANSLATION,
                        build_parser, main, read_corpus, run_corpus)
from texcas.lexicon import load_default, seed_path

HEADER = ("macro,num_params,num_vars,at_variants,dlmf_link,"
          "maple,mathematica,advisories\n")


class TestTranslate:
    def test_forward_stdout_payload_only(self, capsys):
        assert main(["translate", "--dialect", "maple",
                     r"\sin@@{z}"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "sin(z)\n"
        assert captured.err.startswith("info:")

    def test_backward_identity(self, capsys):
        assert main(["translate", "--backward", "x"]) == EXIT_OK
        assert capsys.readouterr().out == "x\n"

    def test_branch_cut_warning_on_stderr(self, capsys):
        assert main(["translate", "--dialect", "maple",
                     r"\BesselK{\frac{1}{4}}@{\frac{1}{4}z^2}"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "BesselK(1/4,(1/4)*z^2)\n"
        assert "warn: branch-cut" in captured.err

    def test_unknown_macro_exit_code(self, capsys):
        assert main(["translate", r"\qhyperg{a}{b}@{z}"]) == EXIT_TRANSLATION
        assert capsys.readouterr().out == ""

    def test_parse_error_exit_code(self, capsys):
        assert main(["translate", "--backward", "sin(("]) == EXIT_PARSE

    def test_latex_scan_error_exit_code(self, capsys):
        assert main(["translate", "{x"]) == EXIT_PARSE

    def test_no_divide_flag(self, capsys):
        assert main(["translate", "--backward", "--no-divide",
                     "(1/(x+3))^(-I)"]) == EXIT_OK
        assert capsys.readouterr().out == \
            "\\left((3+x)^{-1}\\right)^{-\\iunit}\n"

    @pytest.mark.parametrize("argv", [
        ["translate", "--no-divide", "--", "a/b"],
        ["translate", "--no-divide", r"\frac{a}{b}"],
    ])
    def test_no_divide_without_backward_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--no-divide applies only with --backward" in captured.err
        assert "Traceback" not in captured.err

    def test_backward_with_and_without_no_divide(self, capsys):
        assert main(["translate", "--backward", "--", "a/b"]) == EXIT_OK
        assert main(["translate", "--backward", "--no-divide", "--", "a/b"]) == EXIT_OK
        assert capsys.readouterr().out == "\\frac{a}{b}\na\\idt b^{-1}\n"

    def test_input_from_file(self, tmp_path, capsys):
        src = tmp_path / "formula.tex"
        src.write_text(r"\sin@{z}" + "\n", encoding="utf-8")
        assert main(["translate", "--file", str(src)]) == EXIT_OK
        assert capsys.readouterr().out == "sin(z)\n"

    @pytest.mark.parametrize("argv, message", [
        (["translate", "--backward", "--dialect", "mathematica", "sin(x)"],
         "translate: --dialect applies only without --backward"),
        (["translate", "--backward", "--dialect", "maple", "sin(x)"],
         "translate: --dialect applies only without --backward"),
        (["translate", "--file", "formula.tex", "cos(y)"],
         "argument input: not allowed with argument --file"),
        (["translate", "--file", "formula.tex", ""],
         "argument input: not allowed with argument --file"),
        # forward is what translate does without --backward
        (["translate", "--forward", r"\sin@{z}"],
         "unrecognized arguments: --forward"),
    ])
    def test_option_the_path_ignores_is_refused(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err


class TestCompileLexicon:
    def test_seed_sources_compile(self, tmp_path, capsys):
        out = tmp_path / "lexicon.json"
        assert main(["compile-lexicon", "--out", str(out)]) == EXIT_OK
        assert out.exists()

    def test_compiled_lexicon_usable_for_translation(self, tmp_path, capsys):
        out = tmp_path / "lexicon.json"
        main(["compile-lexicon", "--out", str(out)])
        capsys.readouterr()
        assert main(["translate", "--lexicon", str(out), r"\sin@{z}"]) == EXIT_OK
        assert capsys.readouterr().out == "sin(z)\n"

    def test_duplicate_row_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "macros.csv"
        bad.write_text(HEADER + "\\sin,0,1,1,,sin($0),Sin[$0],\n"
                                "\\sin,0,1,1,,sin($0),Sin[$0],\n",
                       encoding="utf-8")
        code = main(["compile-lexicon", "--csv", str(bad),
                     "--out", str(tmp_path / "out.json")])
        assert code == EXIT_SCHEMA
        # one error line, which names the file and the repeated row's line
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {bad}:3: duplicate macro \\sin"]

    def test_empty_csv_with_header_compiles(self, tmp_path, capsys):
        empty = tmp_path / "macros.csv"
        empty.write_text(HEADER, encoding="utf-8")
        assert main(["compile-lexicon", "--csv", str(empty),
                     "--out", str(tmp_path / "out.json")]) == EXIT_OK


class TestCorpus:
    def make_corpus(self, tmp_path, lines):
        path = tmp_path / "corpus.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    TEN_RECORDS = [
        "rel-01\t\\sin@{z}^{2}+\\cos@{z}^{2} = 1",
        "rel-02\t\\sin@{z+\\frac{\\cpi}{2}} = \\cos@{z}",
        "rel-03\t\\cos@{-z} = \\cos@{z}\tz > 0",  # a third column is ignored
        "rel-04\t\\exp@{\\ln@{z}} = z",
        "rel-05\t\\sqrt{z}^{2} = z",
        "rel-06\t\\JacobiP{\\alpha}{\\beta}{0}@{x} = 1",
        "rel-07\t\\frac{z}{z} = 1",
        "rel-08\t\\cpi-\\cpi = 0",
        "unknown-macro\t\\qhyperg{a}{b}@{z} = 1",
        "not-a-relation\t\\sin@{z}",
    ]

    def test_classification_partition(self, tmp_path, lex):
        records = read_corpus(self.make_corpus(tmp_path, self.TEN_RECORDS))
        assert records[2].semantic_latex == "\\cos@{-z} = \\cos@{z}"
        stats, log = run_corpus(records, lex)
        assert stats.total == 10
        assert stats.translated == 9
        assert stats.verified == 8
        assert stats.translated_unverified == 0
        assert stats.untranslated_unknown_macro == 1
        assert stats.errored == 0
        assert stats.ignored == 1
        counted = (stats.verified + stats.translated_unverified
                   + stats.untranslated_unknown_macro + stats.errored
                   + stats.ignored)
        assert counted == stats.total

    def test_cli_stats_and_report(self, tmp_path, capsys, lex):
        corpus = self.make_corpus(tmp_path, self.TEN_RECORDS)
        report = tmp_path / "report.jsonl"
        assert main(["corpus", str(corpus), "--report", str(report)]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"total": 10, "translated": 9, "verified": 8,
                         "translated_unverified": 0,
                         "untranslated_unknown_macro": 1,
                         "errored": 0, "ignored": 1}
        lines = report.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert "pre-conversion" in header["note"]
        entries = [json.loads(line) for line in lines[1:]]
        assert len(entries) == 10
        assert [e["id"] for e in entries] == sorted(e["id"] for e in entries)

    def test_empty_corpus_all_zero(self, tmp_path, lex):
        stats, log = run_corpus(
            read_corpus(self.make_corpus(tmp_path, ["# only a comment"])), lex)
        assert stats.total == 0 and stats.translated == 0 and log == []

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            read_corpus(self.make_corpus(tmp_path, ["a\tx", "a\ty"]))

    def test_determinism(self, tmp_path, lex):
        records = read_corpus(self.make_corpus(tmp_path, self.TEN_RECORDS))
        first = run_corpus(records, lex)
        second = run_corpus(records, lex)
        assert first[0].as_dict() == second[0].as_dict()
        assert first[1] == second[1]

    def test_seed_corpus_file_loads(self):
        records = read_corpus(seed_path("seed_corpus.tsv"))
        assert len(records) == 37


class TestRoundTripCommand:
    def test_steps_printed(self, capsys, lex):
        assert main(["roundtrip", r"\frac{\cos@{a\Theta}}{2}"]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith(r"\frac{\cos@{a\Theta}}{2}")
        assert "fixed point reached" in captured.err

    def test_max_steps_termination(self, capsys, lex):
        assert main(["roundtrip", "--max-steps", "8",
                     r"\EllIntF@{\phi}{k}"]) == EXIT_OK
        assert "max-steps" in capsys.readouterr().err


class TestInertCommand:
    def test_compat_prefix_listing(self, capsys):
        assert main(["inert", "--compat-prefix",
                     "int((Pi+sin(2*x))/x^2, x=0..infinity)"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out.startswith('[_Inert_FUNCTION,[_Inert_NAME,"int"]')

    def test_parse_error_exit_code(self, capsys):
        assert main(["inert", "sin(("]) == EXIT_PARSE

    def test_no_divide_without_preprocess_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["inert", "--no-divide", "--", "a/b"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--no-divide applies only with --preprocess" in captured.err
        assert "Traceback" not in captured.err

    def test_preprocess_with_and_without_no_divide(self, capsys):
        assert main(["inert", "--preprocess", "--", "a/b"]) == EXIT_OK
        assert main(["inert", "--preprocess", "--no-divide", "--", "a/b"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            '[DIVIDE,[NAME,"a"],[NAME,"b"]]',
            '[PROD,[NAME,"a"],[POWER,[NAME,"b"],[INTNEG,1]]]']


class TestEveryOptionActs:
    """Every option of every subcommand changes stdout, or the report file,
    for some input: an option the parser gains without a row here fails."""

    # options that only name a file to read or write
    PATH_ONLY = {("translate", "--file"), ("corpus", "--report"),
                 ("compile-lexicon", "--out"), ("compile-lexicon", "--csv"),
                 ("compile-lexicon", "--constants"),
                 ("compile-lexicon", "--greek"),
                 ("compile-lexicon", "--builtins")}

    CORPUS_RUN = ["corpus", "CORPUS", "--report", "REPORT"]

    # (subcommand, option) -> (a command line without the option, the option
    # and a value that is not its default, inserted after the subcommand);
    # an argument that is a key of the ``paths`` fixture stands for its path
    ACTS = {
        ("translate", "--backward"): (["translate", "--", "sin(x)"], ["--backward"]),
        ("translate", "--dialect"): (["translate", "--", r"\sin@{z}"],
                                     ["--dialect", "mathematica"]),
        ("translate", "--lexicon"): (["translate", "--", r"\sin@{z}"],
                                     ["--lexicon", "LEXICON"]),
        ("translate", "--no-divide"): (["translate", "--backward", "--", "a/b"],
                                       ["--no-divide"]),
        ("corpus", "--lexicon"): (CORPUS_RUN, ["--lexicon", "LEXICON"]),
        ("corpus", "--tolerance"): (CORPUS_RUN, ["--tolerance", "1e-300"]),
        ("corpus", "--points"): (CORPUS_RUN, ["--points", "1"]),
        ("corpus", "--seed"): (CORPUS_RUN, ["--seed", "1"]),
        ("roundtrip", "--side"): (["roundtrip", "--", "sin(x)/2"],
                                  ["--side", "maple"]),
        ("roundtrip", "--max-steps"): (["roundtrip", "--", r"\EllIntF@{\phi}{k}"],
                                       ["--max-steps", "3"]),
        ("roundtrip", "--lexicon"): (["roundtrip", "--", r"\sin@{z}"],
                                     ["--lexicon", "LEXICON"]),
        ("roundtrip", "--no-divide"): (["roundtrip", "--", r"\frac{a}{b}"],
                                       ["--no-divide"]),
        ("inert", "--compat-prefix"): (["inert", "--", "a/b"], ["--compat-prefix"]),
        ("inert", "--preprocess"): (["inert", "--", "a/b"], ["--preprocess"]),
        ("inert", "--no-divide"): (["inert", "--preprocess", "--", "a/b"],
                                   ["--no-divide"]),
    }

    def test_the_table_names_every_option(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        options = {(name, option) for name, command in commands.items()
                   for action in command._actions if action.dest != "help"
                   for option in action.option_strings}
        assert options == set(self.ACTS) | self.PATH_ONLY

    def test_every_argument_has_a_help_line(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        silent = [(name, action.dest) for name, command in commands.items()
                  for action in command._actions
                  if action.dest != "help" and not action.help]
        assert silent == []

    @pytest.fixture
    def paths(self, tmp_path):
        doc = load_default().to_json()  # a copy in which \sin is the cosine
        doc["entries"]["\\sin"]["translations"]["maple"] = "cos($0)"
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(doc), encoding="utf-8")
        corpus = tmp_path / "corpus.tsv"
        # exp-ln's sampled difference depends on the points, the seed and
        # the tolerance; sine's Maple text on the lexicon
        corpus.write_text("exp-ln\t\\exp@{\\ln@{z}} = z\n"
                          "sine\t\\sin@{z} = \\sin@{z}\n", encoding="utf-8")
        return {"LEXICON": lexicon, "CORPUS": corpus,
                "REPORT": tmp_path / "report.jsonl"}

    def run(self, argv, paths, capsys) -> str:
        """Stdout, then the report file when the command writes one."""
        report = paths["REPORT"]
        report.unlink(missing_ok=True)
        assert main([str(paths.get(a, a)) for a in argv]) == EXIT_OK
        written = report.read_text(encoding="utf-8") if report.exists() else ""
        return capsys.readouterr().out + written

    @pytest.mark.parametrize("command, option", sorted(ACTS))
    def test_option_changes_the_output(self, command, option, paths, capsys):
        argv, given = self.ACTS[command, option]
        without = self.run(argv, paths, capsys)
        assert self.run([argv[0], *given, *argv[1:]], paths, capsys) != without


class TestMalformedInput:
    """A malformed input file ends in an ``error:`` line and an exit code."""

    def assert_error_exit(self, argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("line", ["no-tab-here", "a\tx\na\ty"],
                             ids=["missing-tab", "duplicate-id"])
    def test_corpus_file_exits_3(self, line, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(line + "\n", encoding="utf-8")
        self.assert_error_exit(["corpus", str(corpus)], EXIT_PARSE, capsys)

    @pytest.mark.parametrize("text", ['{"entries": {}}', "not json", "[]",
                                      '{"entries": []}'],
                             ids=["missing-key", "not-json", "not-an-object",
                                  "entries-not-an-object"])
    def test_lexicon_json_exits_4(self, text, tmp_path, capsys):
        bad = tmp_path / "lexicon.json"
        bad.write_text(text, encoding="utf-8")
        self.assert_error_exit(["translate", "--lexicon", str(bad),
                                r"\sin@{z}"], EXIT_SCHEMA, capsys)

    def test_csv_row_with_missing_cells_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "macros.csv"
        bad.write_text(HEADER + "\\sin,0,1\n", encoding="utf-8")
        self.assert_error_exit(["compile-lexicon", "--csv", str(bad),
                                "--out", str(tmp_path / "out.json")],
                               EXIT_SCHEMA, capsys)

    def assert_clean_exit(self, argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("source, text", [
        ("builtins", '{"\\\\frac": {"num_params": "a", "maple": "f($0)"}}'),
        ("builtins", '{"\\\\frac": 7}'),
        ("builtins", '{"\\\\frac": {"advisories": [{"kind": "bogus", "text": "t"}]}}'),
        ("builtins", '{"\\\\frac": {}, "\\\\frac": {}}'),
        ("constants", '{"\\\\cpi": "Pi"}'),
        ("greek", "not json"),
    ], ids=["string-count", "non-object", "bogus-advisory", "duplicate-key",
            "constant-non-object", "greek-not-json"])
    def test_lexicon_source_exits_4(self, source, text, tmp_path, capsys):
        bad = tmp_path / f"{source}.json"
        bad.write_text(text, encoding="utf-8")
        self.assert_clean_exit(["compile-lexicon", f"--{source}", str(bad),
                                "--out", str(tmp_path / "out.json")],
                               EXIT_SCHEMA, capsys)

    @pytest.mark.parametrize("field, value", [
        ("num_vars", "1"), ("advisories", [{"kind": "bogus", "text": "t"}])])
    def test_compiled_record_exits_4(self, field, value, tmp_path, capsys):
        doc = json.loads(json.dumps(load_default().to_json()))
        doc["entries"]["\\sin"][field] = value
        bad = tmp_path / "lexicon.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_clean_exit(["translate", "--lexicon", str(bad), r"\sin@{z}"],
                               EXIT_SCHEMA, capsys)

    @pytest.mark.parametrize("argv", [
        ["corpus", "{missing}"],
        ["translate", "--lexicon", "{missing}", "x"],
        ["translate", "--file", "{missing}"],
        ["corpus", str(seed_path("seed_corpus.tsv")), "--report", "{missing}/r.jsonl"],
    ], ids=["corpus", "lexicon", "input-file", "report"])
    def test_unreadable_file_exits_3(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        self.assert_clean_exit([a.format(missing=missing) for a in argv],
                               EXIT_PARSE, capsys)

    def test_control_symbol_exits_3(self, capsys):
        self.assert_clean_exit(["translate", r"a\,b"], EXIT_PARSE, capsys)

    @pytest.mark.parametrize("argv, code", [
        (["corpus", "{bad}"], EXIT_PARSE),
        (["translate", "--file", "{bad}"], EXIT_PARSE),
        (["compile-lexicon", "--csv", "{bad}", "--out", "{out}"], EXIT_SCHEMA),
        (["translate", "--lexicon", "{bad}", "x"], EXIT_SCHEMA),
    ], ids=["corpus", "input-file", "csv", "lexicon"])
    def test_file_that_is_not_utf8(self, argv, code, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"x\t\\sin@{z}\n\xff\n")
        argv = [a.format(bad=bad, out=tmp_path / "out.json") for a in argv]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        if code == EXIT_SCHEMA:
            assert f"{bad}:2: not UTF-8" in captured.err

    def test_repeated_inner_key_names_file_and_key(self, tmp_path, capsys):
        bad = tmp_path / "builtins.json"
        bad.write_text('{"\\\\frac": {"maple": "f($0)", "maple": "g($0)"}}',
                       encoding="utf-8")
        assert main(["compile-lexicon", "--builtins", str(bad),
                     "--out", str(tmp_path / "out.json")]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:1: repeated key 'maple'\n"

    @pytest.mark.parametrize("text,line,key", [
        ('{"a": 1,\n "a": 2}', 2, "a"),
        # a string value that looks like a key, then the repeat
        ('{"s": "\\"s\\": {", \n"t": [1, {"u": 2}],\n\n"s": 3}', 4, "s"),
        # the key spelled with an escape is the same key
        ('{"k\\u0061": 1,\n "ka": 2}', 2, "ka"),
        # an inner object closes first, so its repeat is the one reported
        ('{"a": 1,\n "a": 2,\n "b": {"c": 1,\n "c": 2}}', 4, "c"),
    ])
    def test_repeated_key_names_its_line(self, tmp_path, capsys, text, line, key):
        bad = tmp_path / "builtins.json"
        bad.write_text(text, encoding="utf-8")
        assert main(["compile-lexicon", "--builtins", str(bad),
                     "--out", str(tmp_path / "out.json")]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:{line}: repeated key {key!r}\n"
