"""Generated inputs for ``compile-lexicon`` and ``corpus``: mutated copies of
the seed sources (``macros.csv``, ``constants.json``, ``greek.json``,
``builtins.json``) and of the seed corpus go through the CLI.  A lexicon that
compiles is then used by ``translate``, ``translate --backward``,
``roundtrip`` and ``corpus`` on a few fixed inputs.

Every run ends with an exit code the CLI documents (0, 2, 3 or 4), writes at
most one ``error:`` line, and raises nothing out of ``cli.main``."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from texcas import cli
from texcas.lexicon import seed_path

SOURCES = {"csv": "macros.csv", "constants": "constants.json",
           "greek": "greek.json", "builtins": "builtins.json",
           "corpus": "seed_corpus.tsv"}
SEED = {key: seed_path(name).read_text(encoding="utf-8")
        for key, name in SOURCES.items()}
SEPARATORS = {"csv": ",", "corpus": "\t"}

# what a JSON swap puts in place of a field or of a whole record
VALUES = [0, 1, 2, 9, 10, 10**400, -1, None, True, 2.5, "", "x", "$0", "$1",
          "$9", "f($0,$1)", "root($0,$1,$2)", "\\sqrt[$1]{$0}", "i", [], [0],
          [1, 2], [4], [{"kind": "domain", "text": "t"}], {}, {"maple": "$0"}]
FIELDS = ["num_params", "num_vars", "at_variants", "dlmf_link", "maple",
          "mathematica", "advisories", "role", "reverse", "translations",
          "alias", "advisory", "suggest_for"]
NAMES = ["\\sqrt", "\\root", "\\frac", "\\idt", "\\sin", "\\alpha", "\\cpi",
         "\\iunit", "\\foo"]
# what a cell swap puts in a CSV or TSV cell, and a text edit inserts
CELLS = ["", "0", "1", "3", "9", "10", str(10**400), "-1", "1|2", "0|4", "$0",
         "$1", "sin($0)", "root($0,$1,$2)", "domain:t", "bogus", "\\sqrt",
         "\\root", "\\sqrt[3]{x} = x", "x = x"]
CHUNKS = [",", "|", ";", ":", "$", "\\", "{", "}", "[", "]", '"', "\n", "\t",
          "@", "#", " ", "\ufeff", "\x00", *CELLS]

FORWARD = [r"\sqrt[3]{x}", r"\frac{\sin@{z}}{2}\idt\alpha+\cpi"]
BACKWARD = ["root(x,3)+sqrt(y)", "sin(z)/2*alpha+Pi"]


def mutate(data, texts) -> None:
    """Apply one text edit, cell swap or JSON value swap to one source."""
    key = data.draw(st.sampled_from(sorted(texts)))
    text = texts[key]
    kind = data.draw(st.sampled_from(["edit", "swap"]))
    if kind == "swap" and key in SEPARATORS:
        lines = text.split("\n")
        i = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(SEPARATORS[key])
        k = data.draw(st.integers(0, len(cells)))  # len(cells) appends one
        cells[k:k + 1] = [data.draw(st.sampled_from(CELLS))]
        lines[i] = SEPARATORS[key].join(cells)
        texts[key] = "\n".join(lines)
        return
    if kind == "swap":
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if isinstance(doc, dict):
            name = data.draw(st.sampled_from(sorted(doc) + NAMES))
            value = data.draw(st.sampled_from(VALUES))
            how = data.draw(st.sampled_from(["field", "record", "delete"]))
            if how == "delete":
                doc.pop(name, None)
            elif how == "field" and isinstance(doc.get(name), dict):
                doc[name] = {**doc[name], data.draw(st.sampled_from(FIELDS)): value}
            else:
                doc[name] = value
            texts[key] = json.dumps(doc)
            return
    # a text edit, also in place of a swap in a file that is no JSON object
    i = data.draw(st.integers(0, len(text)))
    n = data.draw(st.integers(0, 8))
    chunk = data.draw(st.sampled_from(CHUNKS) | st.text(max_size=3))
    texts[key] = text[:i] + chunk + text[i + n:]


def run(*argv) -> int:
    """The exit code of ``texcas argv``, checking what the CLI promises."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code in (cli.EXIT_OK, cli.EXIT_TRANSLATION, cli.EXIT_PARSE,
                    cli.EXIT_SCHEMA), (argv, code)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) <= 1, (argv, errors)
    return code


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_sources_and_corpus_end_in_a_documented_exit(data):
    texts = dict(SEED)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, texts)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: Path(tmp, SOURCES[key]) for key in texts}
        for key, path in paths.items():
            path.write_text(texts[key], encoding="utf-8")
        lexicon = str(Path(tmp, "lexicon.json"))
        code = run("compile-lexicon", "--csv", str(paths["csv"]),
                   "--constants", str(paths["constants"]),
                   "--greek", str(paths["greek"]),
                   "--builtins", str(paths["builtins"]), "--out", lexicon)
        given_lexicon = ["--lexicon", lexicon] if code == cli.EXIT_OK else []
        if given_lexicon:
            for text in FORWARD:
                run("translate", *given_lexicon, "--", text)
            for text in BACKWARD:
                run("translate", "--backward", *given_lexicon, "--", text)
            run("roundtrip", *given_lexicon, "--", FORWARD[0])
        run("corpus", str(paths["corpus"]), *given_lexicon)
