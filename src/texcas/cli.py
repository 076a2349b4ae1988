"""Command-line surface: translate, compile-lexicon, corpus, roundtrip, inert.

Exit codes: 0 success, 2 translation error, 3 parse/scan error or unreadable
file, 4 lexicon schema error.  stdout carries only the translation payload;
info and warning messages go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

# Only what ``translate`` needs is imported here; every other subcommand
# imports its stages when it runs, so a forward translation never loads them.
from .errors import (CorpusFormatError, LexiconError, MapleSyntaxError,
                     ScanError, TexcasError, UnsupportedConstruct)
from .forward import InfoMessage, translate_string
from .lexicon import (ADVISORY_KINDS, DIALECTS, MAPLE, MAPLE_SIDE,
                      SEMANTIC_LATEX, Lexicon, compile_lexicon, load_default,
                      seed_path)

EXIT_OK = 0
EXIT_TRANSLATION = 2
EXIT_PARSE = 3
EXIT_SCHEMA = 4

# The exit code of an error that reaches main: the first matching row wins.
EXIT_CODES = (
    (LexiconError, EXIT_SCHEMA),
    ((ScanError, MapleSyntaxError, UnsupportedConstruct, CorpusFormatError),
     EXIT_PARSE),
    ((OSError, UnicodeDecodeError), EXIT_PARSE),  # unreadable or not UTF-8
    (TexcasError, EXIT_TRANSLATION),
)


# CorpusRecord, read_corpus and run_corpus stay readable here, imported on
# first access: perfbench/worker.py builds records and traces run_corpus
# through this module
def __getattr__(name):
    if name not in ("CorpusRecord", "read_corpus", "run_corpus"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import corpus
    value = globals()[name] = getattr(corpus, name)
    return value


def _emit_infos(infos: List[InfoMessage]) -> None:
    for info in infos:
        prefix = "warn" if info.kind in ADVISORY_KINDS else "info"
        print(f"{prefix}: {info.kind}: {info.text}", file=sys.stderr)


def _load_lexicon(path: Optional[str]) -> Lexicon:
    return load_default() if path is None else Lexicon.load(path)


# --- subcommands --------------------------------------------------------------

def _cmd_translate(args) -> int:
    lex = _load_lexicon(args.lexicon)
    text = args.input or ""
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read().strip()
    if args.backward:
        from .backward import backward_string
        result = backward_string(text, lex, use_divide=not args.no_divide)
    else:
        result = translate_string(text, lex, args.dialect or MAPLE)
    print(result.output)
    _emit_infos(result.infos)
    return EXIT_OK


def _cmd_compile_lexicon(args) -> int:
    lex = compile_lexicon(args.csv, args.constants, args.greek, args.builtins)
    lex.save(args.out)
    print(f"compiled {len(lex.entries)} macros, {len(lex.constants)} constants, "
          f"{len(lex.greek)} Greek letters, {len(lex.builtins)} builtins "
          f"-> {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_corpus(args) -> int:
    from .corpus import read_corpus, run_corpus
    lex = _load_lexicon(args.lexicon)
    records = read_corpus(args.corpus)
    # an option not given keeps run_corpus's default
    given = {k: getattr(args, k) for k in ("tolerance", "points", "seed")
             if getattr(args, k) is not None}
    stats, log = run_corpus(records, lex, **given)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            # pre-conversion (exponential/hypergeometric form) needs a full
            # CAS; that classification column is intentionally absent.
            fh.write(json.dumps({"header": "texcas corpus report",
                                 "note": "no pre-conversion column: "
                                         "pre-conversion requires a full CAS",
                                 "stats": stats.as_dict()}) + "\n")
            for entry in log:
                fh.write(json.dumps(entry) + "\n")
    print(json.dumps(stats.as_dict()))
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    from .verify import round_trip
    lex = _load_lexicon(args.lexicon)
    report = round_trip(args.input, args.side, lex, max_steps=args.max_steps,
                        use_divide=not args.no_divide)
    for step in report.steps:
        print(f"{step.index}\t{step.side}\t{step.text}")
    if report.fixed_point_reached:
        cycles = ", ".join(f"{side} after {c} cycle(s)"
                           for side, c in sorted(report.cycles_by_side.items()))
        print(f"fixed point reached: {cycles}", file=sys.stderr)
        return EXIT_OK
    print(f"no fixed point: {report.terminated_reason}"
          + (f" ({report.error})" if report.error else ""), file=sys.stderr)
    return EXIT_TRANSLATION if report.terminated_reason == "translation-error" else EXIT_OK


def _cmd_inert(args) -> int:
    from . import inert
    tree = inert.parse_maple(args.input)
    if args.preprocess:
        tree = inert.preprocess(tree, use_divide=not args.no_divide)
    print(inert.nested_list_to_text(inert.to_nested_list(tree),
                                    compat_prefix=args.compat_prefix))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="texcas",
        description="Translate between semantic LaTeX and CAS expressions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="translate a single formula")
    p.add_argument("--backward", action="store_true",
                   help="translate Maple to semantic LaTeX (default: forward)")
    p.add_argument("--dialect", choices=sorted(DIALECTS),
                   help="forward target (default: maple)")
    p.add_argument("--lexicon", help="compiled lexicon JSON (default: seed)")
    p.add_argument("--no-divide", action="store_true",
                   help="disable the DIVIDE element in backward translation")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--file", help="read the input from a file")
    # no default text: argparse tells a given input from the default by
    # identity, and an empty argument is the one empty string
    source.add_argument("input", nargs="?",
                        help="the formula: semantic LaTeX, or Maple with --backward")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("compile-lexicon", help="compile CSV+JSON sources")
    for option, source, what in (("--csv", "macros.csv", "macro table CSV"),
                                 ("--constants", "constants.json", "constants JSON"),
                                 ("--greek", "greek.json", "Greek letters JSON"),
                                 ("--builtins", "builtins.json", "builtins JSON")):
        p.add_argument(option, default=str(seed_path(source)), help=f"{what} (default: seed)")
    p.add_argument("--out", required=True, help="compiled lexicon JSON path")
    p.set_defaults(func=_cmd_compile_lexicon)

    p = sub.add_parser("corpus", help="translate and verify a corpus file")
    p.add_argument("corpus", help="TSV corpus path: an id and a relation per line")
    p.add_argument("--lexicon", help="compiled lexicon JSON (default: seed)")
    p.add_argument("--report", help="line-delimited JSON report path")
    p.add_argument("--tolerance", type=float, help="numeric check tolerance")
    p.add_argument("--points", type=int, help="test points per relation")
    p.add_argument("--seed", type=int, help="seed of the test points")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("roundtrip", help="run a round-trip fixed-point test")
    p.add_argument("input", help="the formula the round trip starts from")
    p.add_argument("--side", choices=[SEMANTIC_LATEX, MAPLE_SIDE],
                   default=SEMANTIC_LATEX, help="the language of the input")
    p.add_argument("--max-steps", type=int, default=12,
                   help="texts in the trip, the input included (at least 3)")
    p.add_argument("--lexicon", help="compiled lexicon JSON (default: seed)")
    p.add_argument("--no-divide", action="store_true",
                   help="disable the DIVIDE element in backward translation")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("inert", help="print the inert form as a nested list")
    p.add_argument("input", help="Maple 1D expression")
    p.add_argument("--compat-prefix", action="store_true",
                   help="emit _Inert_ tag prefixes")
    p.add_argument("--preprocess", action="store_true",
                   help="print the tree as preprocess normalizes it for rendering")
    p.add_argument("--no-divide", action="store_true",
                   help="with --preprocess, build no DIVIDE nodes")
    p.set_defaults(func=_cmd_inert)

    return parser


# (subcommand, option) -> the flag and its value that the option needs, as
# the stage that reads the option runs only then: preprocess builds DIVIDE
# nodes, and --dialect selects the forward renderer
_OPTION_NEEDS = {
    ("translate", "no_divide"): ("backward", True),
    ("inert", "no_divide"): ("preprocess", True),
    ("translate", "dialect"): ("backward", False),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for (command, option), (flag, value) in _OPTION_NEEDS.items():
        if command == args.command and getattr(args, option) \
                and getattr(args, flag) != value:
            parser.error(f"{command}: --{option.replace('_', '-')} applies only "
                         f"{'with' if value else 'without'} --{flag}")
    try:
        return args.func(args)
    except (TexcasError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
