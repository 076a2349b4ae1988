"""Command-line surface: translate, compile-lexicon, corpus, roundtrip, inert.

Exit codes: 0 success, 2 translation error, 3 parse/scan error, 4 lexicon
schema error.  stdout carries only the translation payload; info and warning
messages go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import inert, verify
from .backward import backward_string
from .errors import (LexiconError, MapleSyntaxError, ScanError,
                     TranslationError, UnsupportedConstruct)
from .forward import InfoMessage, translate_string
from .lexicon import (ADVISORY_KINDS, DIALECTS, Lexicon, compile_lexicon,
                      load_default, seed_path)

EXIT_OK = 0
EXIT_TRANSLATION = 2
EXIT_PARSE = 3
EXIT_SCHEMA = 4


def _emit_infos(infos: List[InfoMessage]) -> None:
    for info in infos:
        prefix = "warn" if info.kind in ADVISORY_KINDS else "info"
        print(f"{prefix}: {info.kind}: {info.text}", file=sys.stderr)


def _load_lexicon(path: Optional[str]) -> Lexicon:
    if path is None:
        return load_default()
    return Lexicon.load(path)


# --- corpus -----------------------------------------------------------------

@dataclass
class CorpusRecord:
    id: str
    semantic_latex: str
    constraint: Optional[str] = None
    expected_relation: bool = True


@dataclass
class CorpusStats:
    total: int = 0
    translated: int = 0
    verified: int = 0
    translated_unverified: int = 0
    untranslated_unknown_macro: int = 0
    errored: int = 0
    ignored: int = 0

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "translated": self.translated,
            "verified": self.verified,
            "translated_unverified": self.translated_unverified,
            "untranslated_unknown_macro": self.untranslated_unknown_macro,
            "errored": self.errored,
            "ignored": self.ignored,
        }


def read_corpus(path) -> List[CorpusRecord]:
    records = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected id<TAB>formula")
            rid = parts[0]
            if rid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate id {rid}")
            seen.add(rid)
            records.append(CorpusRecord(rid, parts[1],
                                        parts[2] if len(parts) > 2 else None))
    return records


def split_relation(maple_text: str) -> Optional[Tuple[str, str]]:
    """Split at the single top-level '='; None if there is not exactly one."""
    depth = 0
    positions = []
    for k, ch in enumerate(maple_text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "=" and depth == 0:
            positions.append(k)
    if len(positions) != 1:
        return None
    k = positions[0]
    return maple_text[:k].strip(), maple_text[k + 1:].strip()


def run_corpus(records: List[CorpusRecord], lex: Lexicon,
               tolerance: float = verify.DEFAULT_TOLERANCE,
               points: int = verify.DEFAULT_POINTS,
               seed: int = verify.DEFAULT_SEED) -> Tuple[CorpusStats, List[dict]]:
    """Translate and verify every record; classification mirrors the
    categories of the evaluation harness (verified, translated-unverified,
    unknown macro, errored, ignored/non-relation)."""
    from .errors import UnknownMacro

    stats = CorpusStats(total=len(records))
    log: List[dict] = []
    for record in sorted(records, key=lambda r: r.id):
        entry = {"id": record.id, "semantic_latex": record.semantic_latex}
        try:
            result = translate_string(record.semantic_latex, lex, "maple")
        except UnknownMacro as exc:
            stats.untranslated_unknown_macro += 1
            entry.update(classification="untranslated-unknown-macro",
                         error=str(exc))
            log.append(entry)
            continue
        except (ScanError, TranslationError) as exc:
            stats.errored += 1
            entry.update(classification="errored", error=str(exc))
            log.append(entry)
            continue
        entry["maple"] = result.output
        relation = split_relation(result.output)
        if relation is None:
            stats.ignored += 1
            entry["classification"] = "ignored"
            entry["reason"] = "not a relation"
            log.append(entry)
            continue
        try:
            lhs = inert.parse_maple(relation[0])
            rhs = inert.parse_maple(relation[1])
            names = sorted(verify.free_names(lhs) | verify.free_names(rhs))
            verdict = verify.check_equivalence(lhs, rhs, names,
                                               tolerance=tolerance,
                                               points=points, seed=seed)
        except (MapleSyntaxError, UnsupportedConstruct, verify.UnknownSymbol) as exc:
            stats.errored += 1
            entry.update(classification="errored", error=str(exc))
            log.append(entry)
            continue
        entry["outcome"] = verdict.outcome
        if verdict.max_abs_difference is not None:
            entry["max_abs_difference"] = verdict.max_abs_difference
        if verdict.outcome in ("symbolic-zero", "numeric-converged"):
            stats.verified += 1
            entry["classification"] = "verified"
        else:
            stats.translated_unverified += 1
            entry["classification"] = "translated-unverified"
            if verdict.reason:
                entry["reason"] = verdict.reason
        log.append(entry)
    stats.translated = stats.verified + stats.translated_unverified + stats.ignored
    return stats, log


# --- subcommands --------------------------------------------------------------

def _cmd_translate(args) -> int:
    try:
        lex = _load_lexicon(args.lexicon)
    except LexiconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    text = args.input
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read().strip()
    try:
        if args.backward:
            result = backward_string(text, lex, use_divide=not args.no_divide)
        else:
            result = translate_string(text, lex, args.dialect)
    except (ScanError, MapleSyntaxError, UnsupportedConstruct) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TranslationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSLATION
    print(result.output)
    _emit_infos(result.infos)
    return EXIT_OK


def _cmd_compile_lexicon(args) -> int:
    try:
        lex = compile_lexicon(args.csv, args.constants, args.greek, args.builtins)
    except LexiconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    lex.save(args.out)
    print(f"compiled {len(lex.entries)} macros, {len(lex.constants)} constants, "
          f"{len(lex.greek)} Greek letters, {len(lex.builtins)} builtins "
          f"-> {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_corpus(args) -> int:
    try:
        lex = _load_lexicon(args.lexicon)
    except LexiconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    records = read_corpus(args.corpus)
    stats, log = run_corpus(records, lex, tolerance=args.tolerance,
                            points=args.points, seed=args.seed)
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
    try:
        lex = _load_lexicon(args.lexicon)
    except LexiconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    report = verify.round_trip(args.input, args.side, lex,
                               max_steps=args.max_steps,
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
    try:
        tree = inert.parse_maple(args.input, use_divide=not args.no_divide)
    except (MapleSyntaxError, UnsupportedConstruct) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
    direction = p.add_mutually_exclusive_group()
    direction.add_argument("--forward", action="store_true", default=False)
    direction.add_argument("--backward", action="store_true", default=False)
    p.add_argument("--dialect", choices=sorted(DIALECTS), default="maple")
    p.add_argument("--lexicon", help="compiled lexicon JSON (default: seed)")
    p.add_argument("--file", help="read the input from a file")
    p.add_argument("--no-divide", action="store_true",
                   help="disable the DIVIDE element in backward translation")
    p.add_argument("input", nargs="?", default="")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("compile-lexicon", help="compile CSV+JSON sources")
    p.add_argument("--csv", default=str(seed_path("macros.csv")))
    p.add_argument("--constants", default=str(seed_path("constants.json")))
    p.add_argument("--greek", default=str(seed_path("greek.json")))
    p.add_argument("--builtins", default=str(seed_path("builtins.json")))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compile_lexicon)

    p = sub.add_parser("corpus", help="translate and verify a corpus file")
    p.add_argument("corpus")
    p.add_argument("--lexicon")
    p.add_argument("--report", help="line-delimited JSON report path")
    p.add_argument("--tolerance", type=float, default=verify.DEFAULT_TOLERANCE)
    p.add_argument("--points", type=int, default=verify.DEFAULT_POINTS)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("roundtrip", help="run a round-trip fixed-point test")
    p.add_argument("input")
    p.add_argument("--side", choices=[verify.SEMANTIC_LATEX, verify.MAPLE_SIDE],
                   default=verify.SEMANTIC_LATEX)
    p.add_argument("--max-steps", type=int, default=12)
    p.add_argument("--lexicon")
    p.add_argument("--no-divide", action="store_true")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("inert", help="print the inert form as a nested list")
    p.add_argument("input")
    p.add_argument("--compat-prefix", action="store_true",
                   help="emit _Inert_ tag prefixes")
    p.add_argument("--preprocess", action="store_true")
    p.add_argument("--no-divide", action="store_true")
    p.set_defaults(func=_cmd_inert)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
