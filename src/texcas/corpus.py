"""Corpus runs: read a TSV of semantic-LaTeX relations, translate each to
Maple, check it, and classify it as the evaluation harness does (verified,
translated-unverified, unknown macro, errored, ignored).

A record is a relation exactly when its Maple text parses to an ``=`` at the
root; the two sides of that ``EQUATION`` are checked for equivalence.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

from . import inert, verify
from .errors import CorpusFormatError, TexcasError, UnknownMacro
from .forward import translate_string
from .lexicon import MAPLE, Lexicon, Record


class CorpusRecord(Record):
    __slots__ = ("id", "semantic_latex")

    def __init__(self, id: str, semantic_latex: str):
        self.id = id
        self.semantic_latex = semantic_latex


class CorpusStats(Record):
    __slots__ = ("total", "translated", "verified", "translated_unverified",
                 "untranslated_unknown_macro", "errored", "ignored")

    def __init__(self, total: int = 0, translated: int = 0, verified: int = 0,
                 translated_unverified: int = 0, untranslated_unknown_macro: int = 0,
                 errored: int = 0, ignored: int = 0):
        self.total = total
        self.translated = translated
        self.verified = verified
        self.translated_unverified = translated_unverified
        self.untranslated_unknown_macro = untranslated_unknown_macro
        self.errored = errored
        self.ignored = ignored

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


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
                raise CorpusFormatError(f"{path}:{lineno}: expected id<TAB>formula")
            rid = parts[0]
            if rid in seen:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate id {rid}")
            seen.add(rid)
            records.append(CorpusRecord(rid, parts[1]))  # later columns ignored
    return records


def run_corpus(records: List[CorpusRecord], lex: Lexicon,
               tolerance: float = verify.DEFAULT_TOLERANCE,
               points: int = verify.DEFAULT_POINTS,
               seed: int = verify.DEFAULT_SEED) -> Tuple[CorpusStats, List[dict]]:
    """Translate and verify every record, in id order; returns the stats and
    one log entry per record."""
    verify.check_options(tolerance, points)
    log: List[dict] = []
    for record in sorted(records, key=lambda r: r.id):
        entry = {"id": record.id, "semantic_latex": record.semantic_latex}
        log.append(entry)
        try:
            entry["maple"] = translate_string(record.semantic_latex, lex, MAPLE).output
            tree = inert.parse_maple(entry["maple"])
            if tree.tag != inert.EQUATION:
                entry.update(classification="ignored", reason="not a relation")
                continue
            verdict = verify.check_equivalence(
                *tree.children, tolerance=tolerance, points=points, seed=seed)
        except UnknownMacro as exc:
            entry.update(classification="untranslated-unknown-macro",
                         error=str(exc))
            continue
        except TexcasError as exc:
            entry.update(classification="errored", error=str(exc))
            continue
        entry["outcome"] = verdict.outcome
        worst = verdict.max_abs_difference
        if worst is not None:
            entry["max_abs_difference"] = worst
        if verdict.outcome in ("symbolic-zero", "numeric-converged"):
            entry["classification"] = "verified"
        else:
            entry["classification"] = "translated-unverified"
            if verdict.reason:
                entry["reason"] = verdict.reason
    counts = Counter(e["classification"].replace("-", "_") for e in log)
    translated = counts["verified"] + counts["translated_unverified"] + counts["ignored"]
    return CorpusStats(total=len(log), translated=translated, **counts), log
