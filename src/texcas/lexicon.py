"""Translation knowledge base: macro records, constants, Greek letters, builtins.

The macro CSV and the three JSON side files compile into a single immutable
Lexicon, validated up front (placeholder ranges, duplicate names).  A compiled
lexicon round-trips through a single JSON document.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .errors import DuplicateMacro, PlaceholderOutOfRange, SchemaError


@dataclass(frozen=True)
class CASDialect:
    name: str
    mult_token: str


MAPLE = CASDialect("maple", "*")
MATHEMATICA = CASDialect("mathematica", " ")

DIALECTS = {"maple": MAPLE, "mathematica": MATHEMATICA}

# the trailing ``reverse`` column is optional, so 8-column sources still compile
CSV_COLUMNS = ["macro", "num_params", "num_vars", "at_variants",
               "dlmf_link", "maple", "mathematica", "advisories", "reverse"]

ADVISORY_KINDS = {"branch-cut", "domain", "definition-difference",
                  "no-direct-translation"}


@dataclass
class Advisory:
    kind: str
    text: str


@dataclass
class LexiconEntry:
    macro_name: str
    num_params: int = 0
    num_vars: int = 0
    at_variants: frozenset = frozenset()
    dlmf_link: Optional[str] = None
    translations: Dict[str, str] = field(default_factory=dict)
    advisories: List[Advisory] = field(default_factory=list)
    role: str = "function"  # function | constant | greek-letter | operator
    source: str = "lexicon"  # lexicon | builtin
    # semantic-LaTeX template over the Maple call's arguments, for Maple
    # templates that are not a plain call with distinct placeholders
    reverse: Optional[str] = None

    @property
    def arity(self) -> int:
        return self.num_params + self.num_vars


@dataclass
class ConstantRecord:
    semantic_macro: str
    translations: Dict[str, str]  # dialect -> CAS string (absent = no translation)
    plain_letter_alias: Optional[str] = None
    advisory: Optional[str] = None
    suggest_for: Optional[str] = None  # generic command that may denote it


class Lexicon:
    """Immutable after compile; lookup is total over all compiled names."""

    def __init__(self, entries, constants, greek, builtins):
        self.entries: Dict[str, LexiconEntry] = entries
        self.constants: List[ConstantRecord] = constants
        self.greek: Dict[str, Dict[str, str]] = greek
        self.builtins: Dict[str, LexiconEntry] = builtins
        self._constant_entries = {c.semantic_macro: _constant_entry(c)
                                  for c in constants}
        self._greek_entries = {
            cmd: LexiconEntry(macro_name=cmd, translations=dict(renderings),
                              role="greek-letter", source="builtin")
            for cmd, renderings in greek.items()
        }
        # plain letter -> macro suggestion (\iunit, \expe, \CatalansConstant)
        self.letter_suggestions = {c.plain_letter_alias: c.semantic_macro
                                   for c in constants if c.plain_letter_alias}
        # generic command -> constant macro suggestion
        self.command_suggestions = {c.suggest_for: c.semantic_macro
                                    for c in constants if c.suggest_for}
        # (reverse rules, Maple name map) of backward translation, which
        # builds them on first use so loading a lexicon does not pay for them
        self.reverse_tables = None

    def lookup(self, name: str) -> Optional[LexiconEntry]:
        for table in (self.entries, self.builtins, self._greek_entries,
                      self._constant_entries):
            entry = table.get(name)
            if entry is not None:
                return entry
        return None

    # --- persistence -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "entries": {n: _entry_to_json(e) for n, e in sorted(self.entries.items())},
            "constants": [
                {"macro": c.semantic_macro, "translations": c.translations,
                 "alias": c.plain_letter_alias, "advisory": c.advisory,
                 "suggest_for": c.suggest_for}
                for c in self.constants
            ],
            "greek": self.greek,
            "builtins": {n: _entry_to_json(e)
                         for n, e in sorted(self.builtins.items())},
        }

    @staticmethod
    def from_json(doc: dict) -> "Lexicon":
        entries = {n: _entry_from_json(n, d, "lexicon")
                   for n, d in doc["entries"].items()}
        builtins = {n: _entry_from_json(n, d, "builtin")
                    for n, d in doc["builtins"].items()}
        constants = [ConstantRecord(c["macro"], c["translations"],
                                    c.get("alias"), c.get("advisory"),
                                    c.get("suggest_for"))
                     for c in doc["constants"]]
        return Lexicon(entries, constants, doc["greek"], builtins)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "Lexicon":
        with open(path, encoding="utf-8") as fh:
            try:
                return Lexicon.from_json(json.load(fh))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise SchemaError(path, 1, "not a compiled lexicon: "
                                  f"{type(exc).__name__}: {exc}")


def _constant_entry(c: ConstantRecord) -> LexiconEntry:
    advisories = []
    if c.advisory:
        advisories.append(Advisory("no-direct-translation", c.advisory))
    return LexiconEntry(macro_name=c.semantic_macro, translations=dict(c.translations),
                        advisories=advisories, role="constant", source="lexicon")


def _entry_to_json(e: LexiconEntry) -> dict:
    return {
        "num_params": e.num_params,
        "num_vars": e.num_vars,
        "at_variants": sorted(e.at_variants),
        "dlmf_link": e.dlmf_link,
        "translations": e.translations,
        "advisories": [{"kind": a.kind, "text": a.text} for a in e.advisories],
        "role": e.role,
        "reverse": e.reverse,
    }


def _entry_from_json(name: str, d: dict, source: str) -> LexiconEntry:
    return LexiconEntry(
        macro_name=name,
        num_params=d["num_params"],
        num_vars=d["num_vars"],
        at_variants=frozenset(d["at_variants"]),
        dlmf_link=d.get("dlmf_link"),
        translations=d["translations"],
        advisories=[Advisory(a["kind"], a["text"]) for a in d.get("advisories", [])],
        role=d.get("role", "function"),
        source=source,
        reverse=d.get("reverse"),
    )


# --- compilation ----------------------------------------------------------

_CALL_RE = re.compile(r"([A-Za-z_]\w*)\((.*)\)")


def call_shape(template: str) -> Optional[Tuple[str, int]]:
    """Function name and argument count of a Maple template that is one call."""
    m = _CALL_RE.fullmatch(template)
    if m is None:
        return None
    depth, arity = 0, 1
    for ch in m.group(2):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            return None
        arity += ch == "," and depth == 0
    return m.group(1), arity


def _check_placeholders(entry: LexiconEntry, file, line) -> None:
    checks = [(t, entry.arity) for t in entry.translations.values()]
    if entry.reverse is not None:
        # reverse placeholders index the arguments of the Maple call
        shape = call_shape(entry.translations.get("maple", ""))
        if shape is None:
            raise SchemaError(file, line, f"{entry.macro_name}: a reverse "
                              "template needs a Maple pattern that is one call")
        checks.append((entry.reverse, shape[1]))
    for template, arity in checks:
        for m in re.finditer(r"\$(\d+)", template):
            idx = int(m.group(1))
            if not 0 <= idx < arity:
                raise PlaceholderOutOfRange(entry.macro_name, idx)


def _parse_int(value, file, line, what) -> int:
    try:
        n = int(value)
    except ValueError:
        raise SchemaError(file, line, f"{what} must be an integer, got {value!r}")
    if n < 0:
        raise SchemaError(file, line, f"{what} must be nonnegative")
    return n


def _parse_advisories(cell, file, line) -> List[Advisory]:
    advisories = []
    if not cell:
        return advisories
    for part in cell.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise SchemaError(file, line, f"advisory {part!r} is not kind:text")
        kind, text = part.split(":", 1)
        if kind not in ADVISORY_KINDS:
            raise SchemaError(file, line, f"unknown advisory kind {kind!r}")
        advisories.append(Advisory(kind, text.strip()))
    return advisories


def compile_macro_csv(path) -> Dict[str, LexiconEntry]:
    entries: Dict[str, LexiconEntry] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames not in (CSV_COLUMNS, CSV_COLUMNS[:-1]):
            raise SchemaError(path, 1,
                              f"header must be {','.join(CSV_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if None in (row[c] for c in CSV_COLUMNS[:-1]):
                raise SchemaError(path, lineno, f"expected at least "
                                  f"{len(CSV_COLUMNS) - 1} cells")
            name = row["macro"].strip()
            if not name.startswith("\\"):
                raise SchemaError(path, lineno, f"macro {name!r} must start with a backslash")
            if name in entries:
                raise DuplicateMacro(name)
            at_cell = row["at_variants"].strip()
            try:
                variants = frozenset(int(v) for v in at_cell.split("|") if v != "")
            except ValueError:
                raise SchemaError(path, lineno, f"bad at_variants {at_cell!r}")
            if not variants <= {0, 1, 2, 3}:
                raise SchemaError(path, lineno, "at_variants must be within {0,1,2,3}")
            translations = {}
            for dialect in DIALECTS:
                cell = row[dialect].strip()
                if cell:
                    translations[dialect] = cell
            entry = LexiconEntry(
                macro_name=name,
                num_params=_parse_int(row["num_params"], path, lineno, "num_params"),
                num_vars=_parse_int(row["num_vars"], path, lineno, "num_vars"),
                at_variants=variants,
                dlmf_link=row["dlmf_link"].strip() or None,
                translations=translations,
                advisories=_parse_advisories(row["advisories"], path, lineno),
                role="function",
                source="lexicon",
                # absent in 8-column sources and None in short rows
                reverse=(row.get("reverse") or "").strip() or None,
            )
            _check_placeholders(entry, path, lineno)
            entries[name] = entry
    return entries


def _load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError(path, 1, "top level must be a JSON object")
    return doc


def compile_lexicon(macro_csv, constants_json, greek_json, builtins_json) -> Lexicon:
    """Compile the four source files into a validated Lexicon."""
    entries = compile_macro_csv(macro_csv)

    constants = []
    for name, d in _load_json(constants_json).items():
        alias = d.get("alias")
        if alias is not None and alias not in ("i", "e", "C"):
            raise SchemaError(constants_json, 1,
                              f"{name}: alias must be one of i, e, C")
        translations = {k: v for k, v in d.items()
                        if k in DIALECTS and v is not None}
        constants.append(ConstantRecord(name, translations, alias,
                                        d.get("advisory"), d.get("suggest_for")))

    greek = {}
    for cmd, d in _load_json(greek_json).items():
        missing = [dl for dl in DIALECTS if dl not in d]
        if missing:
            raise SchemaError(greek_json, 1, f"{cmd}: missing dialects {missing}")
        greek[cmd] = {dl: d[dl] for dl in DIALECTS}

    builtins = {}
    for name, d in _load_json(builtins_json).items():
        if name in builtins:
            raise DuplicateMacro(name)
        entry = LexiconEntry(
            macro_name=name,
            num_params=d.get("num_params", 0),
            num_vars=d.get("num_vars", 0),
            at_variants=frozenset(d.get("at_variants", [0])),
            dlmf_link=d.get("dlmf_link"),
            translations={k: v for k, v in d.items() if k in DIALECTS},
            advisories=[Advisory(a["kind"], a["text"])
                        for a in d.get("advisories", [])],
            role=d.get("role", "function"),
            source="builtin",
            reverse=d.get("reverse"),
        )
        _check_placeholders(entry, builtins_json, 1)
        builtins[name] = entry

    return Lexicon(entries, constants, greek, builtins)


_DEFAULT: Optional[Lexicon] = None


def seed_path(name: str):
    return resources.files("texcas").joinpath("data").joinpath(name)


def load_default() -> Lexicon:
    """The seed lexicon shipped with the package (compiled once, cached)."""
    global _DEFAULT
    if _DEFAULT is None:
        data = resources.files("texcas").joinpath("data")
        _DEFAULT = compile_lexicon(
            data / "macros.csv",
            data / "constants.json",
            data / "greek.json",
            data / "builtins.json",
        )
    return _DEFAULT
