"""Translation knowledge base: macro records, constants, Greek letters, builtins.

The macro CSV and the three JSON side files compile into a single immutable
Lexicon; one function builds and validates every record, whichever input it
comes from.  A compiled lexicon round-trips through a single JSON document.
"""

from __future__ import annotations

import csv
import io
import json
import re
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import DuplicateMacro, PlaceholderOutOfRange, SchemaError


# a dialect is passed by its name, the key of its subscript template over
# the base ($0) and the index ($1): the one piece of syntax no entry spells
MAPLE = "maple"
MATHEMATICA = "mathematica"

DIALECTS = {MAPLE: "$0[$1]", MATHEMATICA: "Subscript[$0, $1]"}

# the two sides a round trip alternates between
SEMANTIC_LATEX = "semantic-latex"
MAPLE_SIDE = "maple"

# the trailing ``reverse`` column is optional, so 8-column sources still compile
CSV_COLUMNS = ["macro", "num_params", "num_vars", "at_variants", "dlmf_link",
               *DIALECTS, "advisories", "reverse"]

ADVISORY_KINDS = {"branch-cut", "domain", "definition-difference",
                  "no-direct-translation"}

ROLES = ("function", "constant", "greek-letter", "operator")


class Record:
    """A value record: equality and a repr over its ``__slots__``, in order,
    and no hash.  Each record writes its own ``__init__``."""

    __slots__ = ()
    __hash__ = None  # a record may change after it is built

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class Advisory(Record):
    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str):
        self.kind = kind
        self.text = text


class LexiconEntry(Record):
    __slots__ = ("macro_name", "num_params", "num_vars", "at_variants",
                 "dlmf_link", "translations", "advisories", "role", "reverse")

    def __init__(self, macro_name: str, num_params: int, num_vars: int,
                 at_variants: frozenset, dlmf_link: Optional[str],
                 translations: Dict[str, str], advisories: List[Advisory],
                 role: str, reverse: Optional[str]):
        self.macro_name = macro_name
        self.num_params = num_params
        self.num_vars = num_vars
        self.at_variants = at_variants
        self.dlmf_link = dlmf_link
        self.translations = translations
        self.advisories = advisories
        self.role = role  # one of ROLES
        # semantic-LaTeX template over the Maple call's arguments, for Maple
        # templates that are not a plain call with distinct placeholders
        self.reverse = reverse

    @property
    def arity(self) -> int:
        return self.num_params + self.num_vars


class ConstantRecord(Record):
    __slots__ = ("entry", "plain_letter_alias", "advisory", "suggest_for")

    def __init__(self, entry: LexiconEntry, plain_letter_alias: Optional[str] = None,
                 advisory: Optional[str] = None, suggest_for: Optional[str] = None):
        self.entry = entry  # role constant: the name, translations and advisory
        self.plain_letter_alias = plain_letter_alias
        self.advisory = advisory
        self.suggest_for = suggest_for  # generic command that may denote it

    @property
    def semantic_macro(self) -> str:
        return self.entry.macro_name

    @property
    def translations(self) -> Dict[str, str]:
        return self.entry.translations  # dialect -> CAS string (absent = none)


class Lexicon:
    """Immutable after compile; lookup is total over all compiled names."""

    def __init__(self, entries, constants, greek, builtins):
        self.entries: Dict[str, LexiconEntry] = entries
        self.constants: List[ConstantRecord] = constants
        self.greek: Dict[str, Dict[str, str]] = {  # from greek-letter entries
            cmd: e.translations for cmd, e in greek.items()}
        self.builtins: Dict[str, LexiconEntry] = builtins
        # every name once: the CSV shadows builtins, builtins shadow Greek
        # letters and Greek letters shadow constants
        self.names: Dict[str, LexiconEntry] = {
            **{c.semantic_macro: c.entry for c in constants},
            **greek, **builtins, **entries}
        # the entry whose templates spell every product forward writes
        self.product: Optional[LexiconEntry] = self.names.get("\\idt")
        # plain letter -> macro suggestion (\iunit, \expe, \CatalansConstant)
        self.letter_suggestions = {c.plain_letter_alias: c.semantic_macro
                                   for c in constants if c.plain_letter_alias}
        # generic command -> constant macro suggestion
        self.command_suggestions = {c.suggest_for: c.semantic_macro
                                    for c in constants if c.suggest_for}
        # (reverse rules, Maple name map) of backward translation, which
        # builds them on first use so loading a lexicon does not pay for them
        self.reverse_tables = None
        # dialect -> forward's table of the leaves it writes the same way at
        # every occurrence, each stored when a translation first meets it
        self.leaf_tables = None

    def lookup(self, name: str) -> Optional[LexiconEntry]:
        return self.names.get(name)

    # --- persistence -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "entries": {n: _entry_to_json(e) for n, e in sorted(self.entries.items())},
            "constants": [
                {"macro": c.semantic_macro, "translations": dict(c.translations),
                 "alias": c.plain_letter_alias, "advisory": c.advisory,
                 "suggest_for": c.suggest_for}
                for c in self.constants
            ],
            "greek": {cmd: dict(t) for cmd, t in self.greek.items()},
            "builtins": {n: _entry_to_json(e)
                         for n, e in sorted(self.builtins.items())},
        }

    @staticmethod
    def from_json(doc: dict, file="<compiled lexicon>") -> "Lexicon":
        try:
            entries = {n: _make_entry(n, d, file) for n, d in doc["entries"].items()}
            builtins = {n: _make_entry(n, d, file) for n, d in doc["builtins"].items()}
            greek = _greek(doc["greek"], file)
            constants = [_constant(c["macro"], c, file) for c in doc["constants"]]
        except (KeyError, TypeError, AttributeError) as exc:
            raise SchemaError(file, 1, "not a compiled lexicon: "
                              f"{type(exc).__name__}: {exc}")
        return _check_root(Lexicon(entries, constants, greek, builtins),
                           lambda name: file)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "Lexicon":
        return Lexicon.from_json(_load_json(path), path)


def _entry_to_json(e: LexiconEntry) -> dict:
    return {"num_params": e.num_params, "num_vars": e.num_vars,
            "at_variants": sorted(e.at_variants), "dlmf_link": e.dlmf_link,
            "translations": dict(e.translations),
            "advisories": [{"kind": a.kind, "text": a.text} for a in e.advisories],
            "role": e.role, "reverse": e.reverse}


# --- templates ------------------------------------------------------------

PLACEHOLDER_RE = re.compile(r"\$(\d+)")


@lru_cache(maxsize=1024)
def _pieces(template: str) -> Tuple[str, Tuple[Tuple[int, str], ...]]:
    """The text before the first placeholder, and (index, text after) of each."""
    parts = PLACEHOLDER_RE.split(template)
    return parts[0], tuple(zip(map(int, parts[1::2]), parts[2::2]))


def fill(template: str, args: List[str]) -> str:
    """The template with each placeholder ``$i`` replaced by ``args[i]``; it
    is split at its placeholders once (the splits are cached)."""
    head, rest = _pieces(template)
    out = [head]
    for i, text in rest:
        out += (args[i], text)
    return "".join(out)


_CALL_RE = re.compile(r"([A-Za-z_]\w*)\((.*)\)")


def call_shape(template: str) -> Optional[Tuple[str, List[str]]]:
    """Function name and argument texts of a Maple template that is one call."""
    m = _CALL_RE.fullmatch(template)
    if m is None:
        return None
    depth, args = 0, [""]
    for ch in m.group(2):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            return None
        if ch == "," and depth == 0:
            args.append("")
        else:
            args[-1] += ch
    return m.group(1), args


def _check_placeholders(entry: LexiconEntry, file, line) -> None:
    checks = [(t, entry.arity) for t in entry.translations.values()]
    if entry.reverse is not None:
        # reverse placeholders index the arguments of the Maple call
        shape = call_shape(entry.translations.get(MAPLE, ""))
        if shape is None:
            raise SchemaError(file, line, f"{entry.macro_name}: a reverse "
                              "template needs a Maple pattern that is one call")
        checks.append((entry.reverse, len(shape[1])))
    for template, arity in checks:
        for m in PLACEHOLDER_RE.finditer(template):
            idx = int(m.group(1))
            if not 0 <= idx < arity:
                raise PlaceholderOutOfRange(entry.macro_name, idx, file, line)


# --- validation -----------------------------------------------------------

def _is_count(v) -> bool:
    # a bool is no count; TeX reads at most nine arguments of a macro
    return type(v) is int and 0 <= v <= 9


def _is_text(v) -> bool:
    return v is None or isinstance(v, str)


# (field, check, what the check wants) for every field of a record
_FIELD_CHECKS = (
    ("num_params", _is_count, "an integer from 0 to 9"),
    ("num_vars", _is_count, "an integer from 0 to 9"),
    ("at_variants", lambda v: isinstance(v, list) and all(
        type(n) is int and 0 <= n <= 3 for n in v), "a list within 0, 1, 2, 3"),
    ("dlmf_link", _is_text, "text or null"),
    ("translations", lambda v: isinstance(v, dict) and all(
        k in DIALECTS and isinstance(t, str) for k, t in v.items()),
     f"an object from {', '.join(DIALECTS)} to text"),
    ("advisories", lambda v: isinstance(v, list) and all(
        isinstance(a, dict) and isinstance(a.get("kind"), str)
        and a["kind"] in ADVISORY_KINDS and isinstance(a.get("text"), str)
        for a in v), f"kind and text pairs, a kind one of "
     f"{', '.join(sorted(ADVISORY_KINDS))}"),
    ("role", lambda v: v in ROLES, f"one of {', '.join(ROLES)}"),
    ("reverse", _is_text, "text or null"),
)


def _make_entry(name, d, file, line=1, role=None) -> LexiconEntry:
    """Validate one JSON-shaped record and build its entry: the only place
    a ``LexiconEntry`` is built.  Templates sit under ``translations`` in a
    compiled lexicon and as top-level dialect keys (``null``: none) in the
    source files.  ``role`` overrides the record's own."""
    if not isinstance(d, dict):
        raise SchemaError(file, line, f"{name}: a record must be a JSON object")
    fields = {"num_params": 0, "num_vars": 0, "at_variants": [0],
              "dlmf_link": None, "advisories": [], "role": "function",
              "reverse": None, "translations": {
                  k: v for k, v in d.items() if k in DIALECTS and v is not None}}
    fields.update((k, d[k]) for k in list(fields) if k in d)
    fields["role"] = role or fields["role"]
    for key, check, wanted in _FIELD_CHECKS:
        if not check(fields[key]):
            raise SchemaError(file, line, f"{name}: {key} must be {wanted}, "
                              f"got {fields[key]!r}")
    if fields["num_vars"] and not fields["at_variants"]:
        raise SchemaError(file, line, f"{name}: a macro with variables must "
                          "list at least one @ count in at_variants")
    fields["at_variants"] = frozenset(fields["at_variants"])
    fields["advisories"] = [Advisory(a["kind"], a["text"])
                            for a in fields["advisories"]]
    entry = LexiconEntry(macro_name=name, **fields)
    _check_placeholders(entry, file, line)
    return entry


def _greek(doc: dict, file) -> Dict[str, LexiconEntry]:
    greek = {cmd: _make_entry(cmd, d, file, role="greek-letter")
             for cmd, d in doc.items()}
    for cmd, entry in greek.items():
        if len(entry.translations) < len(DIALECTS):
            raise SchemaError(file, 1, f"{cmd}: a Greek letter needs every dialect")
    return greek


def _constant(name, d, file) -> ConstantRecord:
    entry = _make_entry(name, d, file, role="constant")
    if entry.arity:  # a constant is a leaf: nothing would fill its placeholders
        raise SchemaError(file, 1, f"{name}: a constant takes no arguments, "
                          f"got num_params {entry.num_params} and num_vars "
                          f"{entry.num_vars}")
    alias, advisory, suggest_for = map(d.get, ("alias", "advisory", "suggest_for"))
    if alias not in (None, "i", "e", "C"):
        raise SchemaError(file, 1, f"{name}: alias must be one of i, e, C")
    if not (isinstance(name, str) and _is_text(advisory) and _is_text(suggest_for)):
        raise SchemaError(file, 1, f"{name}: the macro must be text, advisory "
                          "and suggest_for text or null")
    if advisory:
        entry.advisories = [Advisory("no-direct-translation", advisory)]
    return ConstantRecord(entry, alias, advisory, suggest_for)


# --- compilation ----------------------------------------------------------

def _cell_int(cell: str):
    """The cell as an int, or as text, which _make_entry refuses."""
    try:
        return int(cell) if cell.isdecimal() else cell
    except ValueError:  # more digits than int() converts
        return cell


def compile_macro_csv(path) -> Dict[str, LexiconEntry]:
    entries: Dict[str, LexiconEntry] = {}
    with io.StringIO(_read_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames not in (CSV_COLUMNS, CSV_COLUMNS[:-1]):
            raise SchemaError(path, 1,
                              f"header must be {','.join(CSV_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if None in (row[c] for c in CSV_COLUMNS[:-1]):
                raise SchemaError(path, lineno, f"expected at least "
                                  f"{len(CSV_COLUMNS) - 1} cells")
            # reverse is absent in 8-column sources and None in short rows
            cells = {c: (row.get(c) or "").strip() for c in CSV_COLUMNS}
            name = cells["macro"]
            if not name.startswith("\\"):
                raise SchemaError(path, lineno, f"macro {name!r} must start with a backslash")
            if name in entries:
                raise DuplicateMacro(name, path, lineno)
            record = {
                "num_params": _cell_int(cells["num_params"]),
                "num_vars": _cell_int(cells["num_vars"]),
                "at_variants": [_cell_int(v.strip())
                                for v in cells["at_variants"].split("|") if v],
                "dlmf_link": cells["dlmf_link"] or None,
                "translations": {dl: cells[dl] for dl in DIALECTS if cells[dl]},
                # an item without a colon has no text, which _make_entry refuses
                "advisories": [{"kind": k, "text": t.strip() if colon else None}
                               for k, colon, t in (p.strip().partition(":") for p in
                                                   cells["advisories"].split(";"))
                               if k or colon],
                "reverse": cells["reverse"] or None,
            }
            entries[name] = _make_entry(name, record, path, lineno)
    return entries


def _read_text(path) -> str:
    """A source file's text; a byte sequence that is not UTF-8 is a SchemaError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(path, data.count(b"\n", 0, exc.start) + 1,
                          f"not UTF-8: {exc}")


def _load_json(path) -> dict:
    """The JSON object in a file; a repeated key, at any depth, is refused."""
    def unique_keys(pairs) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            pos, key = _repeated_key(text)
            raise SchemaError(path, text.count("\n", 0, pos) + 1,
                              f"repeated key {key!r}")
        return doc

    text = _read_text(path)
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(path, getattr(exc, "lineno", 1), f"not JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError(path, 1, "top level must be a JSON object")
    return doc


def _repeated_key(text: str) -> Tuple[int, str]:
    """The offset and name of the first repeated key in the first object to
    close that repeats one: the key ``json.loads``'s pairs hook refuses.
    Called only then, so the text is JSON up to the end of that object."""
    objects = []  # per open object: the keys seen and the repeats met
    for m in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}]', text):
        if m.group() == "{":
            objects.append((set(), []))
        elif m.group() == "}":
            repeats = objects.pop()[1]
            if repeats:
                return repeats[0]
        elif m.group(2):  # a string followed by a colon is a key
            seen, repeats = objects[-1]
            key = json.loads(m.group(1))
            if key in seen:
                repeats.append((m.start(), key))
            seen.add(key)
    raise AssertionError("no repeated key")


def compile_lexicon(macro_csv, constants_json, greek_json, builtins_json) -> Lexicon:
    """Compile the four source files into a validated Lexicon."""
    constants = [_constant(name, d, constants_json)
                 for name, d in _load_json(constants_json).items()]
    builtins = {name: _make_entry(name, d, builtins_json)
                for name, d in _load_json(builtins_json).items()}
    macros = compile_macro_csv(macro_csv)
    greek = _greek(_load_json(greek_json), greek_json)
    # where each name's entry comes from: the CSV shadows builtins, and so on
    sources = ((macros, macro_csv), (builtins, builtins_json), (greek, greek_json))
    return _check_root(Lexicon(macros, constants, greek, builtins), lambda name: next(
        (path for names, path in sources if name in names), constants_json))


def _check_root(lexicon: Lexicon, file_of) -> Lexicon:
    """Refuse a \\root that does not take \\sqrt's arguments and the order, which
    forward fills it with; ``file_of(name)`` is the file name's entry is from."""
    sqrt, root = lexicon.lookup("\\sqrt"), lexicon.lookup("\\root")
    if sqrt and root and root.arity != sqrt.arity + 1:
        sqrt_file = file_of("\\sqrt")
        raise SchemaError(file_of("\\root"), 1, (
            f"\\root must take \\sqrt's {sqrt.arity} argument(s) and the order; "
            f"it takes {root.arity} (\\sqrt comes from {sqrt_file})"))
    return lexicon


_DEFAULT: Optional[Lexicon] = None


def seed_path(name: str):
    return Path(__file__).resolve().parent / "data" / name


def load_default() -> Lexicon:
    """The seed lexicon shipped with the package (compiled once, cached)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = compile_lexicon(*map(seed_path, (
            "macros.csv", "constants.json", "greek.json", "builtins.json")))
    return _DEFAULT
