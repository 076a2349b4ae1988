"""Semantic LaTeX -> CAS translation by recursive per-node pattern substitution."""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .errors import (ArityMismatch, NoDirectTranslation, TranslationError,
                     UnknownMacro)
from .lexicon import DIALECTS, Lexicon, LexiconEntry, Record, fill
from .scanner import LEADS, DelimiterClass, MathTerm, PomTree, TermKind, scan


class InfoMessage(Record):
    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str):
        self.kind = kind  # constant-suggestion | branch-cut | domain | dlmf-link | ...
        self.text = text


class TranslationResult(Record):
    __slots__ = ("output", "infos")

    def __init__(self, output: str, infos: Optional[List[InfoMessage]] = None):
        self.output = output
        self.infos = [] if infos is None else infos


# the members the walk compares, bound once: on Python 3.11 each
# ``TermKind.X`` goes through ``EnumType.__getattr__``, several times the cost
# of a global (3.12 dropped that hook)
_MACRO, _GREEK = TermKind.MACRO_COMMAND, TermKind.GREEK_LETTER_COMMAND
_LETTER, _DIGITS = TermKind.LATIN_LETTER, TermKind.DIGIT_SEQUENCE
_OPERATOR, _RELATION = TermKind.OPERATOR_SYMBOL, TermKind.RELATION_SYMBOL
_CARET, _UNDERSCORE, _AT = TermKind.CARET, TermKind.UNDERSCORE, TermKind.AT_MARKER
_CURLY, _OPTIONAL, _PAREN = (DelimiterClass.CURLY, DelimiterClass.BRACKET_OPTIONAL,
                             DelimiterClass.PAREN)

_ATOMIC_RE = re.compile(r"^(\d+(\.\d+)?|[A-Za-z][A-Za-z0-9_]*|\\\[[A-Za-z]+\])$")
# a placeholder in brackets of its own: ($0) is one, a call's sin($0) is not
_BARE_RE = re.compile(r"(?<!\w)\((\$\d+)\)")


class _Unit(Record):
    __slots__ = ("text", "kind", "compact")

    def __init__(self, text: str, kind: str, compact: Optional[str] = None):
        self.text = text
        self.kind = kind  # atom | group | frac | other
        self.compact = compact  # a fraction's text standing alone


def unique_infos(pairs) -> List[InfoMessage]:
    """One info per distinct (kind, text) pair, in the order first seen."""
    return [InfoMessage(kind, text) for kind, text in dict.fromkeys(pairs)]


class _Context:
    def __init__(self, lex: Lexicon, dialect: str, leaves: dict):
        self.lex = lex
        self.dialect = dialect
        self.leaves = leaves  # _leaf_table(lex, dialect), or {} to build it
        self.infos: List[Tuple[str, str]] = []  # (kind, text), repeats kept

    def product(self) -> str:  # \idt's template spells every product
        return _template(self.lex.product, "\\idt", self.dialect)

    def add_info(self, kind: str, text: str) -> None:
        self.infos.append((kind, text))

    def note_entry(self, entry: LexiconEntry) -> None:
        if entry.dlmf_link:
            self.add_info("dlmf-link", f"{entry.macro_name}: {entry.dlmf_link}")
        for adv in entry.advisories:
            self.add_info(adv.kind, f"{entry.macro_name}: {adv.text}")


def translate_forward(tree: PomTree, lex: Lexicon, dialect: str) -> TranslationResult:
    """Translate a first-scan tree into a CAS expression string in the
    dialect of that name, a key of ``DIALECTS`` (else ``TranslationError``).

    Each macro is rendered by placeholder substitution into the patterns of
    the entry that ``scan`` attached to its term (no entry: ``UnknownMacro``).
    ``lex``, which the tree should be scanned with, gives the constant
    suggestions and the ``\\sqrt[n]`` and product templates.  The tree
    hierarchy is preserved.  Bare Latin letters and generic Greek commands
    that could denote constants are passed through untouched with a
    constant-suggestion info.
    """
    if not (isinstance(dialect, str) and dialect in DIALECTS):
        raise TranslationError(f"unknown dialect {dialect!r}: not one of "
                               f"{', '.join(DIALECTS)}")
    if lex.leaf_tables is None:
        lex.leaf_tables = {name: _leaf_table(lex, name) for name in DIALECTS}
    ctx = _Context(lex, dialect, lex.leaf_tables[dialect])
    children = tree.children if tree.is_sequence else [tree]
    output = _translate_sequence(children, ctx)
    return TranslationResult(output=output, infos=unique_infos(ctx.infos))


def translate_string(text: str, lex: Lexicon, dialect: str) -> TranslationResult:
    return translate_forward(scan(text, lex), lex, dialect)


# --- leaf table -------------------------------------------------------------

def _leaf_table(lex: Lexicon, dialect: str) -> dict:
    """lexeme -> (entry, item, info pairs) of every leaf that translates the
    same wherever it stands: Latin letters, operator and relation symbols,
    and the lexicon's Greek letters, constants and operators (\\idt).  The
    entry is a macro's, None for any other leaf.  Each item is built once, by
    the walk itself; a leaf without a template in the dialect is left out, so
    each occurrence still raises NoDirectTranslation.  Every translation
    shares these items: no stage may change a cached ``_Unit``."""
    # the walk reads a macro term's entry, not which macro kind it has; the
    # symbols come last, so a side-file name without a backslash that spells
    # one cannot displace it
    leaves = [(name, _MACRO, entry) for name, entry in lex.names.items()
              if entry.role != "function"]
    leaves += [(lexeme, kind, None) for lexeme, kind in LEADS.items()
               if kind is _LETTER or kind is _OPERATOR or kind is _RELATION]
    ctx = _Context(lex, dialect, {})
    table = {}
    for lexeme, kind, entry in leaves:
        ctx.infos = []
        term = MathTerm(lexeme, kind, 0, entry and [entry])
        try:
            (item,), _ = _build_items([PomTree(term)], ctx)
        except NoDirectTranslation:
            continue
        table[lexeme] = (entry, item, tuple(ctx.infos))
    return table


# --- sequence translation ---------------------------------------------------

def _translate_sequence(children: List[PomTree], ctx: _Context) -> str:
    items, has_scripts = _build_items(children, ctx)
    if has_scripts:
        _resolve_scripts(items, ctx)
    return _assemble(items, ctx)


def _build_items(children: List[PomTree], ctx: _Context) -> Tuple[List[tuple], bool]:
    """The sequence's items, and whether any is a caret or underscore."""
    items: List[tuple] = []
    has_scripts = False
    leaf_of = ctx.leaves.get
    i = 0
    n = len(children)
    while i < n:
        node = children[i]
        term = node.term
        if term is None:  # a group
            inner = _translate_sequence(node.children, ctx)
            if node.delimiter_class is not _PAREN and _ATOMIC_RE.match(inner):
                items.append(("val", _Unit(inner, "atom")))
            else:
                items.append(("val", _Unit(f"({inner})", "group")))
            i += 1
            continue
        leaf = leaf_of(term.lexeme)
        # a macro's cached item serves only the entry it was built from
        if leaf is not None and leaf[0] is (term.tentative_features[0]
                                            if term.tentative_features else None):
            items.append(leaf[1])
            if leaf[2]:
                ctx.infos += leaf[2]
            i += 1
            continue
        kind = term.kind
        if kind is _MACRO or kind is _GREEK:
            item, i = _translate_macro(children, i, ctx)
            items.append(item)
            continue
        if kind is _DIGITS:
            text = term.lexeme
            # re-fuse decimal literals split by the shallow first scan
            if i + 2 < n:
                point = children[i + 1].term
                frac = children[i + 2].term
                if point is not None and point.lexeme == "." and frac is not None \
                        and frac.kind is _DIGITS:
                    text = f"{text}.{frac.lexeme}"
                    i += 2
            items.append(("val", _Unit(text, "atom")))
        elif kind is _CARET:
            items.append(("caret", None))
            has_scripts = True
        elif kind is _UNDERSCORE:
            items.append(("subscript", None))
            has_scripts = True
        elif kind is _LETTER:
            suggestion = ctx.lex.letter_suggestions.get(term.lexeme)
            if suggestion:
                ctx.add_info("constant-suggestion",
                             f"letter '{term.lexeme}' may denote the constant "
                             f"{suggestion}; it is translated as a plain letter")
            items.append(("val", _Unit(term.lexeme, "atom")))
        elif kind is _OPERATOR:
            lex = term.lexeme
            items.append(("op", ctx.product() if lex == "*" else lex))
        elif kind is _RELATION:
            items.append(("op", " = " if term.lexeme == "=" else term.lexeme))
        elif kind is _AT:
            raise TranslationError(f"stray at-marker at position {term.position}")
        else:
            raise TranslationError(f"cannot translate reserved symbol {term.lexeme!r}")
        i += 1
    return items, has_scripts


def _translate_macro(children: List[PomTree], i: int, ctx: _Context) -> Tuple[tuple, int]:
    term = children[i].term
    name = term.lexeme
    if not term.tentative_features:
        raise UnknownMacro(name)
    entry = term.tentative_features[0]

    if entry.role == "operator":
        # \idt: multiplication with no presentation appearance
        return ("op", _template(entry, name, ctx.dialect)), i + 1

    if entry.role == "greek-letter":
        text = _template(entry, name, ctx.dialect)
        suggestion = ctx.lex.command_suggestions.get(name)
        if suggestion:
            ctx.add_info("constant-suggestion",
                         f"command '{name}' may denote the constant {suggestion};"
                         f" it is translated as a Greek letter")
        return ("val", _Unit(text, "atom")), i + 1

    if entry.role == "constant":
        template = _template(entry, name, ctx.dialect)
        ctx.note_entry(entry)
        kind = "atom" if _ATOMIC_RE.match(template) else "other"
        return ("val", _Unit(template, kind)), i + 1

    # function role: \sqrt's optional [order], the parameter groups, an @ run
    # of a length the entry lists, then the variable groups
    j = i + 1
    order = None
    if name == "\\sqrt" and j < len(children) \
            and children[j].delimiter_class is _OPTIONAL:
        order = _translate_sequence(children[j].children, ctx)
        j += 1
    args: List[str] = []
    for _ in range(entry.num_params):
        if j >= len(children) or not _is_curly(children[j]):
            raise ArityMismatch(name, entry.arity, len(args))
        args.append(_translate_sequence(children[j].children, ctx))
        j += 1
    if entry.num_vars > 0:
        at = children[j].term if j < len(children) else None
        ats = len(at.lexeme) if at is not None and at.kind is _AT else 0
        if ats not in entry.at_variants:
            raise ArityMismatch(name, entry.arity, len(args))
        if ats:
            j += 1  # every listed @-variant translates identically
        for _ in range(entry.num_vars):
            if j >= len(children) or not _is_curly(children[j]):
                raise ArityMismatch(name, entry.arity, len(args))
            args.append(_translate_sequence(children[j].children, ctx))
            j += 1

    if order is None:
        template = _template(entry, name, ctx.dialect)
    else:  # \sqrt[n]{x} is \root{x}{n}
        args.append(order)
        template = _template(ctx.lex.lookup("\\root"), name, ctx.dialect)
    ctx.note_entry(entry)
    text = fill(template, args)
    if name != "\\frac":
        return ("val", _Unit(text, "other")), j
    # a fraction of atoms has a compact form, without the bare brackets
    compact = text
    if all(map(_ATOMIC_RE.match, args)):
        compact = fill(_BARE_RE.sub(r"\1", template), args)
    return ("val", _Unit(text, "frac", compact)), j


def _template(entry: Optional[LexiconEntry], name: str, dialect: str) -> str:
    """The entry's template in the dialect, which it must have; no entry
    has no template."""
    template = entry and entry.translations.get(dialect)
    if template is None:
        raise NoDirectTranslation(name, dialect)
    return template


def _is_curly(node: PomTree) -> bool:
    return node.delimiter_class is _CURLY


# --- caret / subscript resolution -------------------------------------------

def _resolve_scripts(items: List[tuple], ctx: _Context) -> None:
    """Splice each script with its base and argument, rightmost first, in
    one right-to-left pass: a splice leaves the items left of it in place."""
    for k in range(len(items) - 1, -1, -1):
        tag = items[k][0]
        if tag != "caret" and tag != "subscript":
            continue
        if k == 0 or k == len(items) - 1 \
                or items[k - 1][0] != "val" or items[k + 1][0] != "val":
            raise TranslationError("script symbol without base or argument")
        base = items[k - 1][1]
        arg = items[k + 1][1]
        if tag == "caret":
            text = f"{_power_base(base)}^{_power_exponent(arg)}"
        else:
            text = fill(DIALECTS[ctx.dialect], [_power_base(base), arg.text])
        items[k - 1:k + 2] = [("val", _Unit(text, "other"))]


def _power_base(unit: _Unit) -> str:
    """A script's base: never a spliced unit, as scripts resolve rightmost
    first."""
    if unit.kind == "frac":
        return f"({unit.text})"
    return unit.text


def _power_exponent(unit: _Unit) -> str:
    """An exponent: bracketed unless it is an atom or a group."""
    if unit.kind == "other":
        return f"({unit.text})"
    return _power_base(unit)  # an atom, a group or a bracketed fraction


# --- assembly ---------------------------------------------------------------

def _assemble(items: List[tuple], ctx: _Context) -> str:
    parts: List[str] = []
    prev_value = False
    for k, (tag, payload) in enumerate(items):
        if tag == "op":
            parts.append(payload)
            prev_value = False
            continue
        unit = payload
        implicit = prev_value
        text = unit.text
        if unit.kind == "frac":
            # a fraction alone or beside a value is written compactly
            if len(items) == 1:
                text = unit.compact
            elif implicit or (k + 1 < len(items) and items[k + 1][0] == "val"):
                text = f"({unit.compact})"
        if implicit:
            parts.append(ctx.product())
        parts.append(text)
        prev_value = True
    out = "".join(parts).strip()
    if not out:
        raise TranslationError("translation produced empty output")
    return out
