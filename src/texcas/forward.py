"""Semantic LaTeX -> CAS translation by recursive per-node pattern substitution."""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .errors import (ArityMismatch, NoDirectTranslation, TranslationError,
                     UnknownMacro)
from .lexicon import DIALECTS, Lexicon, LexiconEntry, Record, fill
from .scanner import DelimiterClass, MathTerm, PomTree, TermKind, scan


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
_MACRO, _LETTER = TermKind.MACRO_COMMAND, TermKind.LATIN_LETTER
_DIGITS = TermKind.DIGIT_SEQUENCE
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
        self.kind = kind  # atom | frac | other; a bracketed group is an atom
        self.compact = compact  # a fraction's text standing alone


def unique_infos(pairs) -> List[InfoMessage]:
    """One info per distinct (kind, text) pair, in the order first seen."""
    return [InfoMessage(kind, text) for kind, text in dict.fromkeys(pairs)]


class _Context:
    def __init__(self, lex: Lexicon, dialect: str):
        self.lex = lex
        self.dialect = dialect
        self.leaves = lex.leaf_tables[dialect]  # filled by _leaf
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
        lex.leaf_tables = {name: {} for name in DIALECTS}
    ctx = _Context(lex, dialect)
    output = _translate_sequence(tree.children, ctx)
    return TranslationResult(output=output, infos=unique_infos(ctx.infos))


def translate_string(text: str, lex: Lexicon, dialect: str) -> TranslationResult:
    return translate_forward(scan(text, lex), lex, dialect)


# --- sequence translation ---------------------------------------------------

def _translate_sequence(children: List[PomTree | MathTerm], ctx: _Context) -> str:
    items, has_scripts = _build_items(children, ctx)
    if has_scripts:
        _resolve_scripts(items, ctx)
    return _assemble(items, ctx)


def _build_items(children: List[PomTree | MathTerm], ctx: _Context) -> Tuple[List[tuple], bool]:
    """The sequence's items, and whether any is a caret or underscore."""
    items: List[tuple] = []
    has_scripts = False
    leaf_of = ctx.leaves.get
    i = 0
    n = len(children)
    while i < n:
        node = children[i]
        if not node.is_leaf:  # a group
            inner = _translate_sequence(node.children, ctx)
            if node.delimiter_class is _PAREN or not _ATOMIC_RE.match(inner):
                inner = f"({inner})"
            items.append(("val", _Unit(inner, "atom")))
            i += 1
            continue
        entry = node.entry
        leaf = leaf_of(node.lexeme)
        # a macro's stored item serves only the entry it was built from
        if leaf is not None and leaf[0] is entry:
            items.append(leaf[1])
            if leaf[2]:
                ctx.infos += leaf[2]
            i += 1
            continue
        if entry is not None and entry.role == "function":
            item, i = _translate_macro(children, i, entry, ctx)
            items.append(item)
            continue
        kind = node.kind
        if kind is _DIGITS:
            text = node.lexeme
            # re-fuse decimal literals split by the shallow first scan
            if i + 2 < n:
                point, frac = children[i + 1], children[i + 2]
                if point.is_leaf and point.lexeme == "." and frac.is_leaf \
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
        else:
            items.append(_leaf(node, entry, ctx))
        i += 1
    return items, has_scripts


def _leaf(term: MathTerm, entry: Optional[LexiconEntry], ctx: _Context) -> tuple:
    """The item of a leaf that translates the same wherever it stands: a
    Latin letter, an operator or relation symbol, or a Greek letter,
    constant or operator (\\idt) macro.  Its first occurrence stores the
    item, its entry and its info pairs in the leaf table, where every later
    translation shares them: no stage may change a stored ``_Unit``.  A leaf
    that does not translate raises and is never stored, and neither is an
    entry of a tree scanned with another lexicon: the table holds only the
    lexicon's names and the one-character symbols that translations met."""
    lexeme = term.lexeme
    kind = term.kind
    first = len(ctx.infos)
    if entry is not None:
        text = _template(entry, lexeme, ctx.dialect)
        if entry.role == "operator":
            # \idt: multiplication with no presentation appearance
            item = ("op", text)
        elif entry.role == "greek-letter":
            suggestion = ctx.lex.command_suggestions.get(lexeme)
            if suggestion:
                ctx.add_info("constant-suggestion",
                             f"command '{lexeme}' may denote the constant "
                             f"{suggestion}; it is translated as a Greek letter")
            item = ("val", _Unit(text, "atom"))
        else:  # a constant
            ctx.note_entry(entry)
            item = ("val", _Unit(text, "atom" if _ATOMIC_RE.match(text) else "other"))
    elif kind is _LETTER:
        suggestion = ctx.lex.letter_suggestions.get(lexeme)
        if suggestion:
            ctx.add_info("constant-suggestion",
                         f"letter '{lexeme}' may denote the constant "
                         f"{suggestion}; it is translated as a plain letter")
        item = ("val", _Unit(lexeme, "atom"))
    elif kind is _OPERATOR:
        item = ("op", ctx.product() if lexeme == "*" else lexeme)
    elif kind is _RELATION:
        item = ("op", " = " if lexeme == "=" else lexeme)
    elif kind is _AT:
        raise TranslationError(f"stray at-marker at position {term.position}")
    elif kind is _MACRO:
        raise UnknownMacro(lexeme)
    else:
        raise TranslationError(f"cannot translate reserved symbol {lexeme!r}")
    if entry is None or ctx.lex.names.get(lexeme) is entry:
        ctx.leaves.setdefault(lexeme, (entry, item, tuple(ctx.infos[first:])))
    return item


def _translate_macro(children: List[PomTree | MathTerm], i: int, entry: LexiconEntry,
                     ctx: _Context) -> Tuple[tuple, int]:
    """A function macro's item, and the index after its last argument:
    \\sqrt's optional [order], the parameter groups, an @ run of a length the
    entry lists, then the variable groups."""
    name = children[i].lexeme
    j = i + 1
    order = None
    if name == "\\sqrt" and _is_group(children, j, _OPTIONAL):
        order = _translate_sequence(children[j].children, ctx)
        j += 1
    args: List[str] = []
    for _ in range(entry.num_params):
        if not _is_group(children, j, _CURLY):
            raise ArityMismatch(name, entry.arity, len(args))
        args.append(_translate_sequence(children[j].children, ctx))
        j += 1
    if entry.num_vars > 0:
        at = children[j] if j < len(children) else None
        ats = len(at.lexeme) if at is not None and at.is_leaf and at.kind is _AT else 0
        if ats not in entry.at_variants:
            raise ArityMismatch(name, entry.arity, len(args))
        if ats:
            j += 1  # every listed @-variant translates identically
        for _ in range(entry.num_vars):
            if not _is_group(children, j, _CURLY):
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
    # only a template that brackets its own operands is written as a fraction
    if name != "\\frac" or not _BARE_RE.search(template):
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


def _is_group(children: List[PomTree | MathTerm], j: int,
              delimiter_class: DelimiterClass) -> bool:
    """Whether ``children[j]`` is a group of that delimiter class."""
    return j < len(children) and not children[j].is_leaf \
        and children[j].delimiter_class is delimiter_class


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
    """An exponent: bracketed unless it is an atom."""
    if unit.kind == "other":
        return f"({unit.text})"
    return _power_base(unit)  # an atom or a bracketed fraction


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
            # a fraction alone is written compactly, and bracketed so beside
            # a value or as a divisor
            if len(items) == 1:
                text = unit.compact
            elif implicit or (k + 1 < len(items) and items[k + 1][0] == "val") \
                    or (k > 0 and items[k - 1] == ("op", "/")):
                text = f"({unit.compact})"
        if implicit:
            parts.append(ctx.product())
        parts.append(text)
        prev_value = True
    out = "".join(parts).strip()
    if not out:
        raise TranslationError("translation produced empty output")
    return out
