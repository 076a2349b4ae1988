"""Semantic LaTeX -> CAS translation by recursive per-node pattern substitution."""

from __future__ import annotations

import re
from functools import lru_cache
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
_SIGNS = (("op", "-"), ("op", "+"))
_BANG, _OVER = ("op", "!"), ("prod", "/", "/")
_CURLY, _OPTIONAL, _PAREN = (DelimiterClass.CURLY, DelimiterClass.BRACKET_OPTIONAL,
                             DelimiterClass.PAREN)

_ATOMIC_RE = re.compile(r"^(\d+(\.\d+)?|[A-Za-z][A-Za-z0-9_]*|\\\[[A-Za-z]+\])$")
# a placeholder in brackets of its own: ($0) is one, a call's sin($0) is not
_BARE_RE = re.compile(r"(?<!\w)\((\$\d+)\)")


def unique_infos(pairs) -> List[InfoMessage]:
    """One info per distinct (kind, text) pair, in the order first seen."""
    return [InfoMessage(kind, text) for kind, text in dict.fromkeys(pairs)]


class _Context:
    def __init__(self, lex: Lexicon, dialect: str):
        self.lex = lex
        self.dialect = dialect
        self.leaves = lex.leaf_tables[dialect]  # filled by _leaf
        self.infos: List[Tuple[str, str]] = []  # (kind, text), repeats kept
        self.unjoined: Optional[str] = None  # the first product sign with no left operand

    def product(self) -> str:  # \idt's template spells every product
        return _template(self.lex.product, "\\idt", self.dialect)


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
    # refused after the walk, so that an error of the input itself (an
    # unknown macro, a wrong argument count, no template) is named first
    if ctx.unjoined:
        raise TranslationError(f"product sign {ctx.unjoined} without a left operand")
    return TranslationResult(output=output, infos=unique_infos(ctx.infos))


def translate_string(text: str, lex: Lexicon, dialect: str) -> TranslationResult:
    return translate_forward(scan(text, lex), lex, dialect)


# --- sequence translation ---------------------------------------------------

def _translate_sequence(children: List[PomTree | MathTerm], ctx: _Context) -> str:
    """The sequence's items, each read with the scripts that follow it, and
    assembled; a single value is its own text (a fraction's compact form)."""
    items: List[tuple] = []
    i, n = 0, len(children)
    while i < n:
        item, i = _item(children, i, ctx)
        if i < n:  # scripts are read only where a script symbol follows
            node = children[i]
            if node.is_leaf and (node.kind is _CARET or node.kind is _UNDERSCORE):
                item, i = _scripted(item, children, i, ctx)
        items.append(item)
    if len(items) == 1 and items[0][0] == "val":
        _, text, _, compact = items[0]
        out = (text if compact is None else compact).strip()
        if out:
            return out
    return _assemble(items, ctx)


def _item(children: List[PomTree | MathTerm], i: int, ctx: _Context) -> Tuple[tuple, int]:
    """The item that starts at ``children[i]``, and the index after it, a
    tuple with its text at index 1: a value ``("val", text, atomic,
    compact)``, bare as an exponent only if ``atomic`` (a bracketed group
    is), whose ``compact`` is a fraction's text standing alone and ``None``
    for any other value, a product or quotient operator ``("prod", text,
    symbol)`` with its LaTeX symbol, or another operator or a relation
    ``("op", text)``."""
    node = children[i]
    if not node.is_leaf:  # a group
        inner = _translate_sequence(node.children, ctx)
        if node.delimiter_class is _PAREN or not _ATOMIC_RE.match(inner):
            inner = f"({inner})"
        return ("val", inner, True, None), i + 1
    if node.kind is _DIGITS:
        # re-fuse decimal literals split by the shallow first scan
        if _is_leaf(children, i + 2, _DIGITS) and children[i + 1].is_leaf \
                and children[i + 1].lexeme == ".":
            return ("val", f"{node.lexeme}.{children[i + 2].lexeme}", True, None), i + 3
        return ("val", node.lexeme, True, None), i + 1
    entry = node.entry
    leaf = ctx.leaves.get(node.lexeme)
    # a stored record serves only the entry it was built from
    if leaf is None or leaf[0] is not entry:
        leaf = _leaf(node, entry, ctx)
    _, item, infos = leaf
    if item is None:  # a function macro, whose arguments follow
        return _translate_macro(children, i, entry, ctx, infos)
    ctx.infos += infos
    return item, i + 1


def _leaf(term: MathTerm, entry: Optional[LexiconEntry], ctx: _Context) -> tuple:
    """The record ``(entry, item, info pairs)`` of a leaf that translates
    the same wherever it stands: a Latin letter, an operator or relation
    symbol, or a Greek letter, constant, operator (\\idt) or function
    macro, whose item is ``None``, as its arguments vary.  Its first
    occurrence stores the record in the leaf table, where every later
    translation shares it: its item and pairs are tuples of strings, bools
    and ``None``, immutable by type.  A leaf that does not translate raises
    and is never stored, and neither is an entry of a tree scanned with
    another lexicon: the table holds only the lexicon's names and the
    one-character symbols that translations met."""
    lexeme = term.lexeme
    kind = term.kind
    pairs = ()
    if entry is not None and entry.role == "operator":
        # \idt: multiplication with no presentation appearance
        item = ("prod", _template(entry, lexeme, ctx.dialect), lexeme)
    elif entry is not None and entry.role == "greek-letter":
        text = _template(entry, lexeme, ctx.dialect)
        suggestion = ctx.lex.command_suggestions.get(lexeme)
        if suggestion:
            pairs = (("constant-suggestion",
                      f"command '{lexeme}' may denote the constant "
                      f"{suggestion}; it is translated as a Greek letter"),)
        item = ("val", text, True, None)
    elif entry is not None:  # a function or constant: its DLMF link, then its advisories
        name = entry.macro_name
        link = [("dlmf-link", f"{name}: {entry.dlmf_link}")] if entry.dlmf_link else []
        pairs = tuple(link + [(adv.kind, f"{name}: {adv.text}") for adv in entry.advisories])
        if entry.role == "function":
            item = None  # its arguments vary
        else:
            text = _template(entry, lexeme, ctx.dialect)
            item = ("val", text, bool(_ATOMIC_RE.match(text)), None)
    elif kind is _LETTER:
        suggestion = ctx.lex.letter_suggestions.get(lexeme)
        if suggestion:
            pairs = (("constant-suggestion",
                      f"letter '{lexeme}' may denote the constant "
                      f"{suggestion}; it is translated as a plain letter"),)
        item = ("val", lexeme, True, None)
    elif kind is _OPERATOR:  # * and /, like \idt, join the factors of a product
        item = ("prod", ctx.product() if lexeme == "*" else lexeme, lexeme) \
            if lexeme in "*/" else ("op", lexeme)
    elif kind is _RELATION:
        item = ("op", " = " if lexeme == "=" else lexeme)
    elif kind is _AT:
        raise TranslationError(f"stray at-marker at position {term.position}")
    elif kind is _CARET or kind is _UNDERSCORE:  # with no value before it or no argument
        raise TranslationError("script symbol without base or argument")
    elif kind is _MACRO:
        raise UnknownMacro(lexeme)
    else:
        raise TranslationError(f"cannot translate reserved symbol {lexeme!r}")
    record = (entry, item, pairs)
    if entry is None or ctx.lex.names.get(lexeme) is entry:
        ctx.leaves.setdefault(lexeme, record)
    return record


def _translate_macro(children: List[PomTree | MathTerm], i: int, entry: LexiconEntry,
                     ctx: _Context, infos: tuple) -> Tuple[tuple, int]:
    """A function macro's item, and the index after its last argument:
    \\sqrt's optional [order], the parameter groups, an @ run of a length the
    entry lists, then the variable groups.  The entry's info pairs ``infos``
    follow those of its arguments."""
    name = children[i].lexeme
    j, n = i + 1, len(children)
    order = None
    if name == "\\sqrt" and j < n and not children[j].is_leaf \
            and children[j].delimiter_class is _OPTIONAL:
        order = _translate_sequence(children[j].children, ctx)
        j += 1
    args: List[str] = []
    for k in range(entry.arity):
        node = children[j] if j < n else None
        if k == entry.num_params:  # the variables start after an @ run
            ats = 0
            if node is not None and node.is_leaf and node.kind is _AT:
                ats = len(node.lexeme)
                j += 1  # every listed @-variant translates identically
                node = children[j] if j < n else None
            if ats not in entry.at_variants:
                raise ArityMismatch(name, entry.arity, len(args))
        if node is None or node.is_leaf or node.delimiter_class is not _CURLY:
            raise ArityMismatch(name, entry.arity, len(args))
        args.append(_translate_sequence(node.children, ctx))
        j += 1

    if order is None:
        template = _template(entry, name, ctx.dialect)
    else:  # \sqrt[n]{x} is \root{x}{n}
        args.append(order)
        template = _template(ctx.lex.lookup("\\root"), name, ctx.dialect)
    ctx.infos += infos
    text = fill(template, args)
    # only a template that brackets its own operands is written as a fraction
    bare = name == "\\frac" and _unbracketed(template)
    if not bare:
        return ("val", text, False, None), j
    # a fraction of atoms has a compact form, without the bare brackets
    compact = fill(bare, args) if all(map(_ATOMIC_RE.match, args)) else text
    return ("val", text, False, compact), j


@lru_cache(maxsize=64)
def _unbracketed(template: str) -> str:
    """The template without the brackets of its bare placeholders, or ""
    when it has none; each template string is reduced once."""
    return _BARE_RE.sub(r"\1", template) if _BARE_RE.search(template) else ""


def _template(entry: Optional[LexiconEntry], name: str, dialect: str) -> str:
    """The entry's template in the dialect, which it must have; no entry
    has no template."""
    template = entry and entry.translations.get(dialect)
    if template is None:
        raise NoDirectTranslation(name, dialect)
    return template


def _is_leaf(children: List[PomTree | MathTerm], j: int, kind: TermKind) -> bool:
    """Whether ``children[j]`` is a term of that kind."""
    return j < len(children) and children[j].is_leaf and children[j].kind is kind


# --- scripts ----------------------------------------------------------------

def _scripted(base: tuple, children: List[PomTree | MathTerm], i: int,
              ctx: _Context) -> Tuple[tuple, int]:
    """The item ``base`` with the scripts from ``children[i]`` on, and the
    index after them.  Subscripts attach in turn, before and after the one
    superscript, as TeX typesets ``x^{2}_{1}`` like ``x_{1}^{2}``: ``x[1]^2``.
    A caret's argument takes the carets after it: ``x^y^z`` is ``x^(y^z)``.
    A last script symbol, with no argument, is left to the caller to refuse."""
    exponent = None
    while i + 1 < len(children) and children[i].is_leaf:
        if children[i].kind is _UNDERSCORE:
            arg, i = _item(children, i + 1, ctx)
            base = _script(base, _UNDERSCORE, arg, ctx)
        elif children[i].kind is _CARET and exponent is None:
            exponent, i = _item(children, i + 1, ctx)
            if _is_leaf(children, i, _CARET):
                exponent, i = _scripted(exponent, children, i, ctx)
        else:
            break
    return (base if exponent is None else _script(base, _CARET, exponent, ctx)), i


def _script(base: tuple, kind: TermKind, arg: tuple, ctx: _Context) -> tuple:
    """The item ``base`` with a script of that kind whose argument is the
    item ``arg``: a fraction is bracketed as a base, all but an atom as an
    exponent."""
    if base[0] != "val" or arg[0] != "val":
        raise TranslationError("script symbol without base or argument")
    text = base[1] if base[3] is None else f"({base[1]})"
    if kind is _UNDERSCORE:
        text = fill(DIALECTS[ctx.dialect], [text, arg[1]])
    else:
        text = f"{text}^{arg[1]}" if arg[2] else f"{text}^({arg[1]})"
    return ("val", text, False, None)


# --- assembly ---------------------------------------------------------------

def _assemble(items: List[tuple], ctx: _Context) -> str:
    parts: List[str] = []
    prev_value = False
    shut = ""  # the bracket opened before a sign, shut after its value
    for k, item in enumerate(items):
        tag = item[0]
        if shut and item != _BANG:  # its factorials stay inside
            parts.append(shut)
            shut = ""
        if tag != "val":
            # a product sign needs a left operand: a value or a factorial
            if tag == "prod" and not prev_value and (k == 0 or items[k - 1] != _BANG) \
                    and ctx.unjoined is None:
                ctx.unjoined = item[2]
            parts.append(item[1])
            prev_value = False
            continue
        implicit = prev_value
        text = item[1]
        # a fraction alone is written compactly (see _translate_sequence), and
        # bracketed so beside a value, as a divisor or before a factorial
        if item[3] is not None and (implicit or (k > 0 and items[k - 1] == _OVER)
                                    or (k + 1 < len(items) and (items[k + 1][0] == "val"
                                                                or items[k + 1] == _BANG))):
            text = f"({item[3]})"
        if k > 1 and items[k - 2][0] == "prod" and items[k - 1] in _SIGNS:
            # a sign after a product or quotient binds only this value
            parts[-1] = f"({parts[-1]}"
            shut = ")"
        if implicit:
            parts.append(ctx.product())
        parts.append(text)
        prev_value = True
    out = ("".join(parts) + shut).strip()
    # a group of product signs alone, empty in Mathematica, is refused
    # after the walk for its sign
    if not out and ctx.unjoined is None:
        raise TranslationError("translation produced empty output")
    return out
