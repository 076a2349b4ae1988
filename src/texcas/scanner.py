"""First-scan tokenizer and tree builder for math-mode LaTeX.

The scan is deliberately shallow: it splits the input into terms, groups
delimited balanced expressions, and attaches to each known macro its entry in
the lexicon knowledge base.  It does not build operator hierarchy; ``x^3``
scans as three sibling leaves ``x``, ``^``, ``3``.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import accumulate
from typing import List, Optional

from .errors import EmptyInput, ScanTooDeep, UnbalancedDelimiters, UnsupportedSymbol
from .lexicon import LexiconEntry, Record, load_default

# Groups may nest this deep; forward translation recurses a few frames per
# group, so the limit keeps it within Python's default recursion limit.
MAX_NESTING = 64


class TermKind(Enum):
    MACRO_COMMAND = "macro-command"
    LATIN_LETTER = "latin-letter"
    GREEK_LETTER_COMMAND = "greek-letter-command"
    DIGIT_SEQUENCE = "digit-sequence"
    OPERATOR_SYMBOL = "operator-symbol"
    RELATION_SYMBOL = "relation-symbol"
    AT_MARKER = "at-marker"
    CARET = "caret"
    UNDERSCORE = "underscore"
    RESERVED = "reserved"


class MathTerm(Record):
    __slots__ = ("lexeme", "kind", "position", "tentative_features")

    def __init__(self, lexeme: str, kind: TermKind, position: int = 0,
                 tentative_features: Optional[List[LexiconEntry]] = None):
        self.lexeme = lexeme
        self.kind = kind
        self.position = position
        # the macro's lexicon entry: one, or none for an unknown macro or a
        # term that is no macro
        self.tentative_features = ([] if tentative_features is None
                                   else tentative_features)


class DelimiterClass(Enum):
    CURLY = "curly"
    BRACKET_OPTIONAL = "bracket-optional"
    PAREN = "paren"


class PomTree(Record):
    """Either a leaf term, a delimited group, or a sequence of siblings."""

    __slots__ = ("term", "delimiter_class", "children", "open_lexeme", "close_lexeme")

    def __init__(self, term: Optional[MathTerm] = None,
                 delimiter_class: Optional[DelimiterClass] = None,
                 children: Optional[List[PomTree]] = None,
                 open_lexeme: str = "", close_lexeme: str = ""):
        self.term = term
        self.delimiter_class = delimiter_class
        self.children = children
        self.open_lexeme = open_lexeme
        self.close_lexeme = close_lexeme

    @property
    def is_leaf(self) -> bool:
        return self.term is not None

    @property
    def is_group(self) -> bool:
        return self.delimiter_class is not None

    @property
    def is_sequence(self) -> bool:
        return self.term is None and self.delimiter_class is None


# no group and no catch-all: findall returns the token strings, and a
# character with no token leaves a gap between them
_TOKEN_RE = re.compile(
    r"%[^\n]*\n?|\s+|\\\\|\\[a-zA-Z]+|@{1,3}|[0-9]+"
    r"|[a-zA-Z^_{\[(}\])&+\-*/!|.,;:=<>]")

# the members the scan loop compares or builds, bound once: on Python 3.11
# each ``TermKind.X`` goes through ``EnumType.__getattr__``, several times
# the cost of a global (3.12 dropped that hook)
_MACRO, _GREEK = TermKind.MACRO_COMMAND, TermKind.GREEK_LETTER_COMMAND
_RESERVED, _PAREN = TermKind.RESERVED, DelimiterClass.PAREN

_DELIM_PAIRS = {"{": "}", "[": "]", "(": ")"}
_DELIM_CLASSES = {
    "{": DelimiterClass.CURLY,
    "[": DelimiterClass.BRACKET_OPTIONAL,
    "(": DelimiterClass.PAREN,
}

# a token's first character -> its term kind, or what the scan does with it;
# whitespace and comments are absent, so the scan skips them.  Forward reads
# the one-character leaves it may write from here.
_BACKSLASH, _OPEN, _CLOSE = "backslash", "open", "close"
LEADS = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
                    TermKind.LATIN_LETTER),
    **dict.fromkeys("0123456789", TermKind.DIGIT_SEQUENCE),
    **dict.fromkeys("+-*/!|.,;:", TermKind.OPERATOR_SYMBOL),
    **dict.fromkeys("=<>", TermKind.RELATION_SYMBOL),
    "@": TermKind.AT_MARKER, "^": TermKind.CARET, "_": TermKind.UNDERSCORE,
    "&": TermKind.RESERVED, "\\": _BACKSLASH,
    **dict.fromkeys("{[(", _OPEN), **dict.fromkeys("}])", _CLOSE),
}


def scan(text: str, kb=None) -> PomTree:
    """Build the first-scan syntax tree for one math-mode LaTeX expression.

    ``kb`` is a Lexicon (or anything with a ``lookup`` method; default: the
    seed lexicon).  One ``findall`` tokenizes; a character with no token is
    found by a rescan and reported before any delimiter error.  One loop
    classifies each token by its first character and builds the tree, looking
    each macro occurrence up once: a known macro's term carries its entry as
    its tentative feature, which forward reads, and a Greek-letter entry
    decides the Greek command kind.  Unknown macros are still tokenized.
    """
    tokens = _TOKEN_RE.findall(text)
    # each token's position, and the end of the last
    starts = list(accumulate(map(len, tokens), initial=0))
    if starts[-1] != len(text):
        pos = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
        # a control symbol such as \, is the backslash and one character
        raise UnsupportedSymbol(pos, text[pos:pos + 2] if text[pos] == "\\"
                                else text[pos])
    if kb is None:
        kb = load_default()

    lead = LEADS.get
    siblings: List[PomTree] = []  # of the innermost open group, or the root
    # (enclosing siblings, open lexeme, open position) per open group
    stack = []
    tokens_left = zip(tokens, starts)
    for lexeme, pos in tokens_left:
        kind = lead(lexeme[0])
        if kind is None:  # whitespace or a comment
            continue
        if kind is _BACKSLASH:
            if lexeme == "\\\\":
                siblings.append(PomTree(MathTerm(lexeme, _RESERVED, pos)))
            elif lexeme == "\\left" or lexeme == "\\right":
                # \left<delim> ... \right<delim> forms a paren-class group
                for dlex, dpos in tokens_left:
                    if dlex[0] in LEADS:
                        break
                else:
                    raise UnbalancedDelimiters(pos, f"{lexeme} without a delimiter")
                if lexeme == "\\left":
                    if dlex not in _DELIM_PAIRS:
                        raise UnbalancedDelimiters(dpos, f"cannot open group with {dlex!r}")
                    stack.append((siblings, "\\left" + dlex, pos))
                    if len(stack) > MAX_NESTING:
                        raise ScanTooDeep(pos, MAX_NESTING)
                    siblings = []
                else:
                    if not stack:
                        raise UnbalancedDelimiters(pos, "\\right without matching \\left")
                    parent, open_lex, _ = stack.pop()
                    if not open_lex.startswith("\\left"):
                        raise UnbalancedDelimiters(pos, "\\right closes a plain group")
                    expected = _DELIM_PAIRS[open_lex[-1]]
                    if dlex != expected:
                        raise UnbalancedDelimiters(dpos, f"expected \\right{expected}")
                    parent.append(PomTree(None, _PAREN, siblings,
                                          open_lex, "\\right" + dlex))
                    siblings = parent
            else:
                entry = kb.lookup(lexeme)
                if entry is None:
                    siblings.append(PomTree(MathTerm(lexeme, _MACRO, pos)))
                else:
                    kind = _GREEK if entry.role == "greek-letter" else _MACRO
                    siblings.append(PomTree(MathTerm(lexeme, kind, pos, [entry])))
        elif kind is _OPEN:
            stack.append((siblings, lexeme, pos))
            if len(stack) > MAX_NESTING:
                raise ScanTooDeep(pos, MAX_NESTING)
            siblings = []
        elif kind is _CLOSE:
            if not stack:
                raise UnbalancedDelimiters(pos, f"unmatched {lexeme!r}")
            parent, open_lex, _ = stack.pop()
            if open_lex.startswith("\\left"):
                raise UnbalancedDelimiters(pos, f"{lexeme!r} closes a \\left group")
            if _DELIM_PAIRS[open_lex] != lexeme:
                raise UnbalancedDelimiters(pos, f"expected {_DELIM_PAIRS[open_lex]!r}")
            parent.append(PomTree(None, _DELIM_CLASSES[open_lex], siblings,
                                  open_lex, lexeme))
            siblings = parent
        else:
            siblings.append(PomTree(MathTerm(lexeme, kind, pos)))

    if stack:
        _, open_lex, open_pos = stack[-1]
        raise UnbalancedDelimiters(open_pos, f"unclosed {open_lex!r}")
    if not siblings:  # every token was whitespace or a comment
        raise EmptyInput()
    return PomTree(children=siblings)


def serialize(tree: PomTree) -> str:
    """Reproduce the scanned source (whitespace between terms is dropped)."""
    if tree.is_leaf:
        return tree.term.lexeme
    inner = "".join(serialize(child) for child in tree.children)
    if tree.is_group:
        return tree.open_lexeme + inner + tree.close_lexeme
    return inner


def normalize_whitespace(text: str) -> str:
    """The text without what the scan skips: comments and all whitespace."""
    return re.sub(r"%[^\n]*\n?|\s+", "", text)
