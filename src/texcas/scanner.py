"""First-scan tokenizer and tree builder for math-mode LaTeX.

The scan is deliberately shallow: it splits the input into terms, groups
delimited balanced expressions, and attaches to each known macro its entry in
the lexicon knowledge base.  It does not build operator hierarchy; ``x^3``
scans as three sibling leaves ``x``, ``^``, ``3``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Optional

from .errors import EmptyInput, ScanTooDeep, UnbalancedDelimiters, UnsupportedSymbol
from .lexicon import LexiconEntry, load_default

_RELATION_CHARS = set("=<>")

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


@dataclass
class MathTerm:
    lexeme: str
    kind: TermKind
    position: int = 0
    # the macro's lexicon entry: one, or none for an unknown macro or a
    # term that is no macro
    tentative_features: List[LexiconEntry] = field(default_factory=list)

    @property
    def at_count(self) -> int:
        return len(self.lexeme) if self.kind is TermKind.AT_MARKER else 0


class DelimiterClass(Enum):
    CURLY = "curly"
    BRACKET_OPTIONAL = "bracket-optional"
    PAREN = "paren"


@dataclass
class PomTree:
    """Either a leaf term, a delimited group, or a sequence of siblings."""

    term: Optional[MathTerm] = None
    delimiter_class: Optional[DelimiterClass] = None
    children: Optional[List["PomTree"]] = None
    open_lexeme: str = ""
    close_lexeme: str = ""

    @property
    def is_leaf(self) -> bool:
        return self.term is not None

    @property
    def is_group(self) -> bool:
        return self.delimiter_class is not None

    @property
    def is_sequence(self) -> bool:
        return self.term is None and self.delimiter_class is None

    @staticmethod
    def leaf(term: MathTerm) -> "PomTree":
        return PomTree(term=term)

    @staticmethod
    def group(dclass: DelimiterClass, children, open_lexeme, close_lexeme) -> "PomTree":
        return PomTree(delimiter_class=dclass, children=children,
                       open_lexeme=open_lexeme, close_lexeme=close_lexeme)

    @staticmethod
    def sequence(children) -> "PomTree":
        return PomTree(children=children)


_TOKEN_RE = re.compile(
    r"""(?P<comment>%[^\n]*\n?)
      | (?P<ws>\s+)
      | (?P<linebreak>\\\\)
      | (?P<macro>\\[a-zA-Z]+)
      | (?P<at>@{1,3})
      | (?P<digits>[0-9]+)
      | (?P<letter>[a-zA-Z])
      | (?P<caret>\^)
      | (?P<underscore>_)
      | (?P<open>[{\[(])
      | (?P<close>[}\])])
      | (?P<amp>&)
      | (?P<op>[+\-*/!|.,;:=<>])
    """,
    re.VERBOSE,
)

_DELIM_PAIRS = {"{": "}", "[": "]", "(": ")"}
_DELIM_CLASSES = {
    "{": DelimiterClass.CURLY,
    "[": DelimiterClass.BRACKET_OPTIONAL,
    "(": DelimiterClass.PAREN,
}


def _tokenize(text: str) -> Iterator[tuple]:
    """Yield (lexeme, tag, position) triples; whitespace and comments dropped."""
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # a control symbol such as \, is the backslash and one character
            raise UnsupportedSymbol(pos, text[pos:pos + 2] if text[pos] == "\\"
                                    else text[pos])
        kind = m.lastgroup
        lexeme = m.group()
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        yield lexeme, kind, m.start()


# token tag -> term kind; a macro's kind comes from its entry, and an "op"
# token that spells a relation is a relation symbol
_KINDS = {"linebreak": TermKind.RESERVED, "amp": TermKind.RESERVED,
          "at": TermKind.AT_MARKER, "digits": TermKind.DIGIT_SEQUENCE,
          "letter": TermKind.LATIN_LETTER, "caret": TermKind.CARET,
          "underscore": TermKind.UNDERSCORE, "op": TermKind.OPERATOR_SYMBOL}


def _classify(lexeme: str, tag: str, pos: int, kb) -> MathTerm:
    if tag == "macro":
        entry = kb.lookup(lexeme)
        if entry is None:
            return MathTerm(lexeme, TermKind.MACRO_COMMAND, pos)
        kind = (TermKind.GREEK_LETTER_COMMAND if entry.role == "greek-letter"
                else TermKind.MACRO_COMMAND)
        return MathTerm(lexeme, kind, pos, [entry])
    if lexeme in _RELATION_CHARS:
        return MathTerm(lexeme, TermKind.RELATION_SYMBOL, pos)
    return MathTerm(lexeme, _KINDS[tag], pos)


def scan(text: str, kb=None) -> PomTree:
    """Build the first-scan syntax tree for one math-mode LaTeX expression.

    ``kb`` is a Lexicon (or anything with a ``lookup`` method; default: the
    seed lexicon).  Each macro is looked up once: a known macro's term carries
    its entry as its tentative feature, which forward translation reads, and
    a Greek-letter entry decides the Greek command kind.  Unknown macros are
    still tokenized.
    """
    tokens = list(_tokenize(text))
    if not tokens:
        raise EmptyInput()
    if kb is None:
        kb = load_default()

    # stack of (children-list, open-lexeme, open-position); index 0 is the root
    root: List[PomTree] = []
    stack = [(root, "", -1)]
    i = 0
    n = len(tokens)
    while i < n:
        lexeme, tag, pos = tokens[i]
        if tag == "macro" and lexeme in ("\\left", "\\right"):
            # \left<delim> ... \right<delim> forms a paren-class group
            if i + 1 >= n:
                raise UnbalancedDelimiters(pos, f"{lexeme} without a delimiter")
            dlex, dtag, dpos = tokens[i + 1]
            if lexeme == "\\left":
                if dlex not in _DELIM_PAIRS:
                    raise UnbalancedDelimiters(dpos, f"cannot open group with {dlex!r}")
                stack.append(([], "\\left" + dlex, pos))
                if len(stack) > MAX_NESTING + 1:  # the root is no group
                    raise ScanTooDeep(pos, MAX_NESTING)
            else:
                if len(stack) == 1:
                    raise UnbalancedDelimiters(pos, "\\right without matching \\left")
                children, open_lex, open_pos = stack.pop()
                if not open_lex.startswith("\\left"):
                    raise UnbalancedDelimiters(pos, "\\right closes a plain group")
                expected = _DELIM_PAIRS[open_lex[-1]]
                if dlex != expected:
                    raise UnbalancedDelimiters(dpos, f"expected \\right{expected}")
                group = PomTree.group(DelimiterClass.PAREN, children,
                                      open_lex, "\\right" + dlex)
                stack[-1][0].append(group)
            i += 2
            continue
        if tag == "open":
            stack.append(([], lexeme, pos))
            if len(stack) > MAX_NESTING + 1:  # the root is no group
                raise ScanTooDeep(pos, MAX_NESTING)
        elif tag == "close":
            if len(stack) == 1:
                raise UnbalancedDelimiters(pos, f"unmatched {lexeme!r}")
            children, open_lex, open_pos = stack.pop()
            if open_lex.startswith("\\left"):
                raise UnbalancedDelimiters(pos, f"{lexeme!r} closes a \\left group")
            if _DELIM_PAIRS[open_lex] != lexeme:
                raise UnbalancedDelimiters(pos, f"expected {_DELIM_PAIRS[open_lex]!r}")
            group = PomTree.group(_DELIM_CLASSES[open_lex], children, open_lex, lexeme)
            stack[-1][0].append(group)
        else:
            stack[-1][0].append(PomTree.leaf(_classify(lexeme, tag, pos, kb)))
        i += 1

    if len(stack) != 1:
        _, open_lex, open_pos = stack[-1]
        raise UnbalancedDelimiters(open_pos, f"unclosed {open_lex!r}")
    if not root:
        raise EmptyInput()
    return PomTree.sequence(root)


def serialize(tree: PomTree) -> str:
    """Reproduce the scanned source (whitespace between terms is dropped)."""
    if tree.is_leaf:
        return tree.term.lexeme
    inner = "".join(serialize(child) for child in tree.children)
    if tree.is_group:
        return tree.open_lexeme + inner + tree.close_lexeme
    return inner


def normalize_whitespace(text: str) -> str:
    return re.sub(r"%[^\n]*\n?", "", text).translate(str.maketrans("", "", " \t\n\r"))
