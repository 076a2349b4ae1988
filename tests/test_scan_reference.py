"""The one-pass first scan against a reference copy of the two-pass one, and
totality of every public entry point on generated LaTeX-ish text.

``reference_scan`` is the scanner as it stood before the scan became one
tokenizing pass and one classifying, tree-building pass: a generator of
tokens, a ``_classify`` call per token and a stack whose bottom entry is the
root.  The scan must build an equal tree, or raise the same exception type
with the same message and position, on any text.  Every other entry point
must return a result or raise a ``TexcasError``, and the CLI must print no
traceback.
"""

import contextlib
import io
import re
from typing import Iterator, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from texcas import cli
from texcas.backward import backward_string
from texcas.errors import (EmptyInput, ScanTooDeep, TexcasError,
                           UnbalancedDelimiters, UnsupportedSymbol)
from texcas.forward import translate_string
from texcas.inert import parse_maple
from texcas.lexicon import load_default
from texcas.scanner import (MAX_NESTING, DelimiterClass, MathTerm, PomTree,
                            TermKind, scan)
from texcas.verify import MAPLE_SIDE, SEMANTIC_LATEX, round_trip

LEX = load_default()

# --- the reference scanner --------------------------------------------------

_RELATION_CHARS = set("=<>")

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

_KINDS = {"linebreak": TermKind.RESERVED, "amp": TermKind.RESERVED,
          "at": TermKind.AT_MARKER, "digits": TermKind.DIGIT_SEQUENCE,
          "letter": TermKind.LATIN_LETTER, "caret": TermKind.CARET,
          "underscore": TermKind.UNDERSCORE, "op": TermKind.OPERATOR_SYMBOL}


def _tokenize(text: str) -> Iterator[tuple]:
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise UnsupportedSymbol(pos, text[pos:pos + 2] if text[pos] == "\\"
                                    else text[pos])
        kind = m.lastgroup
        lexeme = m.group()
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        yield lexeme, kind, m.start()


def _classify(lexeme: str, tag: str, pos: int, kb) -> MathTerm:
    if tag == "macro":
        entry = kb.lookup(lexeme)
        if entry is None:
            return MathTerm(lexeme, TermKind.MACRO_COMMAND, pos)
        kind = (TermKind.GREEK_LETTER_COMMAND if entry.role == "greek-letter"
                else TermKind.MACRO_COMMAND)
        return MathTerm(lexeme, kind, pos, entry)
    if lexeme in _RELATION_CHARS:
        return MathTerm(lexeme, TermKind.RELATION_SYMBOL, pos)
    return MathTerm(lexeme, _KINDS[tag], pos)


def reference_scan(text: str, kb) -> PomTree:
    tokens = list(_tokenize(text))
    if not tokens:
        raise EmptyInput()

    root: List[PomTree] = []
    stack = [(root, "", -1)]
    i = 0
    n = len(tokens)
    while i < n:
        lexeme, tag, pos = tokens[i]
        if tag == "macro" and lexeme in ("\\left", "\\right"):
            if i + 1 >= n:
                raise UnbalancedDelimiters(pos, f"{lexeme} without a delimiter")
            dlex, dtag, dpos = tokens[i + 1]
            if lexeme == "\\left":
                if dlex not in _DELIM_PAIRS:
                    raise UnbalancedDelimiters(dpos, f"cannot open group with {dlex!r}")
                stack.append(([], "\\left" + dlex, pos))
                if len(stack) > MAX_NESTING + 1:
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
                stack[-1][0].append(PomTree(
                    delimiter_class=DelimiterClass.PAREN, children=children,
                    open_lexeme=open_lex, close_lexeme="\\right" + dlex))
            i += 2
            continue
        if tag == "open":
            stack.append(([], lexeme, pos))
            if len(stack) > MAX_NESTING + 1:
                raise ScanTooDeep(pos, MAX_NESTING)
        elif tag == "close":
            if len(stack) == 1:
                raise UnbalancedDelimiters(pos, f"unmatched {lexeme!r}")
            children, open_lex, open_pos = stack.pop()
            if open_lex.startswith("\\left"):
                raise UnbalancedDelimiters(pos, f"{lexeme!r} closes a \\left group")
            if _DELIM_PAIRS[open_lex] != lexeme:
                raise UnbalancedDelimiters(pos, f"expected {_DELIM_PAIRS[open_lex]!r}")
            stack[-1][0].append(PomTree(
                delimiter_class=_DELIM_CLASSES[open_lex], children=children,
                open_lexeme=open_lex, close_lexeme=lexeme))
        else:
            stack[-1][0].append(_classify(lexeme, tag, pos, kb))
        i += 1

    if len(stack) != 1:
        _, open_lex, open_pos = stack[-1]
        raise UnbalancedDelimiters(open_pos, f"unclosed {open_lex!r}")
    if not root:
        raise EmptyInput()
    return PomTree(children=root)


# --- generated text ---------------------------------------------------------

_MACROS = sorted({*LEX.entries, *LEX.builtins, *LEX.greek,
                  *(c.semantic_macro for c in LEX.constants)})
_PIECES = [
    "\\left", "\\right", "\\left(", "\\right)", "\\left[", "\\right]",
    "\\left{", "\\right}", "\\left)", "\\right(", "\\left\\sin", "\\,", "\\;",
    "\\", "\\\\", "% note\n", "%", "% tail", "@", "@@", "@@@", "@@@@", "(",
    ")", "[", "]", "{", "}", "^", "_", "x", "y", "E", "I", "3", "42", ".",
    "0.5", "=", "<", ">", "+", "-", "*", "/", "!", "|", ",", ";", ":", "&",
    " ", "\n", "\t", "é", "α", "ß", "Ω", "$", "#", "~", "'", "\"", "\\foo",
    "\\idt", "\\frac", "\\sqrt", "\\sqrt[", "\\root", "{" * (MAX_NESTING + 1),
    "(" * MAX_NESTING, ")" * MAX_NESTING,
]
_texts = st.lists(st.one_of(st.sampled_from(_PIECES), st.sampled_from(_MACROS),
                            st.text(max_size=3)),
                  max_size=24).map("".join)
_fuzz = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class _Recording:
    """A knowledge base that records the names it is asked for."""

    def __init__(self):
        self.names = []

    def lookup(self, name):
        self.names.append(name)
        return LEX.lookup(name)


def _scanned(scanner, text):
    """The tree, or the type, message and position of the error, and the
    names looked up on the way."""
    kb = _Recording()
    try:
        return scanner(text, kb), kb.names
    except TexcasError as exc:
        return (type(exc), str(exc), getattr(exc, "position", None)), kb.names


@_fuzz
@given(_texts)
def test_scan_matches_the_reference(text):
    assert _scanned(scan, text) == _scanned(reference_scan, text)


@pytest.mark.parametrize("text", [
    "\\left", "x\\right", "\\left(x", "\\left x\\right)", "(x\\right)",
    "\\left(x)", "\\left(x\\right]", "\\left(x\\right", "{" * (MAX_NESTING + 1),
    "\\left(" * (MAX_NESTING + 1), "(x]", "x)", "% only a comment", " \n ",
    "x\\,", "((é", "\\left(é", "\\", "é\\left", "a % c\n= b", "\\sin@@{z}",
    # a symbol with no token is reported before an unmatched or too deep group
    ")" + "(" * (MAX_NESTING + 2) + "\\,",
])
def test_edge_cases_match_the_reference(text):
    assert _scanned(scan, text) == _scanned(reference_scan, text)



# --- totality ---------------------------------------------------------------

def _total(fn, *args):
    try:
        fn(*args)
    except TexcasError:
        pass


@_fuzz
@given(_texts)
def test_latex_entry_points_raise_only_texcas_errors(text):
    for dialect in ("maple", "mathematica"):
        _total(translate_string, text, LEX, dialect)
    _total(round_trip, text, SEMANTIC_LATEX, LEX)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["translate", "--", text])
    assert code in (0, *(c for _, c in cli.EXIT_CODES))
    assert "Traceback" not in err.getvalue()


_maple_texts = st.lists(st.one_of(
    st.sampled_from(["sin(", "x", "y", "(", ")", "^", "-", "+", "*", "/",
                     "=", "..", ",", "2", "0.5", "1e5", "'", "\"s\"", " ",
                     "JacobiP(", "EllipticF(", "Pi", "I", "{", "[", "proc",
                     "é", "\\"]),
    st.text(max_size=3)), max_size=24).map("".join)


@_fuzz
@given(_maple_texts)
def test_maple_entry_points_raise_only_texcas_errors(text):
    _total(parse_maple, text)
    for use_divide in (True, False):
        _total(backward_string, text, LEX, use_divide)
    _total(round_trip, text, MAPLE_SIDE, LEX)
