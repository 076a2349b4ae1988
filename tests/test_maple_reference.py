"""The one-pass Maple tokenizer, parser and ``preprocess`` against reference
copies of the ones they replaced, a Maple-side golden, and totality of the
remaining entry points on generated input.

``reference_parse_maple`` and ``reference_preprocess`` are the parser and
normalizer as they stood before tokenizing became one regex pass, the parser
read a flat list of token strings and ``preprocess`` returned leaves as they
are: a ``match`` call and a ``(kind, lexeme, pos)`` tuple per token,
``peek``/``next`` calls per token and seven frames per atom.  Since then
the reference parser has changed in three ways, each with the parser: a
chain of ``*`` and ``/`` is one flat product, and a divisor ``1/q`` is
stored as ``q``, as Maple stores them; negating a product drops a leading
factor that negating makes 1, so ``-(-x)`` is ``x``; and a product or sum
that leads its chain is spliced in, while a later bracketed one stays one
operand.  Each product is built by ``_flat_product``, which the
reference's ``preprocess`` calls too, after splicing every product and
moving each -1 among the constants first: a leading -1 merges with an
integer literal after it, a leading 1 before a divisor is dropped, and a
divisor ``x^0`` is stored as ``(x^0)^(-1)``.  On any text the parser must
build the tree the reference builds with ``use_divide=False``
(Maple's own form, the only one the parser builds now), with payloads of the
same types, or raise the same exception type with the same message and
position.  The one intended difference is a float literal whose double is
not finite, which the reference reads as ``inf`` and the parser refuses.

The reference's other form, with ``use_divide=True``, holds a DIVIDE node
for each division that is not by an integer power.  ``preprocess`` must give
one tree for both forms of a text (confluence), also where a text divides
by ``1/q``, and a second ``preprocess`` must change nothing (idempotence).
Without DIVIDE nodes, ``preprocess`` must still match ``reference_preprocess``
exactly.

``data/maple_generated_golden.json`` was first recorded with the reference
code in place.  Its 2,027 texts are the 1,801 distinct Maple outputs of
``data/translate_generated_golden.json``, then the 226 distinct new texts
among ``render_maple`` of 150 ``treegen.random_tree`` and then 150
``treegen.random_evaluable`` trees drawn from ``random.Random(2026)``.  Each
row holds, for both ``use_divide`` values, the nested list of the parsed and
of the preprocessed tree and the ``backward_string`` output and infos, or the
error.  Its ``divide`` half was recorded again when the parser stopped
building DIVIDE nodes and ``preprocess`` became one idempotent walk,
194 of its rows when the parser made each chain one flat product and read
``1/(1/q)`` as ``q``, and 225 rows when ``preprocess`` made every sum and
product flat and the parser spliced a leading one.
"""

import contextlib
import io
import json
import math
import random
import re
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from texcas import cli
from texcas.backward import backward_string
from texcas.errors import (MapleSyntaxError, MapleTooDeep, TexcasError,
                           UnsupportedConstruct)
from texcas.inert import (DIVIDE, EQUATION, EXPSEQ, FLOAT, FUNCTION, INTNEG,
                          INTPOS, NAME, POWER, PROD, RANGE, RATIONAL, STRING,
                          SUM, InertForm, int_value, intlit, is_int_literal,
                          parse_maple, preprocess, rational, render_maple,
                          to_nested_list)
from texcas.verify import MAPLE_SIDE, check_equivalence, round_trip

from treegen import name, random_evaluable, random_tree

DATA = Path(__file__).parent / "data"

# --- the reference tokenizer --------------------------------------------

_MAPLE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<float>\d+\.\d+|\d+\.(?!\.)|\.\d+)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<dotdot>\.\.)
      | (?P<op>[-+*/^(),='])
    """,
    re.VERBOSE,
)

_UNSUPPORTED_KEYWORDS = {"proc", "module", "table", "array", "Array", "Matrix",
                         "Vector", "set", "list"}


def _maple_tokens(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _MAPLE_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos] in "{}[]":
                raise UnsupportedConstruct(text[pos])
            raise MapleSyntaxError(pos, f"a token (got {text[pos]!r})")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        out.append((m.lastgroup, m.group(), m.start()))
    out.append(("eof", "", len(text)))
    return out


# --- the reference parser -----------------------------------------------
# precedence: = < .. < +,- < *,/ < unary minus < ^ < atoms/calls

# Sub-expressions (parentheses, quotes, call arguments, signs and exponents)
# may nest this deep: the parser recurses up to eight frames per level.
MAX_NESTING = 64
# A parsed tree may be this tall.  Calls and powers inside products grow a
# tree faster than they nest the parser, and every later stage (preprocess, rendering, backward
# translation, simplification, compiled evaluation) recurses about two frames
# per level, so the bound keeps them all within Python's default recursion
# limit.
MAX_HEIGHT = 4 * MAX_NESTING


class _Parser:
    def __init__(self, tokens, use_divide: bool = True):
        self.tokens = tokens
        self.i = 0
        self.use_divide = use_divide
        self.depth = 0

    def nested(self, parse) -> InertForm:
        """Run ``parse`` one nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MapleTooDeep(self.peek()[2], MAX_NESTING)
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        kind, lexeme, pos = self.peek()
        if lexeme != text:
            raise MapleSyntaxError(pos, repr(text))
        return self.next()

    def parse(self) -> InertForm:
        node = self.equation()
        kind, lexeme, pos = self.peek()
        if kind != "eof":
            raise MapleSyntaxError(pos, "end of input")
        return node

    def equation(self) -> InertForm:
        left = self.range_()
        if self.peek()[1] == "=":
            self.next()
            right = self.range_()
            return InertForm(EQUATION, children=[left, right])
        return left

    def range_(self) -> InertForm:
        left = self.sum_()
        if self.peek()[0] == "dotdot":
            self.next()
            right = self.sum_()
            return InertForm(RANGE, children=[left, right])
        return left

    def sum_(self) -> InertForm:
        terms = [self.product()]
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            term = self.product()
            terms.append(term if op == "+" else _negate(term))
        if len(terms) == 1:
            return terms[0]
        if terms[0].tag == SUM:  # a leading sum is spliced in
            terms = terms[0].children + terms[1:]
        return InertForm(SUM, children=terms)

    def product(self) -> InertForm:
        factors = [self.unary()]
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.unary()
            if op == "*":
                factors.append(rhs)
            else:
                lhs = factors[0] if len(factors) == 1 \
                    else InertForm(PROD, children=factors)
                factors = [self._divide(lhs, rhs)]
                if factors[0].tag == PROD and lhs != InertForm(INTPOS, 1):
                    factors = factors[0].children  # Maple's one flat product
        if len(factors) == 1:
            return factors[0]
        return _flat_product(factors)

    def _divide(self, numerator: InertForm, denominator: InertForm) -> InertForm:
        # mirror Maple's internal form for power divisors; DIVIDE otherwise
        if denominator.tag == POWER and is_int_literal(denominator.children[1]) \
                and denominator.children[1].payload:
            base, k = denominator.children[0], -int_value(denominator.children[1])
            # Maple stores 1/(1/q) as q
            flipped = base if k == 1 else InertForm(POWER, children=[base, intlit(k)])
        elif not self.use_divide:
            flipped = InertForm(POWER, children=[denominator, InertForm(INTNEG, 1)])
        else:
            return InertForm(DIVIDE, children=[numerator, denominator])
        if numerator.tag == INTPOS and numerator.payload == 1:
            return flipped
        if numerator.tag == PROD:
            return InertForm(PROD, children=numerator.children + [flipped])
        return InertForm(PROD, children=[numerator, flipped])

    def unary(self) -> InertForm:
        if self.peek()[1] == "-":
            self.next()
            return _negate(self.nested(self.unary))
        if self.peek()[1] == "+":
            self.next()
            return self.nested(self.unary)
        return self.power()

    def power(self) -> InertForm:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            # right-associative; unary minus allowed in the exponent
            exponent = self.nested(self.unary if self.peek()[1] == "-"
                                   else self.power)
            return InertForm(POWER, children=[base, exponent])
        return base

    def atom(self) -> InertForm:
        kind, lexeme, pos = self.peek()
        if lexeme == "'":
            # unevaluation quotes: accepted and stripped
            self.next()
            inner = self.nested(self.equation)
            self.expect("'")
            return inner
        if lexeme == "(":
            self.next()
            inner = self.nested(self.equation)
            self.expect(")")
            return inner
        if kind == "int":
            self.next()
            try:
                return InertForm(INTPOS, int(lexeme))
            except ValueError:  # past Python's int-from-text digit limit
                raise MapleSyntaxError(pos, "an integer literal with fewer digits")
        if kind == "float":
            self.next()
            return InertForm(FLOAT, float(lexeme))
        if kind == "string":
            self.next()
            return InertForm(STRING, lexeme[1:-1])
        if kind == "name":
            if lexeme in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedConstruct(lexeme)
            self.next()
            if self.peek()[1] == "(":
                self.next()
                args = []
                if self.peek()[1] != ")":
                    args.append(self.nested(self.equation))
                    while self.peek()[1] == ",":
                        self.next()
                        args.append(self.nested(self.equation))
                self.expect(")")
                return InertForm(FUNCTION, children=[
                    name(lexeme), InertForm(EXPSEQ, children=args)])
            return name(lexeme)
        raise MapleSyntaxError(pos, "an expression")


def _negate(t: InertForm) -> InertForm:
    if t.tag == INTPOS:
        return InertForm(INTNEG, t.payload)
    if t.tag == INTNEG:
        return InertForm(INTPOS, t.payload)
    if t.tag == FLOAT:
        return InertForm(FLOAT, -t.payload)
    return _flat_product([InertForm(INTNEG, 1)]
                         + (t.children if t.tag == PROD else [t]))


def _flat_product(factors) -> InertForm:
    """The product of the factors: a leading product spliced in,
    a leading -1 merged with the integer literal after it, and dropped
    where that makes it 1 (-(-x) is x), and a leading 1 dropped before a
    factor that the renderer writes after a ``/``."""
    flat = factors[0].children + factors[1:] if factors[0].tag == PROD else factors
    while len(flat) > 1 and flat[0] == InertForm(INTNEG, 1) \
            and flat[1].tag in (INTPOS, INTNEG):
        lead = _negate(flat[1])
        flat = ([] if lead == InertForm(INTPOS, 1) else [lead]) + flat[2:]
    if len(flat) > 1 and flat[0] == InertForm(INTPOS, 1) and _written_as_divisor(flat[1]):
        flat = flat[1:]
    if not flat:
        return InertForm(INTPOS, 1)
    return flat[0] if len(flat) == 1 else InertForm(PROD, children=flat)


def _written_as_divisor(t: InertForm) -> bool:
    """``x^(-k)`` for an integer k > 0, but for ``(y^j)^(-1)`` with an
    integer j other than 0, which ``/y^j`` would not give back."""
    if t.tag != POWER or t.children[1].tag != INTNEG or not t.children[1].payload:
        return False
    base = t.children[0]
    return not (t.children[1].payload == 1 and base.tag == POWER
                and is_int_literal(base.children[1]) and base.children[1].payload)


def reference_parse_maple(text: str, use_divide: bool = True) -> InertForm:
    """Parse a Maple 1D expression into its inert form, unsimplified."""
    tokens = _maple_tokens(text)
    if tokens[0][0] == "eof":
        raise MapleSyntaxError(0, "an expression")
    tree = _Parser(tokens, use_divide=use_divide).parse()
    if _height(tree) > MAX_HEIGHT:
        raise MapleTooDeep(0, MAX_HEIGHT)
    return tree


def _height(tree: InertForm) -> int:
    """Levels below the root, counted without recursion."""
    height = 0
    level = [tree]
    while level:
        level = [c for t in level for c in t.children]
        if level:
            height += 1
    return height


# --- the reference preprocess -------------------------------------------

def _reciprocal(t: InertForm) -> Optional[InertForm]:
    """The denominator ``x^(-n)`` stands for (``x``, or ``x^n``); else None."""
    if t.tag != POWER or t.children[1].tag != INTNEG:
        return None
    base, expo = t.children
    return base if expo.payload == 1 else \
        InertForm(POWER, children=[base, InertForm(INTPOS, expo.payload)])


_NUMERIC = (INTPOS, INTNEG, RATIONAL, FLOAT)


def reference_preprocess(tree: InertForm, use_divide: bool = True) -> InertForm:
    """Normalize a parsed tree for rendering (idempotent, value-preserving)."""
    children = [reference_preprocess(c, use_divide) for c in tree.children]
    t = InertForm(tree.tag, tree.payload, children)

    if t.tag in (SUM, PROD):
        children = [g for c in t.children for g in (c.children if c.tag == t.tag else [c])]
        constants = [c for c in children if c.tag in _NUMERIC]
        if t.tag == PROD:  # each -1 first, where it merges
            constants.sort(key=lambda c: c != InertForm(INTNEG, 1))
        rest = [c for c in children if c.tag not in _NUMERIC]
        t = _flat_product(constants + rest) if t.tag == PROD \
            else InertForm(SUM, children=constants + rest)

    if use_divide and t.tag == PROD:
        numerator, denominator = [], []
        for c in t.children:
            den = _reciprocal(c)
            if den is not None:
                denominator.append(den)
            elif c.tag == DIVIDE and c.children[0] == InertForm(INTPOS, 1):
                # a reciprocal factor produced by the child-level POWER rule
                denominator.append(c.children[1])
            else:
                numerator.append(c)
        if denominator:
            num = (InertForm(INTPOS, 1) if not numerator
                   else numerator[0] if len(numerator) == 1
                   else InertForm(PROD, children=numerator))
            den = denominator[0] if len(denominator) == 1 \
                else InertForm(PROD, children=denominator)
            return reference_preprocess(InertForm(DIVIDE, children=[num, den]),
                                        use_divide)

    den = _reciprocal(t) if use_divide else None
    if den is not None:
        return reference_preprocess(
            InertForm(DIVIDE, children=[InertForm(INTPOS, 1), den]), use_divide)

    if use_divide and t.tag == DIVIDE:
        num, den = t.children
        if den.tag == INTPOS and den.payload != 0:
            # pull the numeric content of the numerator into a leading rational
            if is_int_literal(num):
                return rational(int_value(num), den.payload)
            if num.tag == RATIONAL:
                return rational(int_value(num.children[0]),
                                num.children[1].payload * den.payload)
            if num.tag == PROD and is_int_literal(num.children[0]):
                coeff = rational(int_value(num.children[0]), den.payload)
                rest = num.children[1:]
                return InertForm(PROD, children=[coeff] + rest)
            return InertForm(PROD, children=[rational(1, den.payload), num])

    return t


# --- outcomes ---------------------------------------------------------------

def _typed(t: InertForm) -> tuple:
    """The tree with the type of each payload, so that 1 and 1.0 differ."""
    return (t.tag, type(t.payload), t.payload,
            tuple(_typed(c) for c in t.children))


def _outcome(fn, *args):
    """The typed tree, or the type, message and position of the error."""
    try:
        return _typed(fn(*args))
    except TexcasError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _assert_matches(text):
    assert _outcome(parse_maple, text) == \
        _outcome(reference_parse_maple, text, False)
    try:
        tree = parse_maple(text)
    except TexcasError:
        return
    assert _typed(preprocess(tree, False)) == \
        _typed(reference_preprocess(tree, False))
    once = preprocess(tree)
    assert _typed(preprocess(once)) == _typed(once)
    with contextlib.suppress(TexcasError):  # the reference's taller form
        divided = reference_parse_maple(text, True)
        assert _typed(preprocess(divided)) == _typed(once)


def _infinite_floats(text) -> list:
    """Where the reference tokenizer finds a float literal whose double is
    infinite; empty where it finds none or refuses the text."""
    try:
        tokens = _maple_tokens(text)
    except TexcasError:
        return []
    return [pos for kind, lexeme, pos in tokens
            if kind == "float" and math.isinf(float(lexeme))]


# --- generated text ---------------------------------------------------------

_PIECES = [
    # names and the keywords refused as constructs
    "x", "y", "sin", "f_1", "_a", "Pi", "JacobiP", "proc", "module", "table",
    "array", "Array", "Matrix", "Vector", "set", "list",
    # integers, Unicode decimal digits, floats, and an integer past the
    # interpreter's digit limit
    "0", "2", "42", "007", "٣", "٣٤", "५", "\U0001d7d9",
    "3.", ".5", "2.25", "٣.٥", "1" * 4301,
    # ranges, quotes, strings closed and unclosed, and every operator
    "..", "...", ".", "'", '"s"', '""', '"a\\"b"', '"ab', '"\\', "+", "-",
    "*", "/", "^", "(", ")", ",", "=",
    # characters that start no token
    "{", "}", "[", "]", "#", "é", "\\", "$",
    # whitespace
    " ", "\n", "\t", "\u00a0", "\u2003",
    # nesting at and past the limits
    "(" * MAX_NESTING, "(" * (MAX_NESTING + 1), ")" * MAX_NESTING,
    "-" * MAX_NESTING, "-" * (MAX_NESTING + 1), "'" * (MAX_NESTING + 1),
    "f(" * (MAX_NESTING + 1), "x^" * MAX_NESTING, "x^-" * 33, "/x" * 130,
    "/x*x" * 130,
]
_maple_texts = st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)),
                        max_size=24).map("".join)
_fuzz = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@_fuzz
@given(_maple_texts)
def test_parse_matches_the_reference(text):
    assume(not _infinite_floats(text))
    _assert_matches(text)


@pytest.mark.parametrize("text", [
    "", " \n ", "٣", "٣.٥", "\U0001d7d9٣", "x é {",
    "é {", "{ é", "x +", "x + é", "proc {", "proc(x) é",
    "1" * 4301, "1" * 4301 + " é", '"ab', '"a\\"b"', "'x'", "''",
    "x..y..z", "a = b = c", "a..b = c..d", "x^+2", "x^-2", "-x^2", "+-+x",
    "2^3^4", "x^-y^z", "-" * MAX_NESTING + "x", "-" * (MAX_NESTING + 1) + "x",
    "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
    # a chain of divisions and multiplications is one flat product, however
    # long
    "x" + "/x" * 256, "x" + "/x" * 257, "x" + "/x^2" * 300,
    "x" + "/x*x" * (MAX_HEIGHT - 2), "x" + "/x*x" * (MAX_HEIGHT - 1), "f()", "f(,)",
    "f(x,)", "f(x,y", "3..4", "3...4", ".5.5", "1.e", "1/2/3", "a*b/c^2*d",
    "1/x^(-2)", "(a*b)/c", "2*x/y^3", "x/2/y", "-3*x", "-(2*x)", "-2.5",
    # chained quotients, negated quotients and divisions by reciprocals
    "(1/b/3)*y^(-1)", "(x^(-1)/2)^(-1)", "sin(1/b/3)*y^(-1)", "-(4/3)",
    "-(-(1/3))", "(-1/3)*4", "a/b/c^(-2)", "a/b*c^2", "p/(1/q)", "1/(1/4)",
    "(x^(-1))^(-1)", "a/(1/x/y)", "(y/(-1))/((-1)/(x+y))",
    # a signed quotient by a reciprocal, under a product and a minus sign
    "2*((-1)/(1/2))", "-(2*((-1)/(1/2)))", "-5*1*(0.168*(-5)*((-1)/(1/2)))",
])
def test_edge_cases_match_the_reference(text):
    _assert_matches(text)


@pytest.mark.parametrize("text, expected", [
    ("1/b/3", ["DIVIDE", ["INTPOS", 1], ["PROD", ["INTPOS", 3], ["NAME", "b"]]]),
    ("(1/b/3)*y^(-1)", ["DIVIDE", ["INTPOS", 1],
                        ["PROD", ["INTPOS", 3], ["NAME", "b"], ["NAME", "y"]]]),
])
def test_a_second_walk_of_a_quotient_is_a_no_op(text, expected):
    # a chained quotient is one quotient after one walk, with either parse
    once = preprocess(parse_maple(text))
    assert to_nested_list(once) == expected
    assert preprocess(once) == once
    assert preprocess(reference_parse_maple(text, True)) == once


@pytest.mark.parametrize("make", [random_tree, random_evaluable])
def test_preprocess_matches_the_reference_on_generated_trees(make):
    # without DIVIDE nodes only constants move, exactly as they did
    rng = random.Random(10)
    for _ in range(3000):
        tree = make(rng)
        assert _typed(preprocess(tree, False)) == \
            _typed(reference_preprocess(tree, False))


@_fuzz
@given(st.integers(0, 2 ** 32), st.sampled_from([random_tree, random_evaluable]))
def test_preprocess_is_idempotent_and_confluent_on_generated_trees(seed, make):
    tree = make(random.Random(seed))
    once = preprocess(tree)
    assert _typed(preprocess(once)) == _typed(once)
    _assert_matches(render_maple(tree))


def test_preprocess_is_idempotent_and_confluent_on_the_golden_texts():
    golden = json.loads((DATA / "maple_generated_golden.json").read_text(
        encoding="utf-8"))
    for row in golden:
        _assert_matches(row["text"])


# --- a float literal past the double range ----------------------------------

_OVER_RANGE = "9" * 400 + ".5"
_FINITE = "a float literal within the double range"


def _reads_past(text, k) -> bool:
    """Whether the reference parser consumed token ``k`` of ``text``."""
    parser = _Parser(_maple_tokens(text), use_divide=False)
    with contextlib.suppress(TexcasError):
        parser.parse()
    return parser.i > k


@_fuzz
@given(_maple_texts, _maple_texts)
def test_an_over_range_float_is_refused_where_the_reference_reads_it(prefix,
                                                                     suffix):
    # the reference reads the literal as inf; the parser refuses it where it
    # reads it, and otherwise does what the reference does
    text = f"{prefix} {_OVER_RANGE} {suffix}"
    at = len(prefix) + 1
    huge = _infinite_floats(text)
    assume(huge in ([], [at]))
    expected = _outcome(reference_parse_maple, text, False)
    if huge:
        k = [pos for _, _, pos in _maple_tokens(text)].index(at)
        if _reads_past(text, k):
            expected = (MapleSyntaxError, str(MapleSyntaxError(at, _FINITE)), at)
    assert _outcome(parse_maple, text) == expected


@pytest.mark.parametrize("text, at", [
    pytest.param(_OVER_RANGE, 0, id="alone"),
    pytest.param("x + " + _OVER_RANGE, 4, id="a term"),
    pytest.param("-" + _OVER_RANGE, 1, id="negated"),
    pytest.param("f(" + _OVER_RANGE + ")", 2, id="an argument"),
    pytest.param("1" + "0" * 400 + ".5 = x", 0, id="an equation side"),
    pytest.param("1" * 400 + ".", 0, id="no fraction digits"),
    pytest.param(_OVER_RANGE + " +", 0, id="before a syntax error"),
    pytest.param("(" + _OVER_RANGE, 1, id="in an unclosed parenthesis"),
    # an error the reference meets first stays as it was
    pytest.param("x +* " + _OVER_RANGE, None, id="after a syntax error"),
    pytest.param("x^" + _OVER_RANGE + " é", None, id="with a stray character"),
    pytest.param("proc " + _OVER_RANGE, None, id="after a keyword"),
    pytest.param(_OVER_RANGE + " {", None, id="before a brace"),
])
def test_over_range_floats(text, at):
    expected = _outcome(reference_parse_maple, text, False) if at is None else \
        (MapleSyntaxError, str(MapleSyntaxError(at, _FINITE)), at)
    assert _outcome(parse_maple, text) == expected


# --- the Maple-side golden --------------------------------------------------

def _error(exc: TexcasError) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def maple_row(text: str, lex) -> dict:
    """Per ``use_divide``: the parsed and preprocessed nested lists and the
    backward output and infos, or the error."""
    row = {"text": text}
    for key, use_divide in (("divide", True), ("no_divide", False)):
        try:
            tree = parse_maple(text)
        except TexcasError as exc:
            row[key] = _error(exc)
            continue
        out = {"parsed": to_nested_list(tree),
               "preprocessed": to_nested_list(preprocess(tree, use_divide))}
        try:
            result = backward_string(text, lex, use_divide)
        except TexcasError as exc:
            out["backward"] = _error(exc)
        else:
            out["backward"] = {"output": result.output,
                               "infos": [[i.kind, i.text] for i in result.infos]}
        row[key] = out
    return row


def golden_text(rows) -> str:
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def test_maple_side_matches_generated_golden(lex):
    golden = (DATA / "maple_generated_golden.json").read_text(encoding="utf-8")
    rows = [maple_row(row["text"], lex) for row in json.loads(golden)]
    assert golden_text(rows).splitlines() == golden.splitlines()


# --- totality ---------------------------------------------------------------

def _total(fn, *args):
    try:
        fn(*args)
    except TexcasError:
        pass


@_fuzz
@given(st.integers(0, 2 ** 32), st.sampled_from([random_tree, random_evaluable]))
def test_check_equivalence_raises_only_texcas_errors(seed, make):
    rng = random.Random(seed)
    _total(check_equivalence, make(rng), make(rng), ["x", "y", "z"])


@_fuzz
@given(_maple_texts)
def test_maple_cli_commands_exit_with_a_code(text):
    codes = (0, *(c for _, c in cli.EXIT_CODES))
    for argv in (["inert", "--", text], ["translate", "--backward", "--", text],
                 ["roundtrip", "--side", MAPLE_SIDE, "--", text]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in codes
        assert "Traceback" not in err.getvalue()
        if code and argv[0] != "roundtrip":
            # a round trip that stops prints the steps it took
            assert out.getvalue() == ""
