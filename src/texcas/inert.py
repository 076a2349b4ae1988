"""Maple 1D parser and the inert-form expression tree.

The parser builds Maple's own ``ToInert`` form, one SUM per chain of ``+``
and one PROD per chain of ``*``, and ``a/b`` as ``a*b^(-1)``; a later
bracketed sum or product stays one operand, which ``render_maple`` brackets
again, so that the tree keeps the text's order of operations, which the
evaluator follows.  It folds no constants, rewrites no ``sqrt``/``root``
call as a fractional power, and keeps operand order.  Unevaluation quotes
``'...'`` are stripped.

``preprocess`` applies the renderer-facing normalizations in one idempotent
walk, whose output ``render_maple``, ``parse_maple`` and ``preprocess`` give
back unchanged: every sum and product made flat, numeric constants moved to
their front, and negative integer powers made DIVIDE nodes, which no other
stage builds.
"""

from __future__ import annotations

import math
import re
import sys
from typing import List, Optional, Union

from .errors import (MalformedList, MapleSyntaxError, MapleTooDeep,
                     TexcasError, UnsupportedConstruct)
from .lexicon import Record

# inert tags
NAME = "NAME"
STRING = "STRING"
INTPOS = "INTPOS"
INTNEG = "INTNEG"
RATIONAL = "RATIONAL"
FLOAT = "FLOAT"
SUM = "SUM"
PROD = "PROD"
POWER = "POWER"
FUNCTION = "FUNCTION"
EXPSEQ = "EXPSEQ"
EQUATION = "EQUATION"
RANGE = "RANGE"
DIVIDE = "DIVIDE"

TAGS = {NAME, STRING, INTPOS, INTNEG, RATIONAL, FLOAT, SUM, PROD, POWER,
        FUNCTION, EXPSEQ, EQUATION, RANGE, DIVIDE}

_PAYLOAD_TAGS = {NAME, STRING, INTPOS, INTNEG, FLOAT}
_NUMERIC_TAGS = frozenset((INTPOS, INTNEG, RATIONAL, FLOAT))
_QUOTIENT_TAGS = frozenset((DIVIDE, RATIONAL))


class InertForm(Record):
    __slots__ = ("tag", "payload", "children")

    def __init__(self, tag: str, payload: Union[int, float, str, None] = None,
                 children: Optional[List[InertForm]] = None):
        self.tag = tag
        self.payload = payload
        self.children = [] if children is None else children

    def __repr__(self):
        # without recursion, so that every tree the parser accepts has a repr
        out, todo = [], [self]
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                out.append(t)
            elif t.tag in _PAYLOAD_TAGS:
                out.append(f"{t.tag}({t.payload!r})")
            else:
                out.append(f"{t.tag}(")
                todo.append(")")
                for k, c in enumerate(reversed(t.children)):
                    todo.extend([", ", c] if k else [c])
        return "".join(out)


def intlit(n: int) -> InertForm:
    if n >= 0:
        return InertForm(INTPOS, n)
    return InertForm(INTNEG, -n)


def rational(p: int, q: int) -> InertForm:
    return InertForm(RATIONAL, children=[intlit(p), InertForm(INTPOS, q)])


def is_int_literal(t: InertForm) -> bool:
    return t.tag in (INTPOS, INTNEG)


def int_value(t: InertForm) -> int:
    return t.payload if t.tag == INTPOS else -t.payload


_ONE = InertForm(INTPOS, 1)
_MINUS_ONE = InertForm(INTNEG, 1)


# --- tokenizer ---------------------------------------------------------------

# Each match is one token after any whitespace; a character that starts no
# token is a token of its own, so one findall pass covers any text.  Names and
# operators, the commonest, are tried first; a float is tried before an
# integer, and \.\d+ before \.\., and no other two start with one character.
_TOKEN_RE = re.compile(
    r"""\s*(
        [A-Za-z_][A-Za-z0-9_]*             # name
      | [-+*/^(),=']                       # operators
      | \d+\.\d+ | \d+\.(?!\.) | \.\d+     # float
      | \d+                                # integer
      | "(?:[^"\\]|\\.)*" | \.\.           # string, range operator
      | \S                                 # a character that starts no token
    )""", re.VERBOSE)
_EOF = ""
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# else a one-character token is a digit: any Unicode decimal digit, as ``\d``
_ONE_CHAR_TOKENS = _NAME_START | frozenset("-+*/^(),='")

_UNSUPPORTED_KEYWORDS = {"proc", "module", "table", "array", "Array", "Matrix",
                         "Vector", "set", "list"}


# --- recursive descent parser ------------------------------------------------
# precedence: = < .. < +,- < *,/ < unary minus < ^ < atoms/calls

# Sub-expressions (parentheses, quotes, call arguments, signs and exponents)
# may nest this deep: the parser recurses four frames per parenthesis, quote
# or call argument, and one per sign or exponent.
MAX_NESTING = 64
# A parsed tree may be this tall.  A call or power inside a product inside a
# sum (x-x*1/sin(t)^x) adds several tree levels per parser nesting level, and
# every later stage (preprocess, rendering, backward translation,
# simplification, evaluation) recurses about two frames per level,
# so the bound keeps them all within Python's default recursion limit.
MAX_HEIGHT = 4 * MAX_NESTING


class _Parser:
    """Recursive descent over the token strings; ``i`` indexes the next one.
    Token positions are found again only when the parse fails."""

    def __init__(self, text: str, tokens: List[str]):
        self.text = text
        self.tokens = tokens
        self.i = 0
        self.depth = -1  # the outermost expression is level 0

    def fail(self, i: int, detail, error=MapleSyntaxError) -> TexcasError:
        """``error(position, detail)`` for a parse that stops at token ``i``;
        but first the error for a character that starts no token, if any."""
        starts = []
        for m in _TOKEN_RE.finditer(self.text):
            tok = m.group(1)
            if len(tok) == 1 and tok not in _ONE_CHAR_TOKENS \
                    and not tok.isdecimal():
                return UnsupportedConstruct(tok) if tok in "{}[]" else \
                    MapleSyntaxError(m.start(1), f"a token (got {tok!r})")
            starts.append(m.start(1))
        return error((starts + [len(self.text)])[i], detail)

    def nest(self) -> None:
        """One level deeper; past MAX_NESTING, MapleTooDeep at the next token."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(self.i, MAX_NESTING, MapleTooDeep)

    def parse(self) -> InertForm:
        node = self.equation()
        if self.tokens[self.i] != _EOF:
            raise self.fail(self.i, "end of input")
        return node

    def equation(self) -> InertForm:
        """``range ["=" range]``, a range being ``sum [".." sum]``, one
        nesting level below the caller's.  A range is read only where a
        ``..`` follows a sum."""
        self.nest()
        tokens = self.tokens
        left = self.sum_()
        if tokens[self.i] == "..":
            left = self.range_(left)
        if tokens[self.i] == "=":
            self.i += 1
            right = self.sum_()
            if tokens[self.i] == "..":
                right = self.range_(right)
            left = InertForm(EQUATION, children=[left, right])
        self.depth -= 1
        return left

    def range_(self, left: InertForm) -> InertForm:
        """The range from ``left`` to the sum after the ``..`` at ``i``."""
        self.i += 1
        return InertForm(RANGE, children=[left, self.sum_()])

    def sum_(self) -> InertForm:
        """One sum of the ``+``/``-`` terms, each one product of the ``*``/``/``
        factors, a divisor stored as its reciprocal; a later bracketed one kept whole."""
        tokens = self.tokens
        terms, op = [], "+"
        while True:
            term = self.unary()
            tok = tokens[self.i]
            if tok == "*" or tok == "/":
                factors = [term]
                while tok == "*" or tok == "/":
                    self.i += 1
                    if tok == "/" and factors == [_ONE]:  # 1/c is c's reciprocal
                        factors = []
                    rhs = self.unary()
                    factors.append(rhs if tok == "*" else _reciprocal(rhs))
                    tok = tokens[self.i]
                term = _product(factors)
            if tok != "+" and tok != "-" and not terms:
                return term
            terms.append(term if op == "+" else _negate(term))
            if tok != "+" and tok != "-":
                if terms[0].tag == SUM:  # evaluated first either way, so spliced in
                    terms[:1] = terms[0].children
                return InertForm(SUM, children=terms)
            op = tok
            self.i += 1

    def unary(self) -> InertForm:
        """A signed factor, or an atom with an optional right-associative
        exponent, which may carry a minus sign but no plus sign."""
        tokens = self.tokens
        i = self.i
        tok = tokens[i]
        if tok == "-" or tok == "+":
            self.i = i + 1
            self.nest()
            node = self.unary()
            self.depth -= 1
            return _negate(node) if tok == "-" else node
        base = self.atom(tokens, i, tok)
        if tokens[self.i] != "^":
            return base
        self.i = i = self.i + 1
        self.nest()
        if tokens[i] == "+":
            raise self.fail(i, "an expression")
        exponent = self.unary()
        self.depth -= 1
        return InertForm(POWER, children=[base, exponent])

    def atom(self, tokens: List[str], i: int, tok: str) -> InertForm:
        self.i = i + 1
        lead = tok[:1]
        if lead in _NAME_START:
            if tok in _UNSUPPORTED_KEYWORDS:
                raise self.fail(i, tok, lambda _, kw: UnsupportedConstruct(kw))
            if tokens[i + 1] != "(":
                return InertForm(NAME, tok)
            self.i = i + 2
            args = []
            if tokens[i + 2] != ")":
                args.append(self.equation())
                while tokens[self.i] == ",":
                    self.i += 1
                    args.append(self.equation())
            self.close(")")
            return InertForm(FUNCTION, children=[
                InertForm(NAME, tok), InertForm(EXPSEQ, children=args)])
        if lead.isdecimal() or lead == "." and len(tok) > 1 and tok != "..":
            if "." in tok:
                value = float(tok)
                if math.isinf(value):  # past the double range
                    raise self.fail(i, "a float literal within the double range")
                return InertForm(FLOAT, value)
            try:
                return InertForm(INTPOS, int(tok))
            except ValueError:  # past Python's int-from-text digit limit
                raise self.fail(i, "an integer literal with fewer digits") from None
        if tok == "(" or tok == "'":
            # a parenthesized expression, or unevaluation quotes, stripped
            inner = self.equation()
            self.close(")" if tok == "(" else "'")
            return inner
        if lead == '"' and len(tok) > 1:
            return InertForm(STRING, tok[1:-1])
        raise self.fail(i, "an expression")

    def close(self, text: str) -> None:
        if self.tokens[self.i] != text:
            raise self.fail(self.i, repr(text))
        self.i += 1


def _reciprocal(t: InertForm) -> InertForm:
    """Maple's internal form of ``1/t``, and what ``t^(-1)`` divides by:
    ``x^(-k)`` for ``t = x^k`` (an integer k, not 0), else ``t^(-1)``."""
    if t.tag != POWER or not is_int_literal(t.children[1]) or not t.children[1].payload:
        return InertForm(POWER, children=[t, _MINUS_ONE])
    k = -int_value(t.children[1])
    return t.children[0] if k == 1 else InertForm(POWER, children=[t.children[0], intlit(k)])


def _factors(t: InertForm) -> List[InertForm]:
    """The factors of a product, none of 1, else the node itself."""
    return t.children if t.tag == PROD else [] if t.payload == 1 and t.tag == INTPOS else [t]


def _spliced(tag: str, nodes: List[InertForm]) -> List[InertForm]:
    """``nodes`` with the children of each node tagged ``tag`` in its place."""
    for t in nodes:
        if t.tag == tag:
            return [c for t in nodes for c in (t.children if t.tag == tag else (t,))]
    return nodes


def _product(factors: List[InertForm]) -> InertForm:
    """The product of factors for the parser and ``preprocess``, a product
    first among them spliced in: a leading -1 merges with an integer after
    it, dropped if that makes 1 (``-(-x)`` is ``x``), as is a leading 1
    before a divisor."""
    if factors and factors[0].tag == PROD:  # evaluated first either way, so spliced in
        factors = factors[0].children + factors[1:]
    while len(factors) > 1 and factors[0].payload == 1 and factors[0].tag == INTNEG \
            and is_int_literal(factors[1]):
        factors = _factors(_negate(factors[1])) + factors[2:]
    if len(factors) > 1 and factors[0].payload == 1 and factors[0].tag == INTPOS \
            and _divisor(factors[1]):
        factors = factors[1:]
    return InertForm(PROD, children=factors) if len(factors) > 1 \
        else factors[0] if factors else _ONE


def _divisor(t: InertForm) -> Optional[InertForm]:
    """``x^k`` for a factor ``t = x^(-k)`` that ``/x^k`` parses back to."""
    divisor = _reciprocal(t) if t.tag == POWER and t.children[1].tag == INTNEG else None
    return divisor if divisor is not None and _reciprocal(divisor) == t else None


def _negate(t: InertForm) -> InertForm:
    if t.tag == INTPOS:
        return InertForm(INTNEG, t.payload)
    if t.tag == INTNEG:
        return InertForm(INTPOS, t.payload)
    if t.tag == FLOAT:
        return InertForm(FLOAT, -t.payload)
    if t.tag == PROD:
        return _product([_MINUS_ONE] + t.children)
    return InertForm(PROD, children=[_MINUS_ONE, t])  # as _product would build it


def split_sign(factors: List[InertForm]) -> tuple:
    """A product's sign and the factors after it, as both renderers write them:
    a leading negative integer is a minus sign, its 1 dropped."""
    if factors and factors[0].tag == INTNEG:
        return "-", _factors(_negate(factors[0])) + factors[1:]
    return "", factors


def parse_maple(text: str) -> InertForm:
    """Parse a Maple 1D expression into its inert form, unsimplified."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise MapleSyntaxError(0, "an expression")
    tokens.append(_EOF)
    tree = _Parser(text, tokens).parse()
    # each level takes a token (EOF aside): a shorter text is never too tall
    if len(tokens) > MAX_HEIGHT + 1 and _height(tree) > MAX_HEIGHT:
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


# --- preprocessing ------------------------------------------------------------

def preprocess(tree: InertForm, use_divide: bool = True) -> InertForm:
    """Normalize a tree for rendering in one walk, value-preserving and
    idempotent: sums and products made flat, their numeric constants first.
    With ``use_divide``, each product, negative integer power and DIVIDE node
    becomes one quotient, into which the quotients among its factors merge.
    Leaves are returned as they are: no stage changes a tree in place."""
    children = tree.children
    if not children:
        return tree
    tag = tree.tag
    # the one tag test: a quotient, a sum or product, or any other node
    if use_divide and (tag == PROD or tag == DIVIDE
                       or tag == POWER and children[1].tag == INTNEG):
        return _quotient(*_parts(tree))
    children = [preprocess(c, use_divide) if c.children else c for c in children]
    if tag == SUM or tag == PROD:
        return _node(tag, _spliced(tag, children))
    return InertForm(tag, tree.payload, children)


def _node(tag: str, children: List[InertForm]) -> InertForm:
    """The sum or product of children none tagged ``tag``, numeric constants first."""
    constants = [c for c in children if c.tag in _NUMERIC_TAGS]
    if tag == PROD and len(constants) > 1:  # each -1 first, where the sign rule merges it
        constants.sort(key=_MINUS_ONE.__ne__)
    if constants:
        children = constants + [c for c in children if c.tag not in _NUMERIC_TAGS]
    return _product(children) if tag == PROD else InertForm(SUM, children=children)


def _parts(t: InertForm) -> tuple:
    """The normalized factors a product, negative integer power or DIVIDE
    node multiplies and divides by."""
    tag = t.tag
    if tag == POWER or tag == DIVIDE:  # the numerator's factors times 1/den, as parsed
        num, den = t.children if tag == DIVIDE else (_ONE, _reciprocal(t))
        tag = num.tag
        if tag == PROD or tag == DIVIDE or tag == POWER and num.children[1].tag == INTNEG:
            over, under = _parts(num)
        else:
            over, under = _factors(preprocess(num)), []
        den = preprocess(den)
        if den.tag in _QUOTIENT_TAGS and den.children[0] == _ONE:  # p/(1/q) is p*q,
            # q where the division stands, signed by the parser's own rule
            return _factors(_product(over + [den.children[1]])), under
        return over, under + [den]
    over, under = [], []
    for c in t.children:
        tag = c.tag
        if tag == PROD or tag == DIVIDE or tag == POWER and c.children[1].tag == INTNEG:
            more, less = _parts(c)
            over += more
            under += less
        else:
            over.append(preprocess(c) if c.children else c)  # no quotient
    return over, under


def _quotient(over: List[InertForm], under: List[InertForm]) -> InertForm:
    """The product of ``over`` divided by the product of ``under``, both
    lists of normalized factors, normalized without walking them again."""
    # a quotient among the factors, a rational too, merges into both
    over = _spliced(PROD, over)
    factors = [g for f in over
               for g in (_factors(f.children[0]) if f.tag in _QUOTIENT_TAGS else (f,))]
    under = under + [f.children[1] for f in over if f.tag in _QUOTIENT_TAGS]
    num = factors[0] if len(factors) == 1 else _node(PROD, factors)
    if not under:
        return num
    den = under[0] if len(under) == 1 else _quotient(under, [])
    if den.tag in _QUOTIENT_TAGS and den.children[0] == _ONE:  # the divisors merged into 1/q
        return _quotient(factors + [den.children[1]], [])
    if den.tag != INTPOS or den.payload == 0:
        return InertForm(DIVIDE, children=[num, den])
    # the numeric content of the numerator becomes a leading rational p/q,
    # and a 1 before it is dropped, as the parser drops the 1 of 1/q
    rest = _factors(num)
    while rest and rest[0].payload == 1 and rest[0].tag == INTPOS:
        rest = rest[1:]
    p, rest = (int_value(rest[0]), rest[1:]) if rest and is_int_literal(rest[0]) else (1, rest)
    return _product([rational(p, den.payload)] + rest)


# --- nested list bijection ----------------------------------------------------

def to_nested_list(tree: InertForm) -> list:
    if tree.tag in _PAYLOAD_TAGS:
        return [tree.tag, tree.payload]
    return [tree.tag] + [to_nested_list(c) for c in tree.children]


def from_nested_list(nl) -> InertForm:
    """The tree of a nested list; one nested more than ``MAX_HEIGHT`` levels
    below its root is refused, as ``parse_maple`` refuses so tall a tree."""
    return _from_list(nl, MAX_HEIGHT)


def _from_list(nl, room: int) -> InertForm:
    """``from_nested_list`` for a list ``room`` levels above the bound."""
    if room < 0:
        raise MalformedList(f"a list may nest at most {MAX_HEIGHT} levels")
    if not isinstance(nl, list) or not nl:
        raise MalformedList(f"expected a non-empty list, got {nl!r}")
    tag = nl[0]
    if not isinstance(tag, str):
        raise MalformedList(f"tag must be a string, got {tag!r}")
    if tag.startswith("_Inert_"):
        tag = tag[len("_Inert_"):]
    if tag not in TAGS:
        raise MalformedList(f"unknown tag {tag!r}")
    if tag in _PAYLOAD_TAGS:
        if len(nl) != 2:
            raise MalformedList(f"{tag} takes exactly one payload")
        payload = nl[1]
        if tag in (INTPOS, INTNEG) and (not isinstance(payload, int)
                                        or isinstance(payload, bool) or payload < 0):
            raise MalformedList(f"{tag} payload must be a nonnegative int")
        if tag == FLOAT and (type(payload) not in (int, float)  # a bool is no number
                             or not abs(payload) <= sys.float_info.max):
            raise MalformedList("FLOAT payload must be a finite double")
        if tag in (NAME, STRING) and not isinstance(payload, str):
            raise MalformedList(f"{tag} payload must be a string")
        return InertForm(tag, payload)
    children = [_from_list(c, room - 1) for c in nl[1:]]
    n = len(children)
    if tag in (POWER, EQUATION, RANGE, DIVIDE, FUNCTION) and n != 2:
        raise MalformedList(f"{tag} takes exactly 2 children, got {n}")
    if tag in (SUM, PROD) and n < 2:
        raise MalformedList(f"{tag} takes at least 2 children, got {n}")
    if tag == RATIONAL and (n != 2 or children[0].tag not in (INTPOS, INTNEG)
                            or children[1].tag != INTPOS or children[1].payload == 0):
        raise MalformedList("RATIONAL takes (INTPOS|INTNEG, nonzero INTPOS)")
    if tag == FUNCTION and (children[0].tag != NAME or children[1].tag != EXPSEQ):
        raise MalformedList("FUNCTION takes (NAME, EXPSEQ)")
    return InertForm(tag, children=children)


def nested_list_to_text(nl, compat_prefix: bool = False) -> str:
    prefix = "_Inert_" if compat_prefix else ""
    if isinstance(nl, list):
        head = prefix + nl[0]
        rest = [nested_list_to_text(x, compat_prefix) for x in nl[1:]]
        return "[" + ",".join([head] + rest) + "]"
    if isinstance(nl, str):
        return f'"{nl}"'
    return repr(nl)


# --- rendering back to Maple 1D ------------------------------------------------

def float_text(x: float) -> str:
    """Positional decimal text with a '.': neither grammar reads ``1e-05``,
    and text without a '.' would reparse as an integer."""
    text = repr(x)
    if "e" in text:
        from decimal import Decimal  # imported only when a float needs it
        text = format(Decimal(text), "f")
    return text if "." in text else text + ".0"


def join_terms(terms: List[str]) -> str:
    """Rendered sum terms in one text: a ``+`` goes before each term after
    the first that has no sign of its own.  Both renderers join sums so."""
    text = terms[0] if terms else ""
    for term in terms[1:]:
        text += term if term.startswith("-") else "+" + term
    return text


# Precedence levels, by which backward's LaTeX brackets too: each node's own,
# and the least its operands may have; an operand below it is bracketed, as
# is a signed one where a factor is needed.  A rational is a quotient.
_PREC = {EQUATION: 1, RANGE: 2, SUM: 3, PROD: 4, DIVIDE: 4, RATIONAL: 4, POWER: 6}
_SLOT_PREC = {EQUATION: 2, RANGE: 3, SUM: 3, PROD: 4, DIVIDE: 6, RATIONAL: 6, POWER: 7}
# each two-operand node's separator
_INFIX = {EQUATION: " = ", RANGE: "..", DIVIDE: "/", RATIONAL: "/", POWER: "^"}


def bracketed(tag: str, parent: Optional[str], signed: bool,
              later: bool = False) -> bool:
    """Whether an operand tagged ``tag``, ``signed`` if written with a leading
    ``-``, is bracketed below a node tagged ``parent`` (None: root or call).
    A sum's or product's ``later`` operands, all but its first, sit one level
    above its slot, so that a sum or product there is bracketed: the parser
    keeps it one operand."""
    prec = _SLOT_PREC.get(parent, 0)
    slot = prec + later
    return _PREC.get(tag, slot) < slot or signed and prec >= _PREC[PROD]


def render_maple(tree: InertForm, parent: Optional[str] = None,
                 later: bool = False) -> str:
    """Render an inert tree to Maple 1D syntax with canonical parenthesization,
    as an operand of a node tagged ``parent`` (None: the root or a call's),
    ``later`` if it is not that sum's or product's first."""
    text = _text(tree)
    return f"({text})" if bracketed(tree.tag, parent, text.startswith("-"),
                                    later) else text


def _text(t: InertForm) -> str:
    """``t`` written without brackets of its own."""
    tag = t.tag
    if tag == NAME:
        return t.payload
    if tag == STRING:
        return f'"{t.payload}"'
    if tag == INTPOS or tag == INTNEG:  # -0 too
        return ("-" if tag == INTNEG else "") + str(t.payload)
    if tag == FLOAT:
        return float_text(t.payload)
    if tag == FUNCTION:
        return f"{t.children[0].payload}({render_maple(t.children[1])})"
    if tag == EXPSEQ:
        return ", ".join(render_maple(c) for c in t.children)
    if tag == SUM:
        return join_terms([render_maple(c, SUM, i > 0)
                           for i, c in enumerate(t.children)])
    if tag == PROD:
        # the factors in stored order, each divisor after a /
        sign, factors = split_sign(t.children)
        if factors and factors[0].tag == FLOAT and t.children[0] == _MINUS_ONE:
            factors = [_ONE] + factors  # -1*2.5, as -2.5 reads as one float
        text = "".join("*" + render_maple(c, PROD, i > 0) if (d := _divisor(c)) is None
                       else "/" + render_maple(d, DIVIDE) for i, c in enumerate(factors))
        return sign + (text[1:] if text[:1] == "*" else "1" + text)
    if tag in _INFIX:
        lhs, rhs = t.children
        return render_maple(lhs, tag) + _INFIX[tag] + render_maple(rhs, tag)
    raise MalformedList(f"cannot render tag {tag}")
