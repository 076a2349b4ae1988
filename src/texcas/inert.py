"""Maple 1D parser and the inert-form expression tree.

The parser builds Maple's own ``ToInert`` form, ``a/b`` as ``a*b^(-1)``, and
performs no simplification: constants are never folded, ``sqrt``/``root``
calls are never rewritten as fractional powers, and operand order is kept.
Unevaluation quotes ``'...'`` are accepted and stripped.

``preprocess`` applies the renderer-facing normalizations in one idempotent
walk: numeric constants move to the front of products and sums, and negative
integer powers become DIVIDE nodes, which no other stage builds.
"""

from __future__ import annotations

import math
import re
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
# token is a token of its own, so one findall pass covers any text.
_TOKEN_RE = re.compile(
    r"""\s*(
        \d+\.\d+ | \d+\.(?!\.) | \.\d+     # float
      | \d+                                # integer
      | [A-Za-z_][A-Za-z0-9_]*             # name
      | "(?:[^"\\]|\\.)*"                  # string
      | \.\. | [-+*/^(),=']                # operators
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
# simplification, compiled evaluation) recurses about two frames per level,
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
        """Terms joined by ``+``/``-``, each one flat product of the factors
        joined by ``*``/``/``, with each divisor stored as its reciprocal."""
        tokens = self.tokens
        terms = None  # a lone term is returned without a list
        while True:
            term = self.unary()
            tok = tokens[self.i]
            if tok == "*" or tok == "/":
                factors = [term]
                while tok == "*" or tok == "/":
                    self.i += 1
                    rhs = self.unary()
                    if tok == "*":
                        factors.append(rhs)
                    elif len(factors) == 1:  # (a*b)/c splices a*b, 1/c drops the 1
                        factors = _factors(factors[0]) + [_reciprocal(rhs)]
                    else:
                        factors.append(_reciprocal(rhs))
                    tok = tokens[self.i]
                term = factors[0] if len(factors) == 1 \
                    else InertForm(PROD, children=factors)
            if terms is None:
                if tok != "+" and tok != "-":
                    return term
                terms = [term]
            else:
                terms.append(term if op == "+" else _negate(term))
                if tok != "+" and tok != "-":
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
    """Maple's internal form of ``1/t``: ``x^(-k)`` for ``t = x^k``, which is
    ``x`` itself for k = -1, else ``t^(-1)``.  It is also what a negative
    integer power divides by, in ``preprocess`` and the renderer."""
    if t.tag != POWER or not is_int_literal(t.children[1]):
        return InertForm(POWER, children=[t, _MINUS_ONE])
    k = -int_value(t.children[1])
    return t.children[0] if k == 1 else InertForm(POWER, children=[t.children[0], intlit(k)])


def _factors(t: InertForm) -> List[InertForm]:
    """The factors of a product, none of 1, else the node itself."""
    return t.children if t.tag == PROD else [] if t == _ONE else [t]


def _negate(t: InertForm) -> InertForm:
    if t.tag == INTPOS:
        return InertForm(INTNEG, t.payload)
    if t.tag == INTNEG:
        return InertForm(INTPOS, t.payload)
    if t.tag == FLOAT:
        return InertForm(FLOAT, -t.payload)
    if t.tag == PROD and is_int_literal(t.children[0]):
        factors = _negated_lead(t.children)
        return factors[0] if len(factors) == 1 else InertForm(PROD, children=factors)
    return InertForm(PROD, children=[_MINUS_ONE, t])


def _negated_lead(factors: List[InertForm]) -> List[InertForm]:
    """The factors of a product, the first an integer literal, with that
    literal negated, and dropped where negating makes it 1: -(-x) is x."""
    return _factors(_negate(factors[0])) + factors[1:]


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
    """Normalize a parsed tree for rendering in one walk, value-preserving
    and idempotent.  Numeric constants move to the front of sums and
    products.  With ``use_divide``, each product, negative integer power and
    DIVIDE node (read as the parser stores a division) becomes one quotient,
    into which the quotients among its factors merge.  Leaves are returned
    as they are: no stage changes a tree in place."""
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
        return _node(tag, tree.payload, children)
    return InertForm(tag, tree.payload, children)


def _node(tag: str, payload, children: List[InertForm]) -> InertForm:
    """A sum or product, with its numeric constants moved first."""
    constants = [c for c in children if c.tag in _NUMERIC_TAGS]
    if constants and len(constants) < len(children):
        children = constants + [c for c in children if c.tag not in _NUMERIC_TAGS]
    return InertForm(tag, payload, children)


def _parts(t: InertForm) -> tuple:
    """The normalized factors a product, negative integer power or DIVIDE
    node multiplies and divides by."""
    tag = t.tag
    if tag == POWER:
        return [], [preprocess(_reciprocal(t))]
    if tag == DIVIDE:  # the numerator's factors times 1/den, as parsed
        num, den = t.children
        tag = num.tag
        if tag == PROD or tag == DIVIDE or tag == POWER and num.children[1].tag == INTNEG:
            over, under = _parts(num)
        else:
            over, under = _factors(preprocess(num)), []
        return over, under + [preprocess(den)]
    over, under = [], []
    for c in t.children:
        tag = c.tag
        if not (tag == PROD or tag == DIVIDE or tag == POWER and c.children[1].tag == INTNEG):
            over.append(preprocess(c) if c.children else c)  # no quotient
            continue
        more, less = _parts(c)
        if not less:
            over.append(_quotient(more, less))
            continue
        if over == [_MINUS_ONE] and more and is_int_literal(more[0]):
            over, more = [], _negated_lead(more)  # as the parser negates
        over += more
        under += less
    return over, under


def _quotient(over: List[InertForm], under: List[InertForm]) -> InertForm:
    """The product of ``over`` divided by the product of ``under``, both
    lists of normalized factors, normalized without walking them again."""
    # a quotient among the factors merges into both
    factors = [g for f in over for g in (_factors(f.children[0]) if f.tag == DIVIDE else (f,))]
    under = under + [f.children[1] for f in over if f.tag == DIVIDE]
    num = _ONE if not factors else factors[0] if len(factors) == 1 \
        else _node(PROD, None, factors)
    if not under:
        return num
    den = under[0] if len(under) == 1 else _quotient(under, [])
    if den.tag != INTPOS or den.payload == 0:
        return InertForm(DIVIDE, children=[num, den])
    # the numeric content of the numerator becomes a leading rational
    lead, rest = (num.children[0], num.children[1:]) if num.tag == PROD else (num, [])
    if not is_int_literal(lead) and (lead.tag != RATIONAL or rest):
        lead, rest = _ONE, [num]
    p, q = (lead, _ONE) if is_int_literal(lead) else lead.children
    coeff = rational(int_value(p), q.payload * den.payload)
    return InertForm(PROD, children=[coeff] + rest) if rest else coeff


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
        if tag == FLOAT and not isinstance(payload, (int, float)):
            raise MalformedList("FLOAT payload must be numeric")
        if tag in (NAME, STRING) and not isinstance(payload, str):
            raise MalformedList(f"{tag} payload must be a string")
        return InertForm(tag, payload)
    children = [_from_list(c, room - 1) for c in nl[1:]]
    node = InertForm(tag, children=children)
    _check_arity(node)
    return node


def _check_arity(t: InertForm) -> None:
    n = len(t.children)
    if t.tag in (POWER, EQUATION, RANGE, DIVIDE, FUNCTION) and n != 2:
        raise MalformedList(f"{t.tag} takes exactly 2 children, got {n}")
    if t.tag in (SUM, PROD) and n < 2:
        raise MalformedList(f"{t.tag} takes at least 2 children, got {n}")
    if t.tag == RATIONAL:
        if n != 2 or t.children[0].tag not in (INTPOS, INTNEG) \
                or t.children[1].tag != INTPOS or t.children[1].payload == 0:
            raise MalformedList("RATIONAL takes (INTPOS|INTNEG, nonzero INTPOS)")


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

def render_maple(tree: InertForm) -> str:
    """Render an inert tree to Maple 1D syntax with canonical parenthesization."""
    return _render(tree, 0)


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


# precedence levels for canonical parenthesization
_PREC = {EQUATION: 1, RANGE: 2, SUM: 3, PROD: 4, DIVIDE: 4, POWER: 6}
# each two-operand node's separator and the precedence its operands render at
_INFIX = {EQUATION: (" = ", 2), RANGE: ("..", 3), DIVIDE: ("/", 6), POWER: ("^", 7)}


def _render(t: InertForm, parent_prec: int) -> str:
    tag = t.tag
    if tag == NAME:
        return t.payload
    if tag == STRING:
        return f'"{t.payload}"'
    if tag == INTPOS:
        return str(t.payload)
    if tag == INTNEG:
        text = f"-{t.payload}"
        return f"({text})" if parent_prec >= 4 else text
    if tag == FLOAT:
        text = float_text(t.payload)
        return text if parent_prec < 4 or t.payload >= 0 else f"({text})"
    if tag == RATIONAL:
        text = f"{_render(t.children[0], 5)}/{_render(t.children[1], 5)}"
        return f"({text})" if parent_prec >= 4 else text
    if tag == FUNCTION:
        return f"{t.children[0].payload}({_render(t.children[1], 0)})"
    if tag == EXPSEQ:
        return ", ".join(_render(c, 0) for c in t.children)
    if tag == SUM:
        text = join_terms([_render(c, _PREC[SUM]) for c in t.children])
        return f"({text})" if parent_prec > _PREC[SUM] else text
    if tag == PROD:
        children = t.children
        sign = ""
        if children and children[0].tag == INTNEG:
            sign, children = "-", _negated_lead(children)
        num_parts, den_parts = [], []
        for c in children:
            if c.tag == POWER and c.children[1].tag == INTNEG:  # x^(-n) as /x^n
                den_parts.append(_render(_reciprocal(c), _PREC[POWER]))
            else:
                num_parts.append(_render(c, _PREC[PROD]))
        text = sign + ("*".join(num_parts) or "1")
        for d in den_parts:
            text += "/" + d
        return f"({text})" if (parent_prec > _PREC[PROD]
                               or (sign and parent_prec >= _PREC[PROD])) else text
    if tag in _INFIX:
        separator, operand_prec = _INFIX[tag]
        lhs, rhs = t.children
        text = _render(lhs, operand_prec) + separator + _render(rhs, operand_prec)
        return f"({text})" if parent_prec > _PREC[tag] else text
    raise MalformedList(f"cannot render tag {tag}")
