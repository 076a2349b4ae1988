"""Maple 1D parser and the inert-form expression tree.

The parser performs no simplification of any kind: constants are never
folded, ``sqrt``/``root`` calls are never rewritten as fractional powers, and
operand order is preserved.  Unevaluation quotes ``'...'`` are accepted and
stripped (every parse here is unevaluated anyway).

``preprocess`` applies the renderer-facing normalizations: numeric constants
move to the front of products and sums, products led by -1 are kept in that
canonical negation shape, and negative integer exponents / source-level
divisions become explicit DIVIDE nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Union

from .errors import (MalformedList, MapleSyntaxError, MapleTooDeep,
                     UnsupportedConstruct)

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


@dataclass(eq=True)
class InertForm:
    tag: str
    payload: Union[int, float, str, None] = None
    children: List["InertForm"] = field(default_factory=list)

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


def name(s: str) -> InertForm:
    return InertForm(NAME, s)


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


def is_numeric_constant(t: InertForm) -> bool:
    return t.tag in (INTPOS, INTNEG, RATIONAL, FLOAT)


# --- tokenizer ---------------------------------------------------------------

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


# --- recursive descent parser ------------------------------------------------
# precedence: = < .. < +,- < *,/ < unary minus < ^ < atoms/calls

# Sub-expressions (parentheses, quotes, call arguments, signs and exponents)
# may nest this deep: the parser recurses up to eight frames per level.
MAX_NESTING = 64
# A parsed tree may be this tall.  Chained divisions grow a tree without
# nesting the parser, and every later stage (preprocess, rendering, backward
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
        if len(factors) == 1:
            return factors[0]
        return InertForm(PROD, children=factors)

    def _divide(self, numerator: InertForm, denominator: InertForm) -> InertForm:
        # mirror Maple's internal form for power divisors; DIVIDE otherwise
        if denominator.tag == POWER and is_int_literal(denominator.children[1]):
            flipped = InertForm(POWER, children=[
                denominator.children[0],
                intlit(-int_value(denominator.children[1]))])
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
    if t.tag == PROD and is_int_literal(t.children[0]):
        return InertForm(PROD, children=[_negate(t.children[0])] + t.children[1:])
    return InertForm(PROD, children=[InertForm(INTNEG, 1), t])


def parse_maple(text: str, use_divide: bool = True) -> InertForm:
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


# --- preprocessing ------------------------------------------------------------

def _reciprocal(t: InertForm) -> Optional[InertForm]:
    """The denominator ``x^(-n)`` stands for (``x``, or ``x^n``); else None."""
    if t.tag != POWER or t.children[1].tag != INTNEG:
        return None
    base, expo = t.children
    return base if expo.payload == 1 else \
        InertForm(POWER, children=[base, InertForm(INTPOS, expo.payload)])


def preprocess(tree: InertForm, use_divide: bool = True) -> InertForm:
    """Normalize a parsed tree for rendering (idempotent, value-preserving)."""
    children = [preprocess(c, use_divide) for c in tree.children]
    t = InertForm(tree.tag, tree.payload, children)

    if t.tag in (SUM, PROD):
        constants = [c for c in t.children if is_numeric_constant(c)]
        rest = [c for c in t.children if not is_numeric_constant(c)]
        t = InertForm(t.tag, children=constants + rest)

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
            return preprocess(InertForm(DIVIDE, children=[num, den]), use_divide)

    den = _reciprocal(t) if use_divide else None
    if den is not None:
        return preprocess(InertForm(DIVIDE, children=[InertForm(INTPOS, 1), den]),
                          use_divide)

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


# --- nested list bijection ----------------------------------------------------

def to_nested_list(tree: InertForm) -> list:
    if tree.tag in _PAYLOAD_TAGS:
        return [tree.tag, tree.payload]
    return [tree.tag] + [to_nested_list(c) for c in tree.children]


def from_nested_list(nl) -> InertForm:
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
    children = [from_nested_list(c) for c in nl[1:]]
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


# precedence levels for canonical parenthesization
_PREC = {EQUATION: 1, RANGE: 2, SUM: 3, PROD: 4, DIVIDE: 4, POWER: 6}


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
        args = ", ".join(_render(c, 0) for c in t.children[1].children)
        return f"{t.payload or t.children[0].payload}({args})"
    if tag == EXPSEQ:
        return ", ".join(_render(c, 0) for c in t.children)
    if tag == SUM:
        parts = []
        for k, c in enumerate(t.children):
            piece = _render(c, _PREC[SUM])
            if k == 0:
                parts.append(piece)
            elif piece.startswith("-"):
                parts.append(piece)
            else:
                parts.append("+" + piece)
        text = "".join(parts)
        return f"({text})" if parent_prec > _PREC[SUM] else text
    if tag == PROD:
        children = t.children
        sign = ""
        if children and children[0].tag == INTNEG:
            sign = "-"
            children = ([] if children[0].payload == 1
                        else [InertForm(INTPOS, children[0].payload)]) + children[1:]
        num_parts, den_parts = [], []
        for c in children:
            den = _reciprocal(c)
            if den is not None:
                den_parts.append(_render(den, _PREC[POWER]))
            else:
                num_parts.append(_render(c, _PREC[PROD]))
        text = sign + ("*".join(num_parts) or "1")
        for d in den_parts:
            text += "/" + d
        return f"({text})" if (parent_prec > _PREC[PROD]
                               or (sign and parent_prec >= _PREC[PROD])) else text
    if tag == DIVIDE:
        num, den = t.children
        text = f"{_render(num, _PREC[POWER])}/{_render(den, _PREC[POWER])}"
        return f"({text})" if parent_prec > _PREC[PROD] else text
    if tag == POWER:
        base, expo = t.children
        base_text = _render(base, _PREC[POWER] + 1)
        expo_text = _render(expo, _PREC[POWER] + 1)
        text = f"{base_text}^{expo_text}"
        return f"({text})" if parent_prec > _PREC[POWER] else text
    if tag == EQUATION:
        text = f"{_render(t.children[0], 2)} = {_render(t.children[1], 2)}"
        return f"({text})" if parent_prec > _PREC[EQUATION] else text
    if tag == RANGE:
        text = f"{_render(t.children[0], 3)}..{_render(t.children[1], 3)}"
        return f"({text})" if parent_prec > _PREC[RANGE] else text
    raise MalformedList(f"cannot render tag {tag}")
