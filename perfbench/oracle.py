"""Independent answer checks: a Maple-text evaluator, a Mathematica structural
check, and the known-defect classifier.

Nothing here calls texcas.  Maple text is read by a parser of its own and
evaluated with mpmath under Maple's documented meaning of each name, so a
translation is judged by the value it denotes, not by texcas's own parser,
evaluator or verifier.
"""

from __future__ import annotations

import re

import cmath

from mpmath import fp

from gen import besselk, ellipf, jacobi, maple_name, root

MAPLE_CONSTANTS = {
    "Pi": fp.pi,
    "I": 1j,
    "gamma": fp.euler,
    "Catalan": fp.catalan,
}

MAPLE_FUNCTIONS = {
    "sin": (1, fp.sin),
    "cos": (1, fp.cos),
    "tan": (1, fp.tan),
    "arcsin": (1, fp.asin),
    "exp": (1, fp.exp),
    "ln": (1, fp.log),
    "sqrt": (1, cmath.sqrt),
    "root": (2, root),
    "JacobiP": (4, jacobi),
    "BesselK": (2, besselk),
    # Maple's EllipticF(z, k) is F(arcsin z, k) with modulus k
    "EllipticF": (2, lambda z, k: ellipf(fp.asin(z), k * k)),
}

REL_TOL = 1e-9


class MapleError(Exception):
    """The text is not Maple this evaluator accepts, or names an unknown symbol."""


_TOKEN = re.compile(r"""\s*(?:
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),=]))""", re.VERBOSE)


def _tokens(text):
    pos, out = 0, []
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise MapleError(f"bad character at {pos} in {text!r}")
        out.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    out.append(("end", ""))
    return out


def tokens(text):
    """The tokens of Maple text, as strings."""
    return [tok for _, tok in _tokens(text)[:-1]]


class _Eval:
    """Recursive descent over Maple 1D: + - (left), * / (left), unary minus,
    ^ (binds tighter than unary minus; exponent may carry a sign)."""

    def __init__(self, text, env, constants):
        self.toks = _tokens(text)
        self.i = 0
        self.env = env
        self.constants = constants

    def peek(self):
        return self.toks[self.i][1]

    def take(self, expected=None):
        kind, tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise MapleError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return kind, tok

    def whole(self):
        value = self.sum()
        if self.toks[self.i][0] != "end":
            raise MapleError(f"trailing {self.peek()!r}")
        return value

    def sum(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[1]
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs == 0:
                    raise MapleError("division by zero")
                value = value / rhs
        return value

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            expo = self.unary() if self.peek() in ("-", "+") else self.power()
            if base == 0 and complex(expo).real <= 0:
                raise MapleError("0 to a nonpositive power")
            return fp.power(base, expo)
        return base

    def atom(self):
        kind, tok = self.take()
        if tok == "(":
            value = self.sum()
            self.take(")")
            return value
        if kind == "num":
            return float(tok)
        if kind != "name":
            raise MapleError(f"unexpected {tok!r}")
        if self.peek() == "(":
            self.take()
            args = [self.sum()]
            while self.peek() == ",":
                self.take()
                args.append(self.sum())
            self.take(")")
            if tok not in MAPLE_FUNCTIONS or MAPLE_FUNCTIONS[tok][0] != len(args):
                raise MapleError(f"unknown function {tok}/{len(args)}")
            return MAPLE_FUNCTIONS[tok][1](*args)
        if tok in self.constants:
            return self.constants[tok]
        if tok in self.env:
            return self.env[tok]
        raise MapleError(f"unknown name {tok}")


def maple_value(text: str, env: dict, shadow_constants=False):
    """Value of Maple 1D text; env maps Maple names to values.  With
    ``shadow_constants``, a name in env is that variable even where Maple
    would read a constant (gamma, Pi, I)."""
    constants = MAPLE_CONSTANTS
    if shadow_constants:
        constants = {k: v for k, v in constants.items() if k not in env}
    try:
        return _Eval(text, env, constants).whole()
    except (ZeroDivisionError, ValueError, OverflowError,
            fp.NoConvergence) as exc:
        raise MapleError(str(exc))


def close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(1, abs(b))


def mathematica_ok(text: str) -> bool:
    """Structural check: nonempty, balanced brackets, no unreplaced $i, and
    every backslash starts a named character such as \\[Alpha]."""
    if not text.strip() or re.search(r"\$\d", text):
        return False
    if re.search(r"\\(?!\[[A-Za-z]+\])", text):
        return False
    stack = []
    pairs = {")": "(", "]": "[", "}": "{"}
    for k, ch in enumerate(text):
        if ch == "[" and text[k - 1:k] == "\\":
            continue  # \[Name] is a character, not a bracket
        if ch == "]" and re.search(r"\\\[[A-Za-z]+$", text[:k]):
            continue
        if ch in "([{":
            stack.append(ch)
        elif ch in pairs:
            if not stack or stack.pop() != pairs[ch]:
                return False
    return not stack


# --- known defects ----------------------------------------------------------------
# A wrong answer is attributed to one of these only on that defect's own
# evidence (see workloads.py); any other is "unexplained", which makes the run
# incorrect.  Known defects still count as failures.

KNOWN_DEFECTS = {
    "float-exponent": "backward renders small floats as 1e-05, which the "
                      "LaTeX scanner then reads as 1*e-05",
    "maple-constant-name": "a variable whose Maple spelling is a Maple constant "
                           "(gamma, Pi, I) silently changes value",
    "ellipticf-divergence": "the EllipticF reverse rule adds an arcsin/sin pair "
                            "every cycle, so the round trip never reaches a fixed point",
    "no-fixed-point": "the round trip keeps the value but rewrites the text "
                      "every cycle (reordered factors, or more factors 1), "
                      "so it reaches no fixed point in 12 steps",
    "int-digits-limit": "simplify_light folds integer powers exactly; past "
                        "4300 digits the canonical key's int-to-str conversion "
                        "raises ValueError out of run_corpus",
    "jacobi-recurrence-pole": "the evaluator's three-term recurrence for "
                              "JacobiP divides by zero when alpha+beta is -k or "
                              "2-2k, though the polynomial is finite there",
    "absolute-tolerance": "verify's absolute 1e-10 tolerance: rounding on large "
                          "values flips the verdict",
    "double-overflow": "every sample point overflows double precision, so "
                       "verify has no finite point and answers inconclusive",
}


def constant_collision(names) -> bool:
    return any(maple_name(n) in MAPLE_CONSTANTS for n in names)
