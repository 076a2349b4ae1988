"""Complex numeric evaluation of inert trees (principal branches throughout).

``compile_tree`` turns a tree into closures over columns of point values, in
a walk that also collects the names a caller must bind, as ``free_names`` does.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from operator import mul, truediv
from typing import Callable, Dict, Optional, Tuple

from . import inert
from .errors import NoEvaluator, UnknownSymbol
from .inert import InertForm

EULER_GAMMA = 0.5772156649015329
CATALAN = 0.915965594177219

CONSTANTS: Dict[str, complex] = {
    "Pi": complex(cmath.pi),
    "I": 1j,
    "gamma": complex(EULER_GAMMA),
    "Catalan": complex(CATALAN),
}


def jacobi_p(n: int, a: complex, b: complex, x: complex) -> complex:
    """Jacobi polynomial by the three-term recurrence in the degree."""
    if n == 0:
        return 1 + 0j
    p_prev = 1 + 0j
    p_cur = (a - b) / 2 + (a + b + 2) / 2 * x
    for k in range(2, n + 1):
        c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * ((2 * k + a + b) * (2 * k + a + b - 2) * x
                                    + a * a - b * b)
        c3 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        p_prev, p_cur = p_cur, (c2 * p_cur - c3 * p_prev) / c1
    return p_cur


def _as_degree(value: complex) -> int:
    if abs(value.imag) > 1e-12 or abs(value.real - round(value.real)) > 1e-12 \
            or value.real < 0:
        raise NoEvaluator("JacobiP with non-integer degree")
    return int(round(value.real))


# (Maple function name, arity) -> evaluator
_FUNCTIONS = {
    ("sin", 1): cmath.sin, ("cos", 1): cmath.cos, ("tan", 1): cmath.tan,
    ("exp", 1): cmath.exp, ("ln", 1): cmath.log, ("arcsin", 1): cmath.asin,
    ("sqrt", 1): cmath.sqrt,
    ("root", 2): lambda base, order:
        0j if base == 0 else cmath.exp(cmath.log(base) / order),
    ("JacobiP", 4): lambda n, a, b, x: jacobi_p(_as_degree(n), a, b, x),
}


def compile_tree(tree: InertForm) -> Callable:
    """Walk the tree once and return a closure doing only arithmetic.

    ``f(columns, n)`` evaluates n points at once (``columns`` maps each name
    to n complex values) and returns a list of n values; ``f(env)`` is the
    value at one point assignment.  Each point gets a recursive walk's
    operations in the same order, so the values are bit-identical to
    evaluating the points one by one.  Unknown names and functions raise
    UnknownSymbol / NoEvaluator when the closure runs (a function's arguments
    first), never at compile time; arithmetic errors propagate to the caller.
    """
    return _compile_with_names(tree)[0]


def _compile_with_names(tree: InertForm) -> Tuple[Callable, set]:
    """``compile_tree``'s closure and ``free_names(tree)``, from one walk."""
    names = set()
    column = _compile(tree, names)

    def value_at(env, n=None):
        if n:
            return column(env, n)
        return column({name: (complex(v),) for name, v in env.items()}, 1)[0]
    return value_at, names


# Each closure takes ``(columns, n)`` and returns n values; only compile_tree's
# root reads a bare env.  No closure refers to itself, so a compiled tree is
# freed without the cycle collector.  The free names go into ``names``.
def _compile(tree: InertForm, names: set) -> Callable:
    tag = tree.tag
    if tag == inert.NAME:
        return _compile_name(tree.payload, names)
    if tag in (inert.INTPOS, inert.INTNEG):
        return _literal(lambda: complex(inert.int_value(tree)))
    if tag == inert.FLOAT:
        return _literal(lambda: complex(tree.payload))
    if tag == inert.RATIONAL:
        p, q = tree.children
        return _literal(lambda: complex(Fraction(inert.int_value(p), q.payload)))
    if tag == inert.SUM:
        terms = [_compile(c, names) for c in tree.children]
        if not terms:
            return _literal(lambda: 0j)
        return lambda columns, n: [sum(values, 0j) for values in
                                   zip(*[f(columns, n) for f in terms])]
    if tag == inert.PROD:
        factors = [_compile(c, names) for c in tree.children]

        def product(columns, n):
            out = [1 + 0j] * n
            for f in factors:
                out = list(map(mul, out, f(columns, n)))
            return out
        return product
    if tag == inert.DIVIDE:
        num, den = (_compile(c, names) for c in tree.children)
        return lambda columns, n: list(map(truediv, num(columns, n),
                                           den(columns, n)))
    if tag == inert.POWER:
        base_of, expo_of = (_compile(c, names) for c in tree.children)
        return lambda columns, n: [
            0j if base == 0 and expo.real > 0 and abs(expo.imag) < 1e-300
            else base ** expo
            for base, expo in zip(base_of(columns, n), expo_of(columns, n))]
    if tag == inert.FUNCTION:
        fname = tree.children[0].payload
        args = [_compile(c, names) for c in tree.children[1].children]
        fn = _FUNCTIONS.get((fname, len(args)))

        def call(columns, n):
            values = [f(columns, n) for f in args]
            if fn is None:
                raise NoEvaluator(fname)
            return list(map(fn, *values))
        return call

    names.update(free_names(tree))  # names under a node that never runs

    def unsupported(columns, n):
        raise NoEvaluator(tag)
    return unsupported


def _constant(name: str) -> Optional[complex]:
    """The value of a name that is a known constant, None for a free name."""
    return complex("inf") if name == "infinity" else CONSTANTS.get(name)


def _compile_name(name: str, names: set) -> Callable:
    fallback = _constant(name)
    if fallback is None:
        names.add(name)

    def lookup(columns, n):
        if name in columns:  # an env binding shadows a constant of the same name
            return columns[name]
        if fallback is None:
            raise UnknownSymbol(name)
        return [fallback] * n
    return lookup


def _literal(value_of: Callable[[], complex]) -> Callable:
    """A constant closure.  A literal with no double value (an integer too
    large) raises on every call instead, so a caller skips each point;
    compiling never raises."""
    try:
        value = value_of()
    except ArithmeticError:
        return lambda columns, n: value_of()
    return lambda columns, n: [value] * n


def evaluate(tree: InertForm, env: Dict[str, complex]) -> complex:
    """The tree's value at env, raising as ``compile_tree``'s closures do."""
    return compile_tree(tree)(env)


def free_names(tree: InertForm) -> set:
    """Names in the tree that are not known constants (a call's own name is
    not one)."""
    names, stack = set(), [tree]
    while stack:
        t = stack.pop()
        tag = t.tag
        if tag == inert.NAME:
            names.add(t.payload)
        else:
            stack.extend([t.children[1]] if tag == inert.FUNCTION else t.children)
    return {name for name in names if _constant(name) is None}
