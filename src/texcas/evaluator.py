"""Complex numeric evaluation of inert trees (principal branches throughout)."""

from __future__ import annotations

import cmath
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Dict, Iterator, Optional, Set

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


def _call(fname: str, args) -> complex:
    fn = _FUNCTIONS.get((fname, len(args)))
    if fn is None:
        raise NoEvaluator(fname)
    return fn(*args)


def compile_tree(tree: InertForm) -> Callable:
    """Walk the tree once and return a closure doing only arithmetic.

    ``f(env)`` is the tree's value at one point assignment.  ``f(columns, n)``
    evaluates n points at once: ``columns`` maps each name to a sequence of n
    complex values, and the result is a list of n values.  Each point gets
    the operations of a recursive walk in the same order, so the values are
    bit-identical to evaluating the points one by one; ``f(env)`` is the
    n = 1 case.  Unknown names and functions raise UnknownSymbol /
    NoEvaluator when the closure runs (a function's arguments first), never
    at compile time; arithmetic exceptions (division by zero, overflow)
    propagate to the caller.
    """
    tag = tree.tag
    if tag == inert.NAME:
        return _compile_name(tree.payload)
    if tag == inert.INTPOS:
        return _literal(lambda: complex(tree.payload))
    if tag == inert.INTNEG:
        return _literal(lambda: complex(-tree.payload))
    if tag == inert.FLOAT:
        return _literal(lambda: complex(tree.payload))
    if tag == inert.RATIONAL:
        p, q = tree.children
        return _literal(lambda: complex(Fraction(inert.int_value(p), q.payload)))
    if tag == inert.SUM:
        terms = [compile_tree(c) for c in tree.children]
        if not terms:
            return _literal(lambda: 0j)

        def add(env, n=None):
            columns, m = (env, n) if n else (_OnePoint(env), 1)
            out = [sum(values, 0j)
                   for values in zip(*[f(columns, m) for f in terms])]
            return out if n else out[0]
        return add
    if tag == inert.PROD:
        factors = [compile_tree(c) for c in tree.children]

        def product(env, n=None):
            columns, m = (env, n) if n else (_OnePoint(env), 1)
            out = [1 + 0j] * m
            for f in factors:
                out = [a * b for a, b in zip(out, f(columns, m))]
            return out if n else out[0]
        return product
    if tag == inert.DIVIDE:
        num, den = (compile_tree(c) for c in tree.children)

        def quotient(env, n=None):
            columns, m = (env, n) if n else (_OnePoint(env), 1)
            out = [a / b for a, b in zip(num(columns, m), den(columns, m))]
            return out if n else out[0]
        return quotient
    if tag == inert.POWER:
        base_of, expo_of = (compile_tree(c) for c in tree.children)

        def power(env, n=None):
            columns, m = (env, n) if n else (_OnePoint(env), 1)
            out = [0j if base == 0 and expo.real > 0 and abs(expo.imag) < 1e-300
                   else base ** expo
                   for base, expo in zip(base_of(columns, m), expo_of(columns, m))]
            return out if n else out[0]
        return power
    if tag == inert.FUNCTION:
        fname = tree.children[0].payload
        args = [compile_tree(c) for c in tree.children[1].children]
        fn = _FUNCTIONS.get((fname, len(args)))

        def call(env, n=None):
            columns, m = (env, n) if n else (_OnePoint(env), 1)
            values = zip(*[f(columns, m) for f in args])
            if fn is None:
                raise NoEvaluator(fname)
            out = [fn(*v) for v in values]
            return out if n else out[0]
        return call

    if _noted is not None:  # its children are never compiled
        _noted.update(free_names(tree))

    def unsupported(env, n=None):
        raise NoEvaluator(tag)
    return unsupported


# A closure called with one env (``n`` None) reads it as columns of one value
# each, so the arithmetic is the column arithmetic; no closure refers to
# itself, so a compiled tree is freed without the cycle collector.
class _OnePoint(dict):
    """One point assignment read as columns of one value each."""
    __slots__ = ()

    def __getitem__(self, name):
        return (complex(dict.__getitem__(self, name)),)


# free names met by the compile walks inside ``noting_free_names``
_noted: Optional[Set[str]] = None


@contextmanager
def noting_free_names() -> Iterator[Set[str]]:
    """Yield a set that collects the free names (see ``free_names``) of
    every tree compiled inside the block."""
    global _noted
    outer, _noted = _noted, set()
    try:
        yield _noted
    finally:
        _noted = outer


def _compile_name(name: str) -> Callable:
    # an env binding shadows a constant of the same name
    fallback = CONSTANTS.get(name)
    if fallback is None and name == "infinity":
        fallback = complex("inf")
    if fallback is None and _noted is not None:
        _noted.add(name)

    def lookup(env, n=None):
        if name in env:
            return env[name] if n else complex(env[name])
        if fallback is None:
            raise UnknownSymbol(name)
        return [fallback] * n if n else fallback
    return lookup


def _literal(value_of: Callable[[], complex]) -> Callable:
    """A constant closure.  A literal with no double value (an integer too
    large) raises on every call instead, so a caller skips each point;
    compiling never raises."""
    try:
        value = value_of()
    except ArithmeticError:
        return lambda env, n=None: value_of()

    def literal(env, n=None):
        return value if n is None else [value] * n
    return literal


def evaluate(tree: InertForm, env: Dict[str, complex]) -> complex:
    """Evaluate an inert tree at a point assignment.

    Raises UnknownSymbol for free names outside env and the constant table,
    NoEvaluator for functions outside the supported library.  Arithmetic
    exceptions (division by zero, overflow) propagate to the caller.
    """
    return compile_tree(tree)(env)


def free_names(tree: InertForm) -> set:
    """Names in the tree that are not known constants."""
    out = set()
    if tree.tag == inert.NAME:
        if tree.payload not in CONSTANTS and tree.payload != "infinity":
            out.add(tree.payload)
        return out
    if tree.tag == inert.FUNCTION:
        out |= free_names(tree.children[1])
        return out
    for c in tree.children:
        out |= free_names(c)
    return out
