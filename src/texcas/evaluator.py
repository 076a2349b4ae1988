"""Complex numeric evaluation of inert trees (principal branches throughout)."""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Dict

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


def evaluate(tree: InertForm, env: Dict[str, complex]) -> complex:
    """Evaluate an inert tree at a point assignment.

    Raises UnknownSymbol for free names outside env and the constant table,
    NoEvaluator for functions outside the supported library.  Arithmetic
    exceptions (division by zero, overflow) propagate to the caller.
    """
    tag = tree.tag
    if tag == inert.NAME:
        if tree.payload in env:
            return complex(env[tree.payload])
        if tree.payload in CONSTANTS:
            return CONSTANTS[tree.payload]
        if tree.payload == "infinity":
            return complex("inf")
        raise UnknownSymbol(tree.payload)
    if tag == inert.INTPOS:
        return complex(tree.payload)
    if tag == inert.INTNEG:
        return complex(-tree.payload)
    if tag == inert.FLOAT:
        return complex(tree.payload)
    if tag == inert.RATIONAL:
        p, q = tree.children
        return complex(Fraction(inert.int_value(p), q.payload))
    if tag == inert.SUM:
        return sum((evaluate(c, env) for c in tree.children), 0j)
    if tag == inert.PROD:
        out = 1 + 0j
        for c in tree.children:
            out *= evaluate(c, env)
        return out
    if tag == inert.DIVIDE:
        return evaluate(tree.children[0], env) / evaluate(tree.children[1], env)
    if tag == inert.POWER:
        base = evaluate(tree.children[0], env)
        expo = evaluate(tree.children[1], env)
        if base == 0 and expo.real > 0 and abs(expo.imag) < 1e-300:
            return 0j
        return base ** expo
    if tag == inert.FUNCTION:
        fname = tree.children[0].payload
        args = [evaluate(c, env) for c in tree.children[1].children]
        return _call(fname, args)
    raise NoEvaluator(tag)


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
