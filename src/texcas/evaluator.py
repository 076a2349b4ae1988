"""Complex numeric evaluation of inert trees (principal branches throughout).

One recursive walk evaluates a tree at a column of points at once, each
point with the operations a walk of that point alone would do; ``evaluate``
is that walk at one point, and ``free_names`` lists the names a caller must
bind.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from operator import mul, truediv
from typing import Dict

from .errors import NoEvaluator, UnknownSymbol
from .inert import (DIVIDE, FLOAT, FUNCTION, INTNEG, INTPOS, NAME, POWER, PROD,
                    RATIONAL, SUM, InertForm, int_value)

EULER_GAMMA = 0.5772156649015329
CATALAN = 0.915965594177219

CONSTANTS: Dict[str, complex] = {
    "Pi": complex(cmath.pi),
    "I": 1j,
    "gamma": complex(EULER_GAMMA),
    "Catalan": complex(CATALAN),
    "infinity": complex("inf"),
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


def evaluate(tree: InertForm, env: Dict[str, complex]) -> complex:
    """The tree's value at env (a binding shadows a constant of the same
    name), bit-identical to that point's value in a column of points.  An
    unknown name raises UnknownSymbol, and an unknown function or node
    NoEvaluator, a function's arguments being evaluated before its lookup;
    arithmetic errors propagate to the caller."""
    return _columns(tree, {name: (complex(v),) for name, v in env.items()}, 1)[0]


def _columns(tree: InertForm, columns, n: int) -> list:
    """The tree's values at n points, ``columns`` mapping each name to its n
    values (a binding shadows a constant of the same name).  Each point gets
    the operations of a walk of that point alone, in the same order."""
    tag = tree.tag
    if tag == NAME:
        name = tree.payload
        if name in columns:
            return columns[name]
        value = CONSTANTS.get(name)
        if value is None:
            raise UnknownSymbol(name)
        return [value] * n
    if tag == FUNCTION:
        fname = tree.children[0].payload
        args = [_columns(c, columns, n) for c in tree.children[1].children]
        fn = _FUNCTIONS.get((fname, len(args)))
        if fn is None:
            raise NoEvaluator(fname)
        return list(map(fn, *args))
    if tag == INTPOS or tag == INTNEG:
        return [complex(int_value(tree))] * n
    if tag == PROD:
        out = [1 + 0j] * n
        for c in tree.children:
            out = list(map(mul, out, _columns(c, columns, n)))
        return out
    if tag == SUM:
        if not tree.children:
            return [0j] * n
        return [sum(values, 0j) for values in
                zip(*[_columns(c, columns, n) for c in tree.children])]
    if tag == POWER:
        base, expo = tree.children
        return [0j if b == 0 and e.real > 0 and abs(e.imag) < 1e-300 else b ** e
                for b, e in zip(_columns(base, columns, n),
                                _columns(expo, columns, n))]
    if tag == FLOAT:
        return [complex(tree.payload)] * n
    if tag == RATIONAL:
        p, q = tree.children
        return [complex(Fraction(int_value(p), q.payload))] * n
    if tag == DIVIDE:
        num, den = tree.children
        return list(map(truediv, _columns(num, columns, n),
                        _columns(den, columns, n)))
    raise NoEvaluator(tag)


def free_names(tree: InertForm) -> set:
    """Names in the tree that are not known constants (a call's own name is
    not one)."""
    names, stack = set(), [tree]
    while stack:
        t = stack.pop()
        tag = t.tag
        if tag == NAME:
            names.add(t.payload)
        else:
            stack.extend([t.children[1]] if tag == FUNCTION else t.children)
    return names.difference(CONSTANTS)
