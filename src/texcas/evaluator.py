"""Complex numeric evaluation of inert trees (principal branches throughout).

One recursive walk evaluates a tree at a column of points at once, each
point with the operations a walk of that point alone would do.  A point
whose walk would raise holds its first exception in a ``_Failed`` column,
the other points going on; a function is never called at a failed point.
``evaluate`` is that walk at one point, raising that point's exception, and
``free_names`` lists the names a caller must bind.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from operator import add, mul, truediv
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


# the recurrence takes one step per degree, so a larger one is not evaluated
_MAX_JACOBI_DEGREE = 1000


def _as_degree(value: complex) -> int:
    if abs(value.imag) > 1e-12 or abs(value.real - round(value.real)) > 1e-12 \
            or value.real < 0:
        raise NoEvaluator("JacobiP with non-integer degree")
    degree = int(round(value.real))
    if degree > _MAX_JACOBI_DEGREE:
        raise NoEvaluator(f"JacobiP of degree above {_MAX_JACOBI_DEGREE}")
    return degree


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
    value = _columns(tree, {name: (complex(v),) for name, v in env.items()}, 1)[0]
    if isinstance(value, Exception):
        raise value
    return value


class _Failed(list):
    """A column in which some point holds its walk's exception, not a value."""
    __slots__ = ()


def _power(base: complex, expo: complex) -> complex:
    """The POWER comprehension of ``_columns`` at one point."""
    return 0j if base == 0 and expo.real > 0 and abs(expo.imag) < 1e-300 \
        else base ** expo


def _pointwise(fn, cols, n: int) -> _Failed:
    """fn over the columns point by point: each point takes its first failed
    operand, else fn's value there, else the exception fn raises there."""
    out = _Failed()
    for i in range(n):
        values = [c[i] for c in cols]
        failed = [v for v in values if isinstance(v, Exception)]
        try:
            out.append(failed[0] if failed else fn(*values))
        except Exception as exc:  # kept without its frames, which hold out
            out.append(exc.with_traceback(None))
    return out


def _columns(tree: InertForm, columns, n: int) -> list:
    """The tree's values at n points, ``columns`` mapping each name to its n
    values (a binding shadows a constant of the same name).  Each point gets
    the operations of a walk of that point alone, in the same order; a point
    whose walk would raise holds that exception, in a ``_Failed`` column."""
    tag = tree.tag
    if tag == NAME and tree.payload in columns:
        return columns[tree.payload]
    if tag == FUNCTION:
        fname = tree.children[0].payload
        args = [_columns(c, columns, n) for c in tree.children[1].children]
        fn = _FUNCTIONS.get((fname, len(args)))
        if fn is None:  # the arguments' failures first, then this one
            args.append(_Failed([NoEvaluator(fname)] * n))
        elif _Failed not in map(type, args):
            try:
                return list(map(fn, *args))
            except Exception:  # the points one by one keep what each raises
                pass
        return _pointwise(fn, args, n)
    if tag == PROD or tag == SUM:
        op, out = (mul, [1 + 0j] * n) if tag == PROD else (add, [0j] * n)
        for c in tree.children:
            col = _columns(c, columns, n)
            if out.__class__ is _Failed or col.__class__ is _Failed:
                out = _pointwise(op, (out, col), n)
            else:
                out = list(map(op, out, col))
        return out
    if tag == POWER or tag == DIVIDE:
        a, b = [_columns(c, columns, n) for c in tree.children]
        if a.__class__ is not _Failed and b.__class__ is not _Failed:
            try:
                if tag == DIVIDE:
                    return list(map(truediv, a, b))
                return [0j if x == 0 and y.real > 0 and abs(y.imag) < 1e-300
                        else x ** y for x, y in zip(a, b)]
            except Exception:  # the points one by one keep what each raises
                pass
        return _pointwise(truediv if tag == DIVIDE else _power, (a, b), n)
    try:
        if tag == NAME:
            value = CONSTANTS.get(tree.payload)
            if value is None:
                raise UnknownSymbol(tree.payload)
        elif tag == INTPOS or tag == INTNEG:
            value = complex(int_value(tree))
        elif tag == FLOAT:
            value = complex(tree.payload)
        elif tag == RATIONAL:
            p, q = tree.children
            value = complex(Fraction(int_value(p), q.payload))
        else:
            raise NoEvaluator(tag)
    except Exception as exc:  # a constant fails at every point alike
        return _Failed([exc.with_traceback(None)] * n)
    return [value] * n


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
