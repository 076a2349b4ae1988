"""Round-trip fixed-point testing and equivalence checking.

Equivalence of a relation is decided by simplifying the formula difference
with a light confluent rewrite set, falling back to seeded complex sampling
at fixed machine precision (tolerance 1e-10 by default, annulus
0.1 <= |z| <= 2, conjugate pairs included).  The sample points are drawn
once per variable count, point count and seed, and all of them are
evaluated in one walk of the difference over their value columns; on the
first exception each point is evaluated alone with ``evaluate``, so each
point is skipped or ends the check exactly as it would alone.  A verdict
keeps each finite point's row of values and |difference|, and builds the
point's env dict only when ``samples`` is first read.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import inert
from .backward import backward_string
from .errors import CheckOptionError, NoEvaluator, TexcasError, UnknownSymbol
from .evaluator import _columns, evaluate, free_names
from .forward import translate_string
from .inert import (DIVIDE, FLOAT, INTNEG, INTPOS, POWER, PROD,
                    RATIONAL, SUM, InertForm)
from .lexicon import MAPLE, MAPLE_SIDE, SEMANTIC_LATEX, Lexicon, Record

DEFAULT_TOLERANCE = 1e-10
DEFAULT_POINTS = 20
DEFAULT_SEED = 0
ANNULUS = (0.1, 2.0)


# --- light symbolic simplifier ------------------------------------------------

# a folded power may have at most this many bits (about 315k digits)
_MAX_FOLD_BITS = 2 ** 20


# The simplifier works on structural keys alone, hashable and totally
# ordered: ``(tag, payload)`` for a leaf, ``(tag, payload, *child_keys)`` for
# an inner node.  A float leaf's key holds ``(value, sign of value)``, so
# terms in -0.0 and 0.0 are never collected.  ``simplify_light`` builds the
# tree once, from the final key; ``check_equivalence`` tests the key itself.
# an exact rational: int for an integer literal, Fraction otherwise
Number = Union[int, Fraction]


def _number(f: Number) -> tuple:
    if f.denominator == 1:
        n = f.numerator
        return (INTPOS, n) if n >= 0 else (INTNEG, -n)
    return RATIONAL, None, _number(f.numerator), (INTPOS, f.denominator)


def _as_number(key: tuple) -> Optional[Number]:
    tag = key[0]
    if tag == INTPOS:
        return key[1]
    if tag == INTNEG:
        return -key[1]
    if tag == RATIONAL:
        return Fraction(_as_number(key[2]), key[3][1])
    return None


def simplify_light(tree: InertForm) -> InertForm:
    """Confluent rewrite set: flatten, fold exact rational arithmetic, drop
    additive 0 / multiplicative 1, x^1 -> x, x^0 -> 1, sort commutative
    operands, combine DIVIDE of rationals.  Deliberately far weaker than a
    CAS simplify."""
    return _tree(_simplify(tree))


def _tree(key: tuple) -> InertForm:
    """The tree a key stands for."""
    if len(key) == 2:
        tag, payload = key
        return InertForm(tag, payload[0] if tag == FLOAT else payload, [])
    return InertForm(key[0], key[1], [_tree(k) for k in key[2:]])


def _simplify(tree: InertForm) -> tuple:
    tag = tree.tag
    # a SUM or PROD without operands still folds (to 0 or 1)
    if not tree.children and tag not in (DIVIDE, POWER, PROD, SUM):
        if tag == FLOAT:
            return FLOAT, (tree.payload, math.copysign(1.0, tree.payload))
        return tag, tree.payload
    keys = [_simplify(c) for c in tree.children]

    if tag == DIVIDE:
        num, den = keys
        fn, fd = _as_number(num), _as_number(den)
        if fn is not None and fd is not None and fd != 0:
            return _number(Fraction(fn, fd))
        if fd == 1:
            return num

    elif tag == POWER:
        base, expo = keys
        fe = _as_number(expo)
        if fe == 1:
            return base
        fb = _as_number(base)
        if fe == 0 and fb != 0:
            return _number(1)
        if fb is not None and fe is not None and fe.denominator == 1 \
                and (fb != 0 or fe > 0) and _fold_bits(fb, fe) <= _MAX_FOLD_BITS:
            k = fe.numerator
            return _number(fb ** k if k >= 0 else Fraction(fb) ** k)

    elif tag == PROD:
        coeff, rest = 1, []
        for key in _flatten(PROD, keys):
            f = _as_number(key)
            if f is None:
                rest.append(key)
            else:
                coeff *= f
        if coeff == 0:
            return _number(0)
        rest.sort()
        if coeff != 1 or not rest:
            rest.insert(0, _number(coeff))
        return rest[0] if len(rest) == 1 else (PROD, None, *rest)

    elif tag == SUM:
        constant, collected = 0, {}
        for key in _flatten(SUM, keys):
            f = _as_number(key)
            if f is None:
                coeff, core = _split_term(key)
                collected[core] = collected.get(core, 0) + coeff
            else:
                constant += f
        out = [_number(constant)] if constant != 0 else []
        for core in sorted(collected):
            coeff = collected[core]
            if coeff == 1:
                out.append(core)
            elif coeff != 0:
                out.append((PROD, None, _number(coeff), core))
        if not out:
            return _number(0)
        return out[0] if len(out) == 1 else (SUM, None, *out)

    return (tag, tree.payload, *keys)


def _flatten(tag: str, keys: List[tuple]) -> List[tuple]:
    """The operands, with each child of the same tag spliced in: a node's
    key holds its children's keys from index 2 on."""
    out = []
    for key in keys:
        if key[0] == tag:
            out.extend(key[2:])
        else:
            out.append(key)
    return out


def _fold_bits(base: Number, expo: Number) -> int:
    """An upper bound on the bits of ``base ** expo`` (integer expo)."""
    size = max(base.numerator.bit_length(), base.denominator.bit_length())
    return abs(expo.numerator) * size


def _split_term(key: tuple) -> Tuple[Number, tuple]:
    """A term's key as (rational coefficient, key of the core)."""
    if key[0] == PROD:
        f = _as_number(key[2])
        if f is not None:
            return f, key[3] if len(key) == 4 else (PROD, None, *key[3:])
    return 1, key


# --- equivalence checking -------------------------------------------------------

class EquivalenceVerdict(Record):
    __slots__ = ("outcome", "samples", "reason")

    def __init__(self, outcome: str,
                 samples: Optional[List[Tuple[Dict[str, complex], float]]] = None,
                 reason: Optional[str] = None):
        # symbolic-zero | numeric-converged | numeric-mismatch | inconclusive
        self.outcome = outcome
        self.samples = [] if samples is None else samples
        self.reason = reason

    @property
    def max_abs_difference(self) -> Optional[float]:
        return max((d for _, d in _stored_samples(self)), default=None)


class _Draws(list):
    """A sampled verdict's finite points, each as (its values in ``vars``
    order, |difference|), kept until ``samples`` is first read and builds
    each point's env dict."""
    __slots__ = ("vars",)


_stored_samples = EquivalenceVerdict.samples.__get__


def _samples(verdict: EquivalenceVerdict) -> list:
    samples = _stored_samples(verdict)
    if samples.__class__ is _Draws:
        vars = samples.vars
        samples = [(dict(zip(vars, row)), d) for row, d in samples]
        verdict.samples = samples
    return samples


# the slot holds a list of (env, |difference|) pairs, or _Draws until the
# first read replaces it by one
EquivalenceVerdict.samples = property(_samples, EquivalenceVerdict.samples.__set__)


def _difference(lhs: InertForm, rhs: InertForm) -> InertForm:
    return InertForm(SUM, children=[lhs, inert._negate(rhs)])


def _annulus_point(rng: random.Random) -> complex:
    r = rng.uniform(*ANNULUS)
    theta = rng.uniform(0.0, 2.0 * cmath.pi)
    return r * cmath.exp(1j * theta)


# distinct (variable count, points, seed) keys whose points are kept
_POINT_SETS = 16


@lru_cache(maxsize=_POINT_SETS)
def _sample_points(nvars: int, points: int, seed: int) -> tuple:
    """The seeded sample points for ``nvars`` variables, as rows (one tuple
    of values per point, in variable order) and as columns (one tuple per
    variable).  Each point is followed by its conjugate; with no variables
    there is one empty point."""
    rng = random.Random(seed)
    rows = []
    if not nvars:
        rows.append(())
    else:
        for _ in range(max(1, points // 2)):
            point = tuple(_annulus_point(rng) for _ in range(nvars))
            rows.append(point)
            rows.append(tuple(z.conjugate() for z in point))
    return tuple(rows), tuple(zip(*rows))


def check_options(tolerance: float, points: int) -> None:
    """Refuse a tolerance that is not finite and > 0 (a nan or inf one passes
    every difference) and fewer than one sample point."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise CheckOptionError(f"tolerance must be finite and > 0, not {tolerance}")
    if points < 1:
        raise CheckOptionError(f"points must be at least 1, not {points}")


def check_equivalence(lhs: InertForm, rhs: InertForm, vars: Sequence[str],
                      tolerance: float = DEFAULT_TOLERANCE,
                      points: int = DEFAULT_POINTS,
                      seed: int = DEFAULT_SEED) -> EquivalenceVerdict:
    """Decide whether lhs == rhs: first by simplifying the formula difference
    to literal zero, else by seeded complex sampling of the difference.

    All points are evaluated in one walk of the difference; if that walk
    raises, each point is evaluated alone with ``evaluate``, so a point that
    raises is skipped (or, for NoEvaluator, ends the check) exactly as it
    would be alone."""
    check_options(tolerance, points)
    diff = _difference(lhs, rhs)
    if _simplify(diff) == (INTPOS, 0):
        return EquivalenceVerdict("symbolic-zero")

    undeclared = free_names(diff).difference(vars)
    if undeclared:
        raise UnknownSymbol(min(undeclared))

    rows, columns = _sample_points(len(vars), points, seed)
    try:
        values = _columns(diff, dict(zip(vars, columns)), len(rows))
    except Exception:  # the points one by one tell which point raised what
        values = []
        for row in rows:
            try:
                values.append(evaluate(diff, dict(zip(vars, row))))
            except NoEvaluator as exc:
                return EquivalenceVerdict("inconclusive", reason=str(exc))
            except (ZeroDivisionError, OverflowError, ValueError):
                values.append(math.nan)  # skipped, as a value not finite
    draws = _Draws([(row, abs(value)) for row, value in zip(rows, values)
                    if cmath.isfinite(value)])
    if not draws:
        return EquivalenceVerdict("inconclusive", samples=[],
                                  reason="no finite evaluation point")
    draws.vars = tuple(vars)
    if any(d >= tolerance for _, d in draws):
        return EquivalenceVerdict("numeric-mismatch", samples=draws)
    return EquivalenceVerdict("numeric-converged", samples=draws)


# --- round-trip fixed-point testing ----------------------------------------------

class RoundTripStep(Record):
    __slots__ = ("index", "side", "text")

    def __init__(self, index: int, side: str, text: str):
        self.index = index
        self.side = side  # semantic-latex | maple
        self.text = text


class RoundTripReport(Record):
    __slots__ = ("steps", "cycles_by_side", "terminated_reason", "error")

    def __init__(self, steps: List[RoundTripStep], cycles_by_side: Dict[str, Fraction],
                 terminated_reason: str, error: Optional[str] = None):
        self.steps = steps
        self.cycles_by_side = cycles_by_side  # empty without a fixed point
        # fixed-point | max-steps | translation-error
        self.terminated_reason = terminated_reason
        self.error = error

    @property
    def fixed_point_reached(self) -> bool:
        return self.terminated_reason == "fixed-point"

    @property
    def cycles_to_fixed_point(self) -> Optional[Fraction]:
        return max(self.cycles_by_side.values(), default=None)


def round_trip(start_text: str, start_side: str, lex: Lexicon,
               max_steps: int = 12, use_divide: bool = True) -> RoundTripReport:
    """Alternately translate between semantic LaTeX and Maple, the one CAS
    whose inert form backward reads, until each side's string equals its
    value one cycle earlier, or max_steps is exhausted.  No simplification
    is applied during cycling.  A fixed point needs two texts before the
    repeated one, so max_steps must be at least 3.

    The first repeat ends the trip: when the new text equals ``texts[j]``,
    the side of ``texts[j]`` is at a fixed point after j/2 cycles and the
    other side after (j+1)/2."""
    if max_steps < 3:
        raise CheckOptionError(f"max_steps must be at least 3, not {max_steps}")
    if start_side not in (SEMANTIC_LATEX, MAPLE_SIDE):
        raise CheckOptionError(f"start_side must be {SEMANTIC_LATEX} or "
                               f"{MAPLE_SIDE}, not {start_side!r}")
    texts = [start_text]
    sides = (start_side,
             MAPLE_SIDE if start_side == SEMANTIC_LATEX else SEMANTIC_LATEX)
    reason, error, cycles = "max-steps", None, {}
    while len(texts) < max_steps:
        try:
            if sides[(len(texts) - 1) % 2] == SEMANTIC_LATEX:
                new = translate_string(texts[-1], lex, MAPLE).output
            else:
                new = backward_string(texts[-1], lex, use_divide=use_divide).output
        except TexcasError as exc:
            reason, error = "translation-error", str(exc)
            break
        if len(texts) >= 2 and new == texts[-2]:
            j = len(texts) - 2
            reason = "fixed-point"
            cycles = {sides[j % 2]: Fraction(j, 2),
                      sides[1 - j % 2]: Fraction(j + 1, 2)}
            break
        texts.append(new)

    steps = [RoundTripStep(k, sides[k % 2], text) for k, text in enumerate(texts)]
    return RoundTripReport(steps, cycles, reason, error)
