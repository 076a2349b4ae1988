"""Round-trip fixed-point testing and equivalence checking.

Equivalence of a relation is decided by simplifying the formula difference
with a light confluent rewrite set, falling back to seeded complex sampling
at fixed machine precision (tolerance 1e-10 by default, annulus
0.1 <= |z| <= 2, conjugate pairs included).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import inert
from .backward import backward_string
from .errors import NoEvaluator, TexcasError, UnknownSymbol
# evaluate stays importable here: perfbench/worker.py wraps verify.evaluate
from .evaluator import compile_tree, evaluate, free_names  # noqa: F401
from .forward import MAPLE, CASDialect, translate_string
from .inert import (DIVIDE, FLOAT, INTNEG, INTPOS, POWER, PROD,
                    RATIONAL, SUM, InertForm, int_value)
from .lexicon import Lexicon

SEMANTIC_LATEX = "semantic-latex"
MAPLE_SIDE = "maple"

DEFAULT_TOLERANCE = 1e-10
DEFAULT_POINTS = 20
DEFAULT_SEED = 0
ANNULUS = (0.1, 2.0)


# --- light symbolic simplifier ------------------------------------------------

# a folded power may have at most this many bits (about 315k digits)
_MAX_FOLD_BITS = 2 ** 20


def _canonical_key(t: InertForm) -> tuple:
    """Hashable, totally ordered structural key: ``(tag, payload)`` for a
    leaf, ``(tag, None, *child_keys)`` for an inner node.  A float key keeps
    its sign of zero, so terms in -0.0 and 0.0 are never collected."""
    if not t.children:
        if t.tag == FLOAT:
            return (FLOAT, (t.payload, math.copysign(1.0, t.payload)))
        return (t.tag, t.payload)
    return (t.tag, None, *map(_canonical_key, t.children))


def _fraction_node(f: Fraction) -> InertForm:
    if f.denominator == 1:
        return inert.intlit(f.numerator)
    return inert.rational(f.numerator, f.denominator)


def _as_fraction(t: InertForm) -> Optional[Fraction]:
    if t.tag in (INTPOS, INTNEG):
        return Fraction(int_value(t))
    if t.tag == RATIONAL:
        return Fraction(int_value(t.children[0]), t.children[1].payload)
    return None


def simplify_light(tree: InertForm) -> InertForm:
    """Confluent rewrite set: flatten, fold exact rational arithmetic, drop
    additive 0 / multiplicative 1, x^1 -> x, x^0 -> 1, sort commutative
    operands, combine DIVIDE of rationals.  Deliberately far weaker than a
    CAS simplify."""
    children = [simplify_light(c) for c in tree.children]
    t = InertForm(tree.tag, tree.payload, children)

    if t.tag == DIVIDE:
        num, den = t.children
        fn, fd = _as_fraction(num), _as_fraction(den)
        if fn is not None and fd is not None and fd != 0:
            return _fraction_node(fn / fd)
        if fd == Fraction(1):
            return num
        return t

    if t.tag == POWER:
        base, expo = t.children
        fe = _as_fraction(expo)
        if fe == 1:
            return base
        if fe == 0 and _as_fraction(base) != 0:
            return InertForm(INTPOS, 1)
        fb = _as_fraction(base)
        if fb is not None and fe is not None and fe.denominator == 1 \
                and (fb != 0 or fe > 0) and _fold_bits(fb, fe) <= _MAX_FOLD_BITS:
            return _fraction_node(fb ** fe.numerator)
        return t

    if t.tag == PROD:
        factors: List[InertForm] = []
        for c in t.children:
            factors.extend(c.children if c.tag == PROD else [c])
        coeff = Fraction(1)
        rest = []
        for c in factors:
            f = _as_fraction(c)
            if f is not None:
                coeff *= f
            else:
                rest.append(c)
        if coeff == 0:
            return InertForm(INTPOS, 0)
        rest.sort(key=_canonical_key)
        if not rest:
            return _fraction_node(coeff)
        if coeff != 1:
            rest = [_fraction_node(coeff)] + rest
        return rest[0] if len(rest) == 1 else InertForm(PROD, children=rest)

    if t.tag == SUM:
        terms: List[InertForm] = []
        for c in t.children:
            terms.extend(c.children if c.tag == SUM else [c])
        constant = Fraction(0)
        collected: Dict[tuple, Tuple[Fraction, InertForm]] = {}
        for c in terms:
            f = _as_fraction(c)
            if f is not None:
                constant += f
                continue
            coeff, core = _split_term(c)
            key = _canonical_key(core)
            if key in collected:
                collected[key] = (collected[key][0] + coeff, core)
            else:
                collected[key] = (coeff, core)
        out: List[InertForm] = []
        if constant != 0:
            out.append(_fraction_node(constant))
        for key in sorted(collected):
            coeff, core = collected[key]
            if coeff == 0:
                continue
            if coeff == 1:
                out.append(core)
            else:
                out.append(InertForm(PROD, children=[_fraction_node(coeff), core]))
        if not out:
            return InertForm(INTPOS, 0)
        return out[0] if len(out) == 1 else InertForm(SUM, children=out)

    return t


def _fold_bits(base: Fraction, expo: Fraction) -> int:
    """An upper bound on the bits of ``base ** expo`` (integer expo)."""
    size = max(base.numerator.bit_length(), base.denominator.bit_length())
    return abs(expo.numerator) * size


def _split_term(t: InertForm) -> Tuple[Fraction, InertForm]:
    if t.tag == PROD:
        f = _as_fraction(t.children[0])
        if f is not None:
            rest = t.children[1:]
            core = rest[0] if len(rest) == 1 else InertForm(PROD, children=rest)
            return f, core
    return Fraction(1), t


def is_zero(t: InertForm) -> bool:
    return t.tag == INTPOS and t.payload == 0


# --- equivalence checking -------------------------------------------------------

@dataclass
class EquivalenceVerdict:
    outcome: str  # symbolic-zero | numeric-converged | numeric-mismatch | inconclusive
    samples: List[Tuple[Dict[str, complex], float]] = field(default_factory=list)
    reason: Optional[str] = None

    @property
    def max_abs_difference(self) -> Optional[float]:
        return max((d for _, d in self.samples), default=None)


def _difference(lhs: InertForm, rhs: InertForm) -> InertForm:
    return InertForm(SUM, children=[lhs, inert._negate(rhs)])


def _annulus_point(rng: random.Random) -> complex:
    r = rng.uniform(*ANNULUS)
    theta = rng.uniform(0.0, 2.0 * cmath.pi)
    return r * cmath.exp(1j * theta)


def check_equivalence(lhs: InertForm, rhs: InertForm, vars: Sequence[str],
                      tolerance: float = DEFAULT_TOLERANCE,
                      points: int = DEFAULT_POINTS,
                      seed: int = DEFAULT_SEED) -> EquivalenceVerdict:
    """Decide whether lhs == rhs: first by simplifying the formula difference
    to literal zero, else by seeded complex sampling of the difference."""
    diff = _difference(lhs, rhs)
    simplified = simplify_light(inert.preprocess(diff))
    if is_zero(simplified):
        return EquivalenceVerdict("symbolic-zero")

    declared = set(vars)
    for name in sorted(free_names(diff)):
        if name not in declared:
            raise UnknownSymbol(name)

    rng = random.Random(seed)
    assignments: List[Dict[str, complex]] = []
    if not vars:
        assignments.append({})
    else:
        base = max(1, points // 2)
        for _ in range(base):
            point = {v: _annulus_point(rng) for v in vars}
            assignments.append(point)
            assignments.append({v: z.conjugate() for v, z in point.items()})

    value_at = compile_tree(diff)
    samples: List[Tuple[Dict[str, complex], float]] = []
    for env in assignments:
        try:
            value = value_at(env)
        except NoEvaluator as exc:
            return EquivalenceVerdict("inconclusive", reason=str(exc))
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        if not (cmath.isfinite(value.real) and cmath.isfinite(value.imag)):
            continue
        samples.append((env, abs(value)))

    if not samples:
        return EquivalenceVerdict("inconclusive", samples=[],
                                  reason="no finite evaluation point")
    if any(d >= tolerance for _, d in samples):
        return EquivalenceVerdict("numeric-mismatch", samples=samples)
    return EquivalenceVerdict("numeric-converged", samples=samples)


# --- round-trip fixed-point testing ----------------------------------------------

@dataclass
class RoundTripStep:
    index: int
    side: str  # semantic-latex | maple
    text: str


@dataclass
class RoundTripReport:
    steps: List[RoundTripStep]
    fixed_point_reached: bool
    cycles_to_fixed_point: Optional[Fraction]
    cycles_by_side: Dict[str, Fraction]
    terminated_reason: str  # fixed-point | max-steps | translation-error
    error: Optional[str] = None


def _other(side: str) -> str:
    return MAPLE_SIDE if side == SEMANTIC_LATEX else SEMANTIC_LATEX


def round_trip(start_text: str, start_side: str, lex: Lexicon,
               max_steps: int = 12, dialect: CASDialect = MAPLE,
               use_divide: bool = True) -> RoundTripReport:
    """Alternately translate between the two representations until each side's
    string equals its value one cycle earlier, or max_steps is exhausted.
    No simplification is applied during cycling."""
    texts = [start_text]
    side = start_side

    def translate(text: str, from_side: str) -> str:
        if from_side == SEMANTIC_LATEX:
            return translate_string(text, lex, dialect).output
        return backward_string(text, lex, use_divide=use_divide).output

    while len(texts) < max_steps:
        try:
            new = translate(texts[-1], side)
        except TexcasError as exc:
            return RoundTripReport(
                steps=_steps(texts, start_side),
                fixed_point_reached=False, cycles_to_fixed_point=None,
                cycles_by_side={}, terminated_reason="translation-error",
                error=str(exc))
        if len(texts) >= 2 and new == texts[-2]:
            j = len(texts) - 2
            while j - 2 >= 0 and texts[j - 2] == new:
                j -= 2
            repeated_side = start_side if j % 2 == 0 else _other(start_side)
            cycles = {repeated_side: Fraction(j, 2),
                      _other(repeated_side): Fraction(j + 1, 2)}
            return RoundTripReport(
                steps=_steps(texts, start_side),
                fixed_point_reached=True,
                cycles_to_fixed_point=max(cycles.values()),
                cycles_by_side=cycles,
                terminated_reason="fixed-point")
        texts.append(new)
        side = _other(side)

    return RoundTripReport(steps=_steps(texts, start_side),
                           fixed_point_reached=False,
                           cycles_to_fixed_point=None, cycles_by_side={},
                           terminated_reason="max-steps")


def _steps(texts: List[str], start_side: str) -> List[RoundTripStep]:
    out = []
    side = start_side
    for k, text in enumerate(texts):
        out.append(RoundTripStep(index=k, side=side, text=text))
        side = _other(side)
    return out
