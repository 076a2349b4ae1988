"""Continued fractions, the form of the paper's datasets (the Wolfram eCF and
Antwerp CFSF sets), translated and checked end to end by ``run_corpus``.

A ladder ``b_0 + \\frac{a_1}{b_1 + \\frac{a_2}{...}}`` of depth n equals its
convergent A_n / B_n, where A_k = b_k A_{k-1} + a_k A_{k-2} and B_k likewise,
from A_{-1} = 1, A_0 = b_0, B_{-1} = 0 and B_0 = 1 (the Wallis-Euler
recurrence).  Each relation below is a ladder against the convergent written
out as text, against its exact value, or against a ladder with a_1 shifted
by one.
"""

import random
from fractions import Fraction
from string import ascii_lowercase

import pytest

from texcas.corpus import CorpusRecord, run_corpus

DEPTHS = range(2, 11)


def ladder(b, a):
    """The continued fraction b[0] + a[0]/(b[1] + a[1]/(...)) as LaTeX, each
    term a LaTeX text."""
    text = b[-1]
    for bk, ak in zip(b[-2::-1], a[::-1]):
        text = rf"{bk} + \frac{{{ak}}}{{{text}}}"
    return text


def convergent(b, a):
    """A_n / B_n as LaTeX, each A_k and B_k written out by the recurrence."""
    num, num_before = b[0], "1"
    den, den_before = "1", "0"
    for bk, ak in zip(b[1:], a):
        num, num_before = rf"{bk} \idt ({num}) + {ak} \idt ({num_before})", num
        den, den_before = rf"{bk} \idt ({den}) + {ak} \idt ({den_before})", den
    return rf"\frac{{{num}}}{{{den}}}"


def exact(b, a):
    """The value of a ladder of integer terms."""
    value = Fraction(b[-1])
    for bk, ak in zip(b[-2::-1], a[::-1]):
        value = bk + ak / value
    return value


def letters(depth):
    """Distinct letters for b_0..b_depth and a_1..a_depth."""
    names = ascii_lowercase[:2 * depth + 1]
    return list(names[0::2]), list(names[1::2])


def digits(depth, seed):
    rng = random.Random(seed)
    return ([str(rng.randint(1, 9)) for _ in range(depth + 1)],
            [str(rng.randint(1, 9)) for _ in range(depth)])


def shifted(a):
    return [f"{a[0]} + 1", *a[1:]]


def checked(lex, lhs, rhs):
    """The run_corpus log entry of the relation lhs = rhs."""
    stats, log = run_corpus([CorpusRecord("cf", f"{lhs} = {rhs}")], lex)
    assert stats.translated == 1
    return log[0]


@pytest.mark.parametrize("depth", DEPTHS)
def test_a_letter_ladder_is_its_convergent(lex, depth):
    b, a = letters(depth)
    entry = checked(lex, ladder(b, a), convergent(b, a))
    assert (entry["classification"], entry["outcome"]) == \
        ("verified", "numeric-converged")
    assert entry["max_abs_difference"] < 1e-13


@pytest.mark.parametrize("depth", DEPTHS)
def test_a_letter_ladder_with_a_shifted_term_is_not(lex, depth):
    b, a = letters(depth)
    entry = checked(lex, ladder(b, shifted(a)), convergent(b, a))
    assert (entry["classification"], entry["outcome"]) == \
        ("translated-unverified", "numeric-mismatch")


@pytest.mark.parametrize("depth", [*DEPTHS, 16])
def test_a_digit_ladder_is_its_exact_value(lex, depth):
    b, a = digits(depth, seed=depth)
    value = exact([int(t) for t in b], [int(t) for t in a])
    entry = checked(lex, ladder(b, a),
                    rf"\frac{{{value.numerator}}}{{{value.denominator}}}")
    assert (entry["classification"], entry["outcome"]) == \
        ("verified", "symbolic-zero")


@pytest.mark.parametrize("depth", DEPTHS)
def test_a_ladder_in_z_is_its_convergent(lex, depth):
    _, a = digits(depth, seed=100 + depth)
    b = ["z"] * (depth + 1)
    entry = checked(lex, ladder(b, a), convergent(b, a))
    assert (entry["classification"], entry["outcome"]) == \
        ("verified", "numeric-converged")


@pytest.mark.parametrize("depth", DEPTHS)
def test_a_ladder_in_z_with_a_shifted_term_is_not_the_same(lex, depth):
    _, a = digits(depth, seed=100 + depth)
    b = ["z"] * (depth + 1)
    entry = checked(lex, ladder(b, a), ladder(b, shifted(a)))
    assert (entry["classification"], entry["outcome"]) == \
        ("translated-unverified", "numeric-mismatch")
