"""The first scan against the reference scanner on edge cases the generated
text rarely reaches: whitespace and comments inside ``\\left``/``\\right``,
Unicode whitespace, a character with no token behind a delimiter error,
positions after comments, and plain and ``\\left``/``\\right`` groups that
open and close across each other.  A fixed-seed sweep over the generator's
pieces adds a larger sample than the hypothesis test runs.
"""

import random

import pytest

from test_scan_reference import _PIECES, _scanned, reference_scan
from texcas.scanner import MAX_NESTING, scan


@pytest.mark.parametrize("text", [
    # whitespace and comments between \left or \right and the delimiter
    "\\left % c\n ( x \\right )",
    "\\left(x\\right % c\n % d\n )",
    "\\left\t[x\\right\n]",
    "\\left % c\n \\sin x\\right)",
    "\\left(x\\right % c\n ]",
    # \left or \right followed only by whitespace or a comment
    "\\left ", "\\left \n\t", "\\left % only a comment", "x\\right \u3000",
    "\\left(x\\right %\n",
    # Unicode whitespace runs
    "x\u3000\u00a0+\x0b\x0cy", "\u2003\u2009", "\\sin\u00a0@@{z}",
    "\\left\u3000(x\\right\u2028)", "x\x1c\x1d\x1e\x1f\x85y",
    # a character with no token after an unmatched or too deep group
    ")é", "x)\\,", "{" * (MAX_NESTING + 1) + "é", "\\left(" * (MAX_NESTING + 1) + "$",
    "\\right)é", "(]#", "\\left(x\\right]\\", "(x é",
    # positions after comments
    "% c\n)", "a % c\n = b)", "% one\n% two\n(x", "%\n\\left(x\\right]",
    "x %c\n é", "% c\n\\left x", "%é\n{x}%\n)",
    # plain and \left/\right groups opened and closed across each other
    "\\left{x\\right}", "\\left[x)", "(x\\right)", "\\left(x\\right}",
    "{\\left(x\\right)}", "\\left(\\left[x\\right]\\right)", "\\left(x\\right)\\right)",
])
def test_edge_cases_match_the_reference(text):
    assert _scanned(scan, text) == _scanned(reference_scan, text)


def test_fixed_seed_sweep_matches_the_reference():
    rng = random.Random(12)
    for _ in range(20_000):
        text = "".join(rng.choices(_PIECES, k=rng.randint(0, 12)))
        assert _scanned(scan, text) == _scanned(reference_scan, text), text
