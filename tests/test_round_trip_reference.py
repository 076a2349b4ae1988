"""``round_trip`` against a reference copy of the one it replaced.

``reference_round_trip`` is the round trip as it stood before the report
was built at a single exit: after the first repeated text it searched back,
two steps at a time, for an earlier copy of that text, and it stored
``fixed_point_reached`` and ``cycles_to_fixed_point`` as fields.  Now both
are derived from ``terminated_reason`` and ``cycles_by_side``.  On every
start, side, ``max_steps`` (3 to 12) and ``use_divide``, the new report
must hold the same steps, reason, cycles, derived fields and error.  The
reference took a forward dialect; ``round_trip`` is Maple's alone, so it is
compared with the Maple dialect.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from texcas.backward import backward_string
from texcas.errors import TexcasError
from texcas.forward import translate_string
from texcas.inert import render_maple
from texcas.lexicon import MAPLE, MAPLE_SIDE, SEMANTIC_LATEX, Lexicon
from texcas.verify import round_trip

from treegen import random_evaluable

DATA = Path(__file__).parent / "data"


# --- the reference round trip ----------------------------------------------------

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


def reference_round_trip(start_text: str, start_side: str, lex: Lexicon,
                         max_steps: int = 12, dialect: str = MAPLE,
                         use_divide: bool = True) -> RoundTripReport:
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


# --- the comparison -------------------------------------------------------------

def fields(report) -> tuple:
    cycles = report.cycles_by_side
    return ([(s.index, s.side, s.text) for s in report.steps],
            report.terminated_reason, list(cycles.items()),
            [type(c) for c in cycles.values()], report.fixed_point_reached,
            report.cycles_to_fixed_point, report.error)


def starts() -> list:
    """(text, side) pairs: generated LaTeX and Maple texts of the goldens,
    the Maple rendering of generated evaluable trees, and a few texts that
    end in each way."""
    latex = json.loads((DATA / "translate_generated_golden.json").read_text("utf-8"))
    maple = json.loads((DATA / "maple_generated_golden.json").read_text("utf-8"))
    rng = random.Random(16)
    out = [(row["text"], SEMANTIC_LATEX) for row in latex[::25]]
    out += [(row["text"], MAPLE_SIDE) for row in maple[::25]]
    out += [(render_maple(random_evaluable(rng)), MAPLE_SIDE) for _ in range(40)]
    out += [(r"\EllIntF@{\phi}{k}", SEMANTIC_LATEX), ("EllipticF(z,k)", MAPLE_SIDE),
            ("x+1", SEMANTIC_LATEX), ("x+1", MAPLE_SIDE), ("x/(1/y)", MAPLE_SIDE),
            (r"\qhyperg{a}{b}@{z}", SEMANTIC_LATEX), ("sin((", MAPLE_SIDE)]
    return out


STARTS = starts()


@pytest.mark.parametrize("use_divide", [True, False])
def test_round_trip_matches_reference(lex, use_divide):
    reasons = set()
    for k, (text, side) in enumerate(STARTS):
        for max_steps in (3 + k % 10, 12 - k % 10):
            ours = round_trip(text, side, lex, max_steps=max_steps,
                              use_divide=use_divide)
            ref = reference_round_trip(text, side, lex, max_steps=max_steps,
                                       use_divide=use_divide)
            assert fields(ours) == fields(ref), (text, side, max_steps)
            reasons.add(ours.terminated_reason)
    # the starts end in every way, so each exit is compared
    assert reasons == {"fixed-point", "max-steps", "translation-error"}
