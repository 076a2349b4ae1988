"""Calibration burst: a fixed piece of interpreter-bound work, timed.

On a shared 2-core VM speed drifts by +-20% over seconds (other tenants
share the cores), which no run length in budget averages out.  Timings are
therefore scaled by a burst run next to them: a measured time t becomes
t * REF_NS / burst, the time it would have taken at the speed where the burst
takes REF_NS.  Both commits of a comparison use the same burst and REF_NS, so
the scaling cancels in their ratio while the drift does not reach it.

The burst does what a translator does (regex tokenizing, small objects, dict
lookups, string joins) without calling texcas, so a change to texcas never
changes the yardstick.  It tracked the drift of translate's chunks better
than a plain dict/str loop did (quartile spread 5% against 10%).
"""

import re
import time

REF_NS = 1_000_000  # the burst's duration at the reference speed
# A bare interpreter start (`python -c pass`) at the reference speed.  The
# cost of a fresh process drifts apart from in-process speed, so fresh-process
# times are scaled by bare starts measured next to them instead of by bursts.
REF_START_S = 0.05

_TOKEN = re.compile(r"\\[a-zA-Z]+|[0-9]+|[a-zA-Z]|[{}()^_@]+|.")
_TEXT = r"\frac{\sin@{2\idt z}}{\JacobiP{\alpha}{\beta}{3}@{x}}+\sqrt[3]{y^{2}}-4.5"


class _Token:
    __slots__ = ("text", "size", "round")

    def __init__(self, text, size, round_):
        self.text, self.size, self.round = text, size, round_


def _work():
    counts, out = {}, []
    for round_ in range(40):
        tokens = [_Token(t, len(t), round_) for t in _TOKEN.findall(_TEXT)]
        for tok in tokens:
            counts[tok.text] = counts.get(tok.text, 0) + tok.size
        out.append("".join(t.text.upper() if t.size > 1 else t.text for t in tokens))
    return counts, out


def burst() -> int:
    """Nanoseconds one burst takes now."""
    t0 = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - t0


def scale(before: int, after: int) -> float:
    """Factor from times measured between two bursts to reference speed."""
    return 2 * REF_NS / (before + after)
