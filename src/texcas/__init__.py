"""Bidirectional translation between semantic LaTeX and CAS expression syntax.

The pipeline:

* :mod:`texcas.scanner` — first-scan tokenizer for math-mode LaTeX,
* :mod:`texcas.lexicon` — macro/constant translation knowledge base,
* :mod:`texcas.forward` — semantic LaTeX -> Maple / Mathematica strings,
* :mod:`texcas.inert` — Maple 1D parser and inert expression trees,
* :mod:`texcas.backward` — inert trees -> semantic LaTeX,
* :mod:`texcas.verify` — round-trip fixed points and equivalence checking,
* :mod:`texcas.corpus` — translating, checking and classifying a corpus.
"""

from .backward import backward_string, translate_backward
from .forward import MAPLE, MATHEMATICA, translate_forward, translate_string
from .inert import parse_maple, preprocess
from .lexicon import Lexicon, compile_lexicon, load_default
from .scanner import scan, serialize
from .verify import check_equivalence, round_trip, simplify_light

__version__ = "0.1.0"

__all__ = [
    "MAPLE",
    "MATHEMATICA",
    "Lexicon",
    "backward_string",
    "check_equivalence",
    "compile_lexicon",
    "load_default",
    "parse_maple",
    "preprocess",
    "round_trip",
    "scan",
    "serialize",
    "simplify_light",
    "translate_backward",
    "translate_forward",
    "translate_string",
    "__version__",
]
