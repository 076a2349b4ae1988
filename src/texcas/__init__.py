"""Bidirectional translation between semantic LaTeX and CAS expression syntax.

The pipeline:

* :mod:`texcas.scanner` — first-scan tokenizer for math-mode LaTeX,
* :mod:`texcas.lexicon` — macro/constant translation knowledge base,
* :mod:`texcas.forward` — semantic LaTeX -> Maple / Mathematica strings,
* :mod:`texcas.inert` — Maple 1D parser and inert expression trees,
* :mod:`texcas.backward` — inert trees -> semantic LaTeX,
* :mod:`texcas.verify` — round-trip fixed points and equivalence checking,
* :mod:`texcas.corpus` — translating, checking and classifying a corpus.

``import texcas`` loads only the lexicon, which every stage needs.  Every
other public name is imported from its submodule when it is first read
(PEP 562), so a process pays only for the stages it runs: a forward
translation never loads the Maple parser, the reverse rules, the simplifier
or the numeric evaluator.
"""

from importlib import import_module

from .lexicon import Lexicon, compile_lexicon, load_default

__version__ = "0.1.0"

# Each public name and the submodule it lives in.
_EXPORTS = {
    "MAPLE": "lexicon",
    "MATHEMATICA": "lexicon",
    "Lexicon": "lexicon",
    "backward_string": "backward",
    "check_equivalence": "verify",
    "compile_lexicon": "lexicon",
    "load_default": "lexicon",
    "parse_maple": "inert",
    "preprocess": "inert",
    "round_trip": "verify",
    "scan": "scanner",
    "serialize": "scanner",
    "simplify_light": "verify",
    "translate_backward": "backward",
    "translate_forward": "forward",
    "translate_string": "forward",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:  # so ``from texcas import cli`` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
