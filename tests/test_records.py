"""The records: plain classes with ``__slots__`` and a hand-written
``__init__``.  Each keeps its parameters' names, order and defaults, value
equality, no hash and a repr that lists its fields."""

import inspect

import pytest

from texcas import backward, corpus, forward, inert, lexicon, scanner, verify
from texcas.backward import ReverseRule
from texcas.corpus import CorpusRecord, CorpusStats
from texcas.forward import InfoMessage, TranslationResult
from texcas.inert import INTPOS, PROD, InertForm
from texcas.lexicon import Advisory, ConstantRecord, LexiconEntry, Record
from texcas.scanner import MathTerm, PomTree
from texcas.verify import EquivalenceVerdict, RoundTripReport, RoundTripStep

REQUIRED = inspect.Parameter.empty
FRESH_LIST = object()  # a None default that the record replaces by a new list

# each record's parameters in order, with their defaults; its fields are
# the same names in the same order
SIGNATURES = {
    Advisory: {"kind": REQUIRED, "text": REQUIRED},
    LexiconEntry: dict.fromkeys(
        ("macro_name", "num_params", "num_vars", "at_variants", "dlmf_link",
         "translations", "advisories", "role", "reverse"), REQUIRED),
    ConstantRecord: {"entry": REQUIRED, "plain_letter_alias": None,
                     "advisory": None, "suggest_for": None},
    MathTerm: {"lexeme": REQUIRED, "kind": REQUIRED, "position": 0,
               "entry": None},
    PomTree: {"delimiter_class": None, "children": None,
              "open_lexeme": "", "close_lexeme": ""},
    InfoMessage: {"kind": REQUIRED, "text": REQUIRED},
    TranslationResult: {"output": REQUIRED, "infos": FRESH_LIST},
    InertForm: {"tag": REQUIRED, "payload": None, "children": FRESH_LIST},
    ReverseRule: {"latex_template": REQUIRED, "advisories": FRESH_LIST},
    EquivalenceVerdict: {"outcome": REQUIRED, "samples": FRESH_LIST,
                         "reason": None},
    RoundTripStep: {"index": REQUIRED, "side": REQUIRED, "text": REQUIRED},
    RoundTripReport: {"steps": REQUIRED, "cycles_by_side": REQUIRED,
                      "terminated_reason": REQUIRED, "error": None},
    CorpusRecord: {"id": REQUIRED, "semantic_latex": REQUIRED},
    CorpusStats: dict.fromkeys(
        ("total", "translated", "verified", "translated_unverified",
         "untranslated_unknown_macro", "errored", "ignored"), 0),
}

RECORDS = sorted(SIGNATURES, key=lambda cls: cls.__name__)


def build(cls, tag):
    """A record with a distinct value, tagged ``tag``, in every field."""
    return cls(*[(tag, name) for name in SIGNATURES[cls]])


def test_every_record_is_listed():
    found = {value for module in (backward, corpus, forward, inert, lexicon,
                                  scanner, verify)
             for value in vars(module).values()
             if isinstance(value, type) and issubclass(value, Record)}
    assert found - {Record} == set(SIGNATURES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_parameters_and_fields_keep_their_names_order_and_defaults(cls):
    expected = SIGNATURES[cls]
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(expected) == list(cls.__slots__)
    for p in params:
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        assert p.default == (None if expected[p.name] is FRESH_LIST
                             else expected[p.name]), p.name
    required = {name: name for name, d in expected.items() if d is REQUIRED}
    first, second = cls(**required), cls(**required)
    for name, default in expected.items():
        if default is FRESH_LIST:
            assert getattr(first, name) == [] and getattr(second, name) == []
            assert getattr(first, name) is not getattr(second, name)
        elif default is not REQUIRED:
            assert getattr(first, name) == default


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_a_value_without_a_hash(cls):
    record = build(cls, "a")
    assert record == build(cls, "a")
    for name in SIGNATURES[cls]:  # built by keyword, one field changed
        other = cls(**{n: ("b" if n == name else "a", n) for n in SIGNATURES[cls]})
        assert record != other, name
    assert record.__eq__(("a", "kind")) is NotImplemented
    assert record != ("a",) * len(SIGNATURES[cls])
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(record)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", [c for c in RECORDS if c is not InertForm],
                         ids=lambda cls: cls.__name__)
def test_repr_lists_the_fields_in_order(cls):
    fields = ", ".join(f"{name}={('a', name)!r}" for name in SIGNATURES[cls])
    assert repr(build(cls, "a")) == f"{cls.__qualname__}({fields})"


def test_inert_form_keeps_its_own_repr():
    assert repr(InertForm(PROD, children=[InertForm(INTPOS, 2)])) == "PROD(INTPOS(2))"


def test_a_passed_list_is_kept():
    children = [InertForm(INTPOS, 2)]
    assert InertForm(PROD, None, children).children is children
