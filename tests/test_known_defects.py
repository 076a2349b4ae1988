"""Known defects, one record each in ``data/known_defects.json``.

Each record is checked twice: today's output must be exactly as recorded,
so an incidental change shows, and the wanted property is a strict expected
failure, so a fix shows as an XPASS, which fails.  The change that fixes a
defect moves its case to an ordinary test and deletes the record.  A record
whose defect needs a lexicon other than the seed names the compiled-lexicon
fields it changes in a ``patch``.
"""

import json
import re
from pathlib import Path

import pytest

from texcas.backward import backward_string
from texcas.errors import TexcasError
from texcas.forward import translate_string
from texcas.inert import nested_list_to_text, parse_maple, to_nested_list
from texcas.lexicon import Lexicon
from texcas.verify import check_equivalence, round_trip

RECORDS = json.loads((Path(__file__).parent / "data" / "known_defects.json")
                     .read_text(encoding="utf-8"))
IDS = [r["id"] for r in RECORDS]


def _translation(result):
    return {"output": result.output,
            "infos": [[i.kind, i.text] for i in result.infos]}


def _patched(doc, patch):
    """``doc`` with the fields of ``patch`` put in, dicts merged key by key."""
    for key, value in patch.items():
        doc[key] = _patched(doc.get(key, {}), value) if isinstance(value, dict) else value
    return doc


def run(record, lex):
    """What the record's entry point gives for its input: the output, or
    the error's type and message.  A record's ``patch`` applies to the
    seed lexicon's compiled form."""
    if "patch" in record:
        lex = Lexicon.from_json(_patched(lex.to_json(), record["patch"]))
    given = record["input"]
    entry = record["entry"]
    if entry == "check_equivalence":
        verdict = check_equivalence(parse_maple(given["lhs"]),
                                    parse_maple(given["rhs"]), given["vars"])
        return {"outcome": verdict.outcome, "reason": verdict.reason,
                "max_abs_difference": verdict.max_abs_difference}
    if entry == "round_trip":
        report = round_trip(given["text"], given["side"], lex)
        return {"terminated_reason": report.terminated_reason,
                "steps": [step.text for step in report.steps]}
    try:
        if entry == "translate_string":
            return _translation(translate_string(given["text"], lex, given["dialect"]))
        if entry == "backward_string":
            return _translation(backward_string(given["text"], lex))
        assert entry == "parse_maple"
        return {"output": nested_list_to_text(to_nested_list(parse_maple(given["text"])))}
    except TexcasError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _parses(record, got):
    """The entry reads its input, and a Maple text it writes parses."""
    if "error" in got:
        return False
    try:
        if record["entry"] == "translate_string":
            parse_maple(got["output"])
    except TexcasError:
        return False
    return True


# the wanted properties by name, each of the record and what ``run`` gave
WANTED = {
    "outcome-in": lambda record, got: got["outcome"] in record["wanted_outcomes"],
    "output-in": lambda record, got: got.get("output") in record["wanted_outputs"],
    "parses": _parses,
    "raises": lambda record, got: "error" in got,
    "fixed-point": lambda record, got: got["terminated_reason"] == "fixed-point",
    "names-exclude": lambda record, got: not set(record["names"]).intersection(
        re.findall(r"[A-Za-z_]\w*", got["output"])),
}


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_today_output_is_as_recorded(record, lex):
    assert run(record, lex) == record["today"]


@pytest.mark.xfail(strict=True, reason="a known defect, see the record")
@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_wanted_property_holds(record, lex):
    assert WANTED[record["property"]](record, run(record, lex)), record["wanted"]
