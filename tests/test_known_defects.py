"""Known defects, one record each in ``data/known_defects.json``.

Each record is checked twice: today's output must be exactly as recorded,
so an incidental change shows, and the wanted property is a strict expected
failure, so a fix shows as an XPASS, which fails.  The change that fixes a
defect moves its case to an ordinary test and deletes the record.
"""

import json
from pathlib import Path

import pytest

from texcas.inert import parse_maple
from texcas.verify import check_equivalence

RECORDS = json.loads((Path(__file__).parent / "data" / "known_defects.json")
                     .read_text(encoding="utf-8"))
IDS = [r["id"] for r in RECORDS]


def run(record):
    assert record["entry"] == "check_equivalence"
    given = record["input"]
    return check_equivalence(parse_maple(given["lhs"]), parse_maple(given["rhs"]),
                             given["vars"])


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_today_output_is_as_recorded(record):
    verdict = run(record)
    today = {"outcome": verdict.outcome, "reason": verdict.reason,
             "max_abs_difference": verdict.max_abs_difference}
    assert today == record["today"]


@pytest.mark.xfail(strict=True, reason="a known defect, see the record")
@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_wanted_property_holds(record):
    assert run(record).outcome in record["wanted_outcomes"], record["wanted"]
