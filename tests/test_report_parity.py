"""Report parity: the reports of a fixed set of documents, seeds and point
counts stay what they were when the golden file was written.

Check names, point counts, pass flags and error rows must match exactly;
``max_residual`` and ``mean_residual`` within ``RESIDUAL_ATOL``, which
leaves room for a change that only re-associates floating-point sums.
The golden file keeps each report's error rows as their count per check
and a SHA-256 digest of their JSON, which pins every row.
The set covers the six builtins, a horizon crossing and five fault
documents.  Regenerate the golden file, only from a tree whose reports
are known to be right, with ``PYTHONPATH=src python tests/test_report_parity.py``.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from tetradkit.runner import report_document, run_checks
from tetradkit.scenarios import BUILTIN_NAMES, builtin_document, scenario_from_dict

GOLDEN = Path(__file__).resolve().parent / "data" / "report_parity.json"
SEEDS = (0, 7)
POINTS = 40
RESIDUAL_ATOL = 1e-14


def _horizon():
    doc = builtin_document("schwarzschild")
    doc["name"] = "schwarzschild-horizon"
    doc["chart"]["bounds"][0] = [1.0, 10.0]
    return doc


def _both_fault():
    # at x0 < 0 the tetrad faults on the sqrt and the connection on the log
    doc = builtin_document("minkowski")
    doc["name"] = "both-fault"
    doc["tetrad"][0][0] = "1 + sqrt(x0)"
    doc["connection"]["entries"]["01"][0] = "log(x0)"
    return doc


def _overflow():
    # exp(800*x1) and its jets overflow as x1 nears 0.89
    doc = builtin_document("flat-contorsion")
    doc["name"] = "overflow"
    doc["connection"]["entries"]["01"][0] = "sqrt(x0) + exp(800*x1)"
    return doc


def _mirrored():
    doc = builtin_document("flat-polar")
    doc["name"] = "mirrored"
    doc["tetrad"][0][0] = "-1"
    return doc


def _singular():
    doc = builtin_document("flat-polar")
    doc["name"] = "singular"
    doc["tetrad"][2][2] = "0"
    return doc


def _explicit_stress():
    # the stress faults at x < -0.5
    doc = builtin_document("flrw")
    doc["name"] = "flrw-explicit-stress"
    stress = [["0.1*y" if i == j else "0" for j in range(4)] for i in range(4)]
    stress[0][0] = "log(x + 0.5)"
    doc["matter"] = {"mode": "explicit", "stress": stress, "spin": {"01": ["0.2*x", "0", "z^2", "0"]}}
    return doc


DOCUMENTS = {name: (lambda name=name: builtin_document(name)) for name in BUILTIN_NAMES}
DOCUMENTS.update(
    {
        "schwarzschild-horizon": _horizon,
        "both-fault": _both_fault,
        "overflow": _overflow,
        "mirrored": _mirrored,
        "singular": _singular,
        "flrw-explicit-stress": _explicit_stress,
    }
)
CASES = [f"{name}/{seed}" for name in DOCUMENTS for seed in SEEDS]


def _report(case: str) -> dict:
    name, seed = case.split("/")
    report = run_checks(scenario_from_dict(DOCUMENTS[name]()), points=POINTS, seed=int(seed))
    doc = report_document(report)
    del doc["wall_time_seconds"]
    rows = doc.pop("errors")
    doc["errors"] = {
        "by_check": dict(sorted(Counter(row["check"] for row in rows).items())),
        "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }
    return doc


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(golden, case):
    got, want = _report(case), golden[case]
    residual_fields = ("max_residual", "mean_residual")

    def verdicts(doc):
        return [{k: v for k, v in c.items() if k not in residual_fields} for c in doc["checks"]]

    assert {k: v for k, v in got.items() if k != "checks"} == {
        k: v for k, v in want.items() if k != "checks"
    }
    assert verdicts(got) == verdicts(want)
    for mine, theirs in zip(got["checks"], want["checks"]):
        for field in residual_fields:
            if theirs[field] is None:
                assert mine[field] is None, (mine["name"], field)
            else:
                assert abs(mine[field] - theirs[field]) <= RESIDUAL_ATOL, (mine["name"], field)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case: _report(case) for case in CASES}) + "\n", encoding="utf-8")
