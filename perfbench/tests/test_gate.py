"""The correctness gate judges reports by their numbers, not their verdicts."""

import copy
import math

from gate import check_report, report_digest
from workloads import build_scenario, expected_checks, fault_rule, timed_call

from tetradkit import runner


def _judge(scenario, doc, points):
    return check_report(
        doc, points=points, expected=expected_checks(scenario), fault_rule=fault_rule(scenario)
    )


def test_clean_report_passes():
    scenario = build_scenario("schwarzschild")
    verdict = _judge(scenario, timed_call(scenario, 4, 3), 4)
    assert verdict.problems == []
    assert verdict.failed == 0
    assert verdict.attempted == 4 * 15


def test_nan_residual_that_the_runner_passes_is_flagged():
    """A NaN at a point other than the first slips past the runner's max()."""
    scenario = build_scenario("minkowski")
    check = next(c for c in runner.CHECKS if c.name == "torsion-consistency")
    original = check.evaluate

    def nan_at_point_one(ctx):
        return math.nan if ctx.index == 1 else original(ctx)

    object.__setattr__(check, "evaluate", nan_at_point_one)
    try:
        doc = timed_call(scenario, 3, 0)
    finally:
        object.__setattr__(check, "evaluate", original)
    entry = next(e for e in doc["checks"] if e["name"] == "torsion-consistency")
    assert entry["pass"] and doc["overall_pass"]
    assert math.isnan(entry["mean_residual"])

    verdict = _judge(scenario, doc, 3)
    assert verdict.failed == 3
    assert any("non-finite" in p for p in verdict.problems)


def test_horizon_faults_are_expected_only_inside_r_2m():
    scenario = build_scenario("schwarzschild-horizon")
    doc = timed_call(scenario, 30, 0)
    verdict = _judge(scenario, doc, 30)
    assert verdict.problems == []
    assert verdict.faulted_points > 0
    assert len(doc["errors"]) == 15 * verdict.faulted_points

    outside = copy.deepcopy(doc)
    row = outside["errors"][0]
    row["point"][0] = 5.0
    flagged = _judge(scenario, outside, 30)
    assert any("unexpected error" in p for p in flagged.problems)
    assert flagged.failed > 0


def test_faulted_point_must_fail_every_check():
    scenario = build_scenario("schwarzschild-horizon")
    doc = timed_call(scenario, 30, 0)
    doc["errors"].pop()
    verdict = _judge(scenario, doc, 30)
    assert any("no error row" in p for p in verdict.problems)


def test_errors_are_wrong_without_a_fault_rule():
    scenario = build_scenario("schwarzschild")
    doc = timed_call(scenario, 4, 1)
    doc["errors"].append({"check": "d2-law", "point": [5.0, 1.0, 1.0, 0.0], "message": "DomainFault: x"})
    verdict = _judge(scenario, doc, 4)
    assert verdict.failed > 0


def test_wrong_check_set_and_residual_are_flagged():
    scenario = build_scenario("minkowski")
    doc = timed_call(scenario, 4, 1)
    missing = copy.deepcopy(doc)
    missing["checks"].pop()
    assert _judge(scenario, missing, 4).failed == 4

    large = copy.deepcopy(doc)
    large["checks"][0]["max_residual"] = 1.0
    assert _judge(scenario, large, 4).failed == 4


def test_digest_ignores_wall_time_only():
    scenario = build_scenario("minkowski")
    doc = timed_call(scenario, 2, 5)
    same = dict(doc, wall_time_seconds=doc["wall_time_seconds"] + 1.0)
    assert report_digest(same) == report_digest(doc)
    changed = copy.deepcopy(doc)
    changed["checks"][0]["max_residual"] = 1e-3
    assert report_digest(changed) != report_digest(doc)
