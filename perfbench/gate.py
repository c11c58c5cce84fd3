"""Correctness gate for report documents, and their digests.

The gate reads only the numbers in a report and never its ``pass`` or
``overall_pass`` verdicts.  An operation is one (sampled point, applicable
check) evaluation; it fails when its outcome differs from the expected
one.  A check whose aggregate is wrong counts all its points as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field


def report_digest(doc: dict) -> str:
    """SHA-256 of a report document without its ``wall_time_seconds``."""
    body = {key: value for key, value in doc.items() if key != "wall_time_seconds"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    faulted_points: int = 0
    problems: list[str] = field(default_factory=list)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_report(doc: dict, *, points: int, expected: dict[str, float], fault_rule=None) -> Verdict:
    """Judge one report of ``points`` sampled points.

    ``expected`` maps each applicable check to its tolerance.  Without a
    ``fault_rule`` no error row is expected.  With one, a point whose
    ``point[fault_rule.coord] < fault_rule.below`` must raise DomainFault
    in every check, and no other point may error.
    """
    verdict = Verdict(attempted=points * len(expected))
    failed = defaultdict(int)

    def problem(check: str, count: int, text: str):
        failed[check] += count
        verdict.problems.append(f"{check}: {text}")

    by_point: dict[tuple, set[str]] = defaultdict(set)
    for row in doc.get("errors", []):
        name = row.get("check")
        point = tuple(row.get("point", ()))
        message = str(row.get("message", ""))
        allowed = (
            fault_rule is not None
            and len(point) > fault_rule.coord
            and point[fault_rule.coord] < fault_rule.below
            and message.startswith("DomainFault:")
        )
        if not allowed:
            problem(name, 1, f"unexpected error at {point}: {message}")
            continue
        if name in by_point[point]:
            problem(name, 1, f"two error rows at {point}")
        by_point[point].add(name)
    verdict.faulted_points = len(by_point)
    for point, names in by_point.items():
        for name in sorted(set(expected) - names):
            problem(name, 1, f"faulted point {point} has no error row")

    seen = [entry.get("name") for entry in doc.get("checks", [])]
    for name in sorted(set(seen) - set(expected)):
        problem(name, points, "check is not applicable but was reported")
    if len(seen) != len(set(seen)):
        verdict.problems.append("a check is reported twice")
    options = doc.get("options", {})
    if options.get("points") != points:
        verdict.problems.append(f"report covers {options.get('points')} points, not {points}")

    entries = {entry.get("name"): entry for entry in doc.get("checks", [])}
    for name, tol in expected.items():
        entry = entries.get(name)
        if entry is None:
            problem(name, points, "missing from the report")
            continue
        errors = sum(1 for row in doc.get("errors", []) if row.get("check") == name)
        wrong = []
        if entry.get("points", 0) + errors != points:
            wrong.append(f"{entry.get('points')} points + {errors} errors != {points}")
        if entry.get("tolerance") != tol:
            wrong.append(f"tolerance {entry.get('tolerance')} != {tol}")
        if entry.get("points", 0) > 0:
            mx, mean = entry.get("max_residual"), entry.get("mean_residual")
            if not (_finite(mx) and _finite(mean)):
                wrong.append(f"non-finite residual (max {mx}, mean {mean})")
            elif mx > tol:
                wrong.append(f"max residual {mx:.3e} above tolerance {tol:.1e}")
        if wrong:
            failed[name] = points
            verdict.problems.append(f"{name}: " + "; ".join(wrong))

    verdict.failed = min(verdict.attempted, sum(min(points, n) for n in failed.values()))
    if verdict.problems and verdict.failed == 0:
        verdict.failed = verdict.attempted
    return verdict
