"""Workload definitions: which scenarios each workload runs, and how a call is made.

Every workload calls ``runner.run_checks`` and then
``runner.report_document`` on each of its scenarios, the same two calls
``tetradkit check --json`` makes, at 100 points with the CLI defaults
(all applicable checks, max order 3).  Nothing here imports tetradkit at
module level, so a fresh interpreter can time that import itself.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

POINTS = 100
MAX_ORDER = 3

# Call k of a run with seed s samples with seed CALL_SEED_STRIDE * s + k, so
# no two timed calls in a run see the same points and a cache kept across
# calls cannot help.  The warm-up seed is outside that range for any run
# seed below 2**40.
CALL_SEED_STRIDE = 1000
WARMUP_SEED = CALL_SEED_STRIDE * 2**40 + 7

MODULES = (
    "jets",
    "exprkit",
    "forms",
    "geometry",
    "fieldeqs",
    "identities",
    "scenarios",
    "runner",
    "cli",
)

# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    "explicit-fields": ("random-fields", "minkowski"),
    "levi-civita": ("flat-polar", "schwarzschild", "flrw", "flat-contorsion"),
    "horizon-faults": ("schwarzschild-horizon",),
}


def call_seed(seed: int, k: int) -> int:
    if not 0 <= k < CALL_SEED_STRIDE:
        raise ValueError(f"call index {k} outside 0..{CALL_SEED_STRIDE - 1}")
    return CALL_SEED_STRIDE * seed + k


def tetradkit_module(name: str):
    return importlib.import_module(f"tetradkit.{name}")


def import_tetradkit():
    for name in MODULES:
        tetradkit_module(name)


def horizon_document() -> dict:
    """The schwarzschild builtin with the r bound widened to [1, 10]."""
    doc = tetradkit_module("scenarios").builtin_document("schwarzschild")
    doc["name"] = "schwarzschild-horizon"
    doc["chart"]["bounds"][0] = [1.0, 10.0]
    return doc


def build_scenario(name: str):
    scenarios = tetradkit_module("scenarios")
    if name == "schwarzschild-horizon":
        return scenarios.scenario_from_dict(horizon_document(), source=name)
    return scenarios.builtin_scenario(name)


@dataclass(frozen=True)
class FaultRule:
    """Where a DomainFault is the right outcome: point[coord] < below."""

    coord: int
    below: float


def fault_rule(scenario) -> FaultRule | None:
    """Faults are expected only inside the horizon, r < 2M."""
    if scenario.name != "schwarzschild-horizon":
        return None
    return FaultRule(scenario.chart.index_of("r"), 2.0 * scenario.parameters["M"])


def expected_checks(scenario) -> dict[str, float]:
    """Applicable registry checks at the CLI defaults, with their tolerances."""
    runner = tetradkit_module("runner")
    out = {}
    for check in runner.CHECKS:
        if check.applies(scenario) and check.required_order <= MAX_ORDER:
            out[check.name] = scenario.tolerances.get(check.name, check.tolerance)
    return out


def timed_call(scenario, points: int, seed: int):
    """The measured unit: run_checks then report_document, as the CLI does."""
    runner = tetradkit_module("runner")
    report = runner.run_checks(scenario, points=points, seed=seed, max_order=MAX_ORDER)
    return runner.report_document(report)
