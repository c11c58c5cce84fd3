"""Check orchestration: seeded sampling, residual evaluation, reporting.

The registry below names every residual check the package can run against
a scenario, in the order reports list them.  The sample points are taken
``CHUNK`` at a time, and each check is a pure function of the chunk's
``PointJets``, which carries the matter model, and of the random jets its
registry entry declares, each point's drawn from one generator seeded from
(run seed, point index, check name), so disabling one check never shifts
another's random stream.  All checks of a chunk read one ``PointJets``, so
each field jet, source and derived tensor is computed once per chunk, with
the point axis first.  A check's fault at a point is the first fault among
what it read there, in its read order; a check reads the tetrad before the
connection, which decides the fault a point reports when both fail.

Each check returns its residual's jets or arrays, point axis first,
reduced per point by one rule: the largest absolute entry over every part
(NaN when any entry is NaN), relative to the largest field magnitude seen
at the point (floored at one), so tolerances survive regions where the
fields or their derivatives grow large.  A residual that is not finite is
an error at its point, like a domain fault, so its check cannot pass;
numpy's overflow and invalid-value warnings are silenced for the run,
since such points become error rows anyway.  Values and error rows are
written in point order, and the error rows of one point share its
coordinate list and, per fault, one message.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .exprkit import Chart, ExpressionError
from .fieldeqs import (
    FieldEquationError,
    component_field_equation_residuals,
    curvature_equation_residual,
    torsion_equation_residual,
    torsion_equation_sides,
)
from .geometry import GeometryError, LeviCivitaConnection
from .identities import (
    commutator_residual,
    conservation_component_residuals,
    conservation_form_residuals,
    d_squared_residual,
    first_bianchi_residual,
    metric_compatibility_residual,
    rewritten_lhs_check,
    second_bianchi_residual,
)
from .jets import DIM, Jet, JetDomainError
from .pointjets import PointJets
from .scenarios import Scenario

# Sample points derived together: one program run per expression field and one
# derivation, with the point axis first, per chunk.  A chunk's working set
# grows by about 80-100 KB per point (tracemalloc), 50-60 KB of it the
# memo.  Larger chunks save calls per point but raise a run's peak memory;
# the size stays at 12 until paired benchmark runs of both pick another.
CHUNK = 12


class RunnerError(ValueError):
    """Bad run options (unknown check names, tolerance keys, tolerances
    that are not positive finite numbers, a point count that is not a
    positive integer, or a seed or jet order cap that is not a nonnegative
    integer; a bool is not an integer here), or a point the run cannot
    score: a mirrored tetrad or a non-finite residual."""


# What a point may raise and still leave the run going: domain faults of
# the fields and failed numerics.  Anything else is a bug and ends the run.
POINT_FAULTS = (
    ExpressionError,
    JetDomainError,
    GeometryError,
    FieldEquationError,
    RunnerError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


def _aux_rng(stream: tuple[int, int], name: str) -> np.random.Generator:
    """The generator of one check at one point; ``stream`` is (seed, index)."""
    seed, index = stream
    return np.random.default_rng([int(seed), int(index), zlib.crc32(name.encode())])


def _magnitude(jets: PointJets) -> tuple[np.ndarray, list]:
    """Largest field magnitude at each point of the chunk, floored at one,
    and each point's fault in reading it.

    Covers the tetrad and connection jets through second order and the
    source jets through first order.  Also enforces the positive-orientation
    requirement on the tetrad, checked after the tetrad is read and before
    the connection.  NaN entries are skipped.
    """
    faults = jets.record()
    ej = jets.e(2)
    det = np.linalg.det(ej.value)
    for i in np.flatnonzero(det <= 0.0):
        if faults[i] is None:
            faults[i] = RunnerError(
                "tetrad determinant must be positive everywhere; "
                f"found a non-positive value at {tuple(jets.points[i])}"
            )
    scale = np.ones(len(jets.points))
    for jet in (ej, jets.omega(2), jets.stress(1), jets.spin(1)):
        for d in jet.data:
            scale = np.fmax(scale, _each_point(np.abs(d)).max(axis=1))
    return scale, faults


def _each_point(part: np.ndarray) -> np.ndarray:
    return part.reshape(len(part), -1)


def _largest_entry(residual: Jet | np.ndarray | tuple) -> np.ndarray:
    """Largest absolute entry of a residual at each point, over one jet
    (by its value) or array or a tuple of them, each with the point axis
    first; NaN where any entry at the point is NaN."""
    parts = residual if isinstance(residual, tuple) else (residual,)
    return np.max(
        [_each_point(np.abs(p.value if isinstance(p, Jet) else p)).max(axis=1) for p in parts],
        axis=0,
    )


def _run_chunk(scenario: Scenario, enabled, chunk: np.ndarray, seed: int, first: int):
    """Every enabled check on one chunk of points, whose first has index
    ``first``: per check its name, the largest residual entry at each point
    and each point's fault, then each point's residual scale and its fault.
    The chunk's derivation is released on return."""
    jets = PointJets(scenario.tetrad, scenario.connection, chunk, scenario.matter)
    outcomes = []
    for check in enabled:
        faults = jets.record()
        drawn = ()
        if check.draws:
            rngs = [_aux_rng((seed, first + i), check.name) for i in range(len(chunk))]
            drawn = _random_jets(rngs, check.draws)
        outcomes.append((check.name, _largest_entry(check.evaluate(jets, *drawn)), faults))
    return (outcomes, *_magnitude(jets))


def _message(fault: BaseException, messages: dict) -> str:
    """An error row's message for ``fault``, one string per fault object:
    a derivation hands the same fault to every check that read it."""
    hit = messages.get(id(fault))
    if hit is None:
        hit = messages[id(fault)] = (fault, f"{type(fault).__name__}: {fault}")
    return hit[1]


def _random_jets(rngs: Sequence[np.random.Generator], shapes) -> list[Jet]:
    """Random coherent order-2 jets, the second derivative axes symmetric:
    one per shape, each point's drawn from that point's generator.

    A point's doubles come from one call, in the order of drawing each
    shape's value, first and second derivative tensors in turn, and the
    jets' tensors are views of the rows they land in."""
    parts = [shape + (DIM,) * k for shape in shapes for k in range(3)]
    sizes = [math.prod(part) for part in parts]
    block = np.empty((len(rngs), sum(sizes)))
    for row, rng in zip(block, rngs):
        row[:] = rng.uniform(-1.0, 1.0, len(row))
    bounds = np.cumsum([0] + sizes)
    views = [
        block[:, start:stop].reshape((len(rngs),) + part)
        for part, start, stop in zip(parts, bounds, bounds[1:])
    ]
    return [
        Jet(2, [value, first, 0.5 * (second + second.swapaxes(-1, -2))])
        for value, first, second in zip(views[0::3], views[1::3], views[2::3])
    ]


# -- check evaluators -------------------------------------------------------
#
# The checks whose residual is a formula of their own; the registry names
# every other check's residual function in ``identities`` or ``fieldeqs``.


def _check_torsion_consistency(jets: PointJets) -> np.ndarray:
    q_frame = jets.torsion_tensor(0).value
    gamma = jets.christoffel(0).value
    return q_frame - np.moveaxis(gamma - gamma.swapaxes(-1, -2), -3, -1)


def _check_scalar_consistency(jets: PointJets) -> np.ndarray:
    einv = jets.inverse_tetrad(0).value
    f = jets.field_strength(0).value
    ricci = np.einsum("...msws->...mw", jets.riemann(0).value)
    direct = -np.einsum("...ma,...wb,...abmw->...", einv, einv, f)
    traced = np.einsum("...mw,...mw->...", jets.inverse_metric(0).value, ricci)
    return direct - traced


def _check_levi_civita_torsion(jets: PointJets) -> Jet:
    return jets.torsion(0)


def _check_d_squared(jets: PointJets, *alphas: Jet) -> tuple[Jet, ...]:
    return tuple(
        d_squared_residual(jets, alpha, 0, variances)
        for variances, alpha in zip(((1,), (-1,), (1, -1)), alphas)
    )


def _check_nfe_leibniz(jets: PointJets) -> Jet:
    lhs, rhs = torsion_equation_sides(jets)
    return lhs - rhs


def _always(_scenario: Scenario) -> bool:
    return True


def _needs_levi_civita(scenario: Scenario) -> bool:
    return isinstance(scenario.connection, LeviCivitaConnection)


@dataclass(frozen=True)
class IdentityCheck:
    """A named residual check with its jet-depth need and tolerance.

    ``evaluate(jets, *drawn)`` returns the raw residual at a chunk of
    points: a jet, an array, or a tuple of them, each with the point axis
    first.  ``drawn`` holds one random coherent order-2 jet per shape in
    ``draws``, each point's drawn from the check's generator at that point.
    """

    name: str
    required_order: int
    tolerance: float
    evaluate: Callable[..., Jet | np.ndarray | tuple]
    applies: Callable[[Scenario], bool] = _always
    draws: tuple[tuple[int, ...], ...] = ()


CHECKS: tuple[IdentityCheck, ...] = (
    IdentityCheck("metric-compatibility", 2, 1e-10, metric_compatibility_residual),
    IdentityCheck("torsion-consistency", 1, 1e-12, _check_torsion_consistency),
    IdentityCheck("scalar-consistency", 1, 1e-10, _check_scalar_consistency),
    IdentityCheck(
        "levi-civita-torsion", 1, 1e-12, _check_levi_civita_torsion, _needs_levi_civita
    ),
    IdentityCheck("first-bianchi", 2, 1e-10, first_bianchi_residual),
    IdentityCheck("second-bianchi", 2, 1e-10, second_bianchi_residual),
    IdentityCheck("d2-law", 2, 1e-10, _check_d_squared, draws=((DIM,), (DIM,), (DIM, DIM))),
    IdentityCheck("commutator", 2, 1e-8, commutator_residual, draws=((DIM,),)),
    IdentityCheck("nfe-leibniz", 1, 1e-12, _check_nfe_leibniz),
    IdentityCheck("rewritten-lhs", 2, 1e-9, rewritten_lhs_check),
    IdentityCheck("curvature-equation", 1, 1e-8, curvature_equation_residual),
    IdentityCheck("torsion-equation", 1, 1e-10, torsion_equation_residual),
    IdentityCheck("component-field-equations", 1, 1e-8, component_field_equation_residuals),
    IdentityCheck("conservation-form", 2, 1e-7, conservation_form_residuals),
    IdentityCheck("conservation-component", 2, 1e-7, conservation_component_residuals),
)

CHECK_NAMES = tuple(check.name for check in CHECKS)


def sample_points(chart: Chart, count: int, seed: int) -> np.ndarray:
    """Uniform points in the chart box, shrunk by a one percent margin."""
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    span = hi - lo
    rng = np.random.default_rng(seed)
    return lo + 0.01 * span + rng.random((count, DIM)) * 0.98 * span


@dataclass(frozen=True)
class CheckResult:
    name: str
    points: int
    max_residual: float | None
    mean_residual: float | None
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    scenario_name: str
    digest: str
    points: int
    seed: int
    max_order: int
    results: tuple[CheckResult, ...]
    errors: tuple[dict, ...]
    overall_pass: bool
    wall_time: float


def _validate_names(names, what: str):
    unknown = sorted(set(names) - set(CHECK_NAMES))
    if unknown:
        raise RunnerError(
            f"unknown {what}: {', '.join(unknown)}; known checks are "
            f"{', '.join(CHECK_NAMES)}"
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def run_checks(
    scenario: Scenario,
    *,
    points: int | None = None,
    seed: int | None = None,
    tolerances: Mapping[str, float] | None = None,
    checks: Sequence[str] | None = None,
    max_order: int = 3,
) -> CheckReport:
    """Evaluate every enabled check at seeded sample points.

    The report is fully determined by (scenario, seed, options) apart from
    the wall time.  Per-point faults (``POINT_FAULTS``) and non-finite
    residuals are recorded with the point and the check name without
    stopping other points; a run with any recorded error never passes
    overall.  Any other exception propagates.
    """
    n = points if points is not None else scenario.points
    s = seed if seed is not None else scenario.seed
    if not _is_int(n) or n <= 0:
        raise RunnerError(f"points must be a positive integer, got {n!r}")
    if not _is_int(s) or s < 0:
        raise RunnerError(f"sampling seed must be a nonnegative integer, got {s!r}")
    if not _is_int(max_order) or max_order < 0:
        raise RunnerError(f"max_order must be a nonnegative integer, got {max_order!r}")

    tol_map = {check.name: check.tolerance for check in CHECKS}
    _validate_names(scenario.tolerances, "tolerance override")
    tol_map.update(scenario.tolerances)
    if tolerances:
        _validate_names(tolerances, "tolerance override")
        for name, tol in tolerances.items():
            if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
                raise RunnerError(
                    f"tolerance override for {name} must be a positive finite number, got {tol!r}"
                )
        tol_map.update(tolerances)

    if checks is not None:
        _validate_names(checks, "check name")
        wanted = set(checks)
    else:
        wanted = set(CHECK_NAMES)
    enabled = [
        check
        for check in CHECKS
        if check.name in wanted
        and check.applies(scenario)
        and check.required_order <= max_order
    ]
    if not enabled:
        raise RunnerError(
            "no checks selected: the filter, the scenario, and the jet order "
            "cap left nothing to run"
        )

    start = time.perf_counter()
    pts = sample_points(scenario.chart, n, s)
    residuals: dict[str, list[float]] = {check.name: [] for check in enabled}
    errors: list[dict] = []
    messages: dict[int, tuple[BaseException, str]] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, CHUNK):
            chunk = pts[first : first + CHUNK]
            outcomes, scale, scale_faults = _run_chunk(scenario, enabled, chunk, s, first)
            for i, x in enumerate(chunk):
                point = None
                for name, largest, faults in outcomes:
                    fault = faults[i] if faults[i] is not None else scale_faults[i]
                    if fault is None:
                        value = float(largest[i]) / float(scale[i])
                        if math.isfinite(value):
                            residuals[name].append(value)
                            continue
                        fault = RunnerError(f"non-finite residual {value!r}")
                    if not isinstance(fault, POINT_FAULTS):
                        raise fault
                    if point is None:
                        point = [float(c) for c in x]
                    errors.append({"check": name, "point": point, "message": _message(fault, messages)})

    errored = {entry["check"] for entry in errors}
    results = []
    for check in enabled:
        values = residuals[check.name]
        tol = tol_map[check.name]
        if values:
            mx = max(values)
            mean = sum(values) / len(values)
        else:
            mx = None
            mean = None
        passed = bool(values) and check.name not in errored and mx <= tol
        results.append(
            CheckResult(
                name=check.name,
                points=len(values),
                max_residual=mx,
                mean_residual=mean,
                tolerance=tol,
                passed=passed,
            )
        )
    overall = all(r.passed for r in results) and not errors
    wall = time.perf_counter() - start
    return CheckReport(
        scenario_name=scenario.name,
        digest=scenario.digest,
        points=n,
        seed=s,
        max_order=max_order,
        results=tuple(results),
        errors=tuple(errors),
        overall_pass=overall,
        wall_time=wall,
    )


# -- report output ----------------------------------------------------------


def report_document(report: CheckReport) -> dict:
    """The JSON document for a report, with a stable key order.

    Every field except ``wall_time_seconds`` is determined by the run
    inputs; numeric values round-trip exactly through JSON because Python
    prints shortest-round-trip floats.
    """
    return {
        "schema_version": "1",
        "scenario": {"name": report.scenario_name, "digest": report.digest},
        "options": {
            "points": report.points,
            "seed": report.seed,
            "max_order": report.max_order,
        },
        "checks": [
            {
                "name": r.name,
                "points": r.points,
                "max_residual": r.max_residual,
                "mean_residual": r.mean_residual,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in report.results
        ],
        "errors": [dict(entry) for entry in report.errors],
        "overall_pass": report.overall_pass,
        "wall_time_seconds": report.wall_time,
    }


def format_text(report: CheckReport) -> str:
    """Aligned text table, checks in declaration order."""
    headers = ("check", "points", "max", "mean", "tol", "status")
    rows = []
    for r in report.results:
        rows.append(
            (
                r.name,
                str(r.points),
                "-" if r.max_residual is None else f"{r.max_residual:.3e}",
                "-" if r.mean_residual is None else f"{r.mean_residual:.3e}",
                f"{r.tolerance:.1e}",
                "PASS" if r.passed else "FAIL",
            )
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        f"scenario {report.scenario_name}  digest {report.digest}  "
        f"points {report.points}  seed {report.seed}"
    ]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    for entry in report.errors:
        point = ", ".join(f"{c:.6g}" for c in entry["point"])
        lines.append(f"error  {entry['check']}  at ({point}): {entry['message']}")
    verdict = "PASS" if report.overall_pass else "FAIL"
    lines.append(f"overall: {verdict}  ({report.wall_time:.2f} s)")
    return "\n".join(lines) + "\n"


def emit_report(report: CheckReport, fmt: str = "text", path=None):
    """Write a report as text or JSON, to a file or standard output."""
    if fmt == "json":
        payload = json.dumps(report_document(report), indent=2, allow_nan=False) + "\n"
    elif fmt == "text":
        payload = format_text(report)
    else:
        raise RunnerError(f"unknown report format {fmt!r}")
    if path is None:
        print(payload, end="")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
