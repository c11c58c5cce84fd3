"""Check orchestration: seeded sampling, residual evaluation, reporting.

The registry below names every residual check the package can run against
a scenario, in the order reports list them.  Each check is a pure function
of the point's ``PointJets``, which carries the matter model, and, for
checks that need auxiliary random objects, a dedicated generator seeded
from (run seed, point index, check name), so disabling one check never
shifts another's random stream.  All checks at a point read one
``PointJets``, so each field jet, source and derived tensor is computed
once per point; the expression fields are evaluated ``CHUNK`` points at a
time, and each point is served its own jet or fault.  A check reads the
tetrad before the connection, which decides the fault a point reports
when both fail.

Each check returns its residual's arrays, reduced by one rule: the largest
absolute entry over every part (NaN when any entry is NaN), relative to the
largest field magnitude seen at the point (floored at one), so tolerances
survive regions where the fields or their derivatives grow large.  A
residual that is not finite is an error at its point, like a domain fault,
so its check cannot pass; numpy's overflow and invalid-value warnings are
silenced for the run, since such points become error rows anyway.
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
from .forms import MixedForm
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
from .pointjets import PointJets, chunk_jets
from .scenarios import Scenario

# Sample points whose expression sources are evaluated together, one walk
# per expression tree.
CHUNK = 32


class RunnerError(ValueError):
    """Bad run options (unknown check names, tolerance keys, or tolerances
    that are not positive finite numbers), or a point the run cannot
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


def _magnitude(jets: PointJets) -> float:
    """Largest field magnitude at the point, floored at one.

    Covers the tetrad and connection jets through second order and the
    source jets through first order.  Also enforces the positive-orientation
    requirement on the tetrad.
    """
    ej = jets.e(2)
    if float(np.linalg.det(ej.value)) <= 0.0:
        raise RunnerError(
            "tetrad determinant must be positive everywhere; "
            f"found a non-positive value at {tuple(jets.point)}"
        )
    parts = [1.0]
    for jet in (ej, jets.omega(2), jets.stress(1), jets.spin(1)):
        parts.extend(float(np.max(np.abs(d))) for d in jet.data)
    return max(parts)


def _largest_entry(residual: np.ndarray | tuple[np.ndarray, ...] | float) -> float:
    """Largest absolute entry of a residual, one array or a tuple of them;
    NaN when any entry is NaN."""
    parts = residual if isinstance(residual, tuple) else (residual,)
    largest = [float(np.abs(part).max()) for part in parts]
    return math.nan if any(map(math.isnan, largest)) else max(largest)


def _drop_tracebacks(exc: BaseException) -> None:
    """Detach the tracebacks of a recorded fault and of the exceptions it
    chains to.  Their frames hold the point's ``PointJets``, which remembers
    the fault, so each faulted point would otherwise leave a reference cycle
    that only the cyclic collector frees."""
    stack = [exc]
    while stack:
        exc = stack.pop()
        if exc is not None and exc.__traceback__ is not None:
            exc.__traceback__ = None
            stack += (exc.__cause__, exc.__context__)


def _random_jet(rng: np.random.Generator, shape: tuple[int, ...]) -> Jet:
    """A random coherent order-2 jet: the second derivative axes symmetric."""
    value = rng.uniform(-1.0, 1.0, shape)
    first = rng.uniform(-1.0, 1.0, shape + (DIM,))
    second = rng.uniform(-1.0, 1.0, shape + (DIM, DIM))
    return Jet(2, [value, first, 0.5 * (second + second.swapaxes(-1, -2))])


# -- check evaluators -------------------------------------------------------


def _check_metric_compatibility(jets: PointJets, stream) -> np.ndarray:
    return metric_compatibility_residual(jets)


def _check_torsion_consistency(jets: PointJets, stream) -> np.ndarray:
    q_frame = jets.torsion_tensor(0).value
    gamma = jets.christoffel(0).value
    return q_frame - np.transpose(gamma - gamma.transpose(0, 2, 1), (1, 2, 0))


def _check_scalar_consistency(jets: PointJets, stream) -> float:
    einv = jets.inverse_tetrad(0).value
    f = jets.field_strength(0).value
    g = jets.metric(0).value
    ricci = np.einsum("msws->mw", jets.riemann(0).value)
    direct = -float(np.einsum("ma,wb,abmw->", einv, einv, f))
    traced = float(np.einsum("mw,mw->", np.linalg.inv(g), ricci))
    return direct - traced


def _check_levi_civita_torsion(jets: PointJets, stream) -> np.ndarray:
    return jets.torsion(0).value


def _check_first_bianchi(jets: PointJets, stream) -> np.ndarray:
    return first_bianchi_residual(jets).values


def _check_second_bianchi(jets: PointJets, stream) -> np.ndarray:
    return second_bianchi_residual(jets).values


def _check_d_squared(jets: PointJets, stream) -> tuple[np.ndarray, ...]:
    rng = _aux_rng(stream, "d2-law")
    parts = []
    for variances, shape in (
        ((1,), (DIM,)),
        ((-1,), (DIM,)),
        ((1, -1), (DIM, DIM)),
    ):
        alpha = MixedForm._wrap(0, len(variances), _random_jet(rng, shape))
        parts.append(d_squared_residual(jets, alpha, variances).values)
    raw = _random_jet(rng, (DIM, DIM))
    anti = Jet(raw.order, [0.5 * (d - d.swapaxes(0, 1)) for d in raw.data])
    parts.append(d_squared_residual(jets, MixedForm._wrap(2, 0, anti), ()).values)
    return tuple(parts)


def _check_commutator(jets: PointJets, stream) -> np.ndarray:
    rng = _aux_rng(stream, "commutator")
    return commutator_residual(jets, _random_jet(rng, (DIM,))).value


def _check_nfe_leibniz(jets: PointJets, stream) -> np.ndarray:
    lhs, rhs = torsion_equation_sides(jets)
    return (lhs - rhs).values


def _check_rewritten_lhs(jets: PointJets, stream) -> tuple[np.ndarray, ...]:
    first, second = rewritten_lhs_check(jets)
    return first.values, second.values


def _check_curvature_equation(jets: PointJets, stream) -> np.ndarray:
    return curvature_equation_residual(jets).values


def _check_torsion_equation(jets: PointJets, stream) -> np.ndarray:
    return torsion_equation_residual(jets).values


def _check_component_field_equations(jets: PointJets, stream) -> tuple[np.ndarray, ...]:
    res = component_field_equation_residuals(jets)
    return res.stress, res.spin


def _check_conservation_form(jets: PointJets, stream) -> tuple[np.ndarray, ...]:
    res = conservation_form_residuals(jets)
    return res.stress.values, res.spin.values


def _check_conservation_component(jets: PointJets, stream) -> tuple[np.ndarray, ...]:
    res = conservation_component_residuals(jets)
    return res.stress, res.spin


def _always(_scenario: Scenario) -> bool:
    return True


def _needs_levi_civita(scenario: Scenario) -> bool:
    return isinstance(scenario.connection, LeviCivitaConnection)


@dataclass(frozen=True)
class IdentityCheck:
    """A named residual check with its jet-depth need and tolerance.

    ``evaluate(jets, stream)`` returns the raw residual at one point, an
    array (or a number) or a tuple of them; ``stream`` is the (seed, point
    index) pair that seeds the check's auxiliary generator.
    """

    name: str
    required_order: int
    tolerance: float
    evaluate: Callable[[PointJets, tuple[int, int]], np.ndarray | tuple[np.ndarray, ...] | float]
    applies: Callable[[Scenario], bool] = _always

    def __post_init__(self):
        if not 0 <= self.required_order <= 3:
            raise ValueError(f"check {self.name}: jet order {self.required_order} out of range")


CHECKS: tuple[IdentityCheck, ...] = (
    IdentityCheck("metric-compatibility", 2, 1e-10, _check_metric_compatibility),
    IdentityCheck("torsion-consistency", 1, 1e-12, _check_torsion_consistency),
    IdentityCheck("scalar-consistency", 1, 1e-10, _check_scalar_consistency),
    IdentityCheck(
        "levi-civita-torsion", 1, 1e-12, _check_levi_civita_torsion, _needs_levi_civita
    ),
    IdentityCheck("first-bianchi", 2, 1e-10, _check_first_bianchi),
    IdentityCheck("second-bianchi", 2, 1e-10, _check_second_bianchi),
    IdentityCheck("d2-law", 2, 1e-10, _check_d_squared),
    IdentityCheck("commutator", 2, 1e-8, _check_commutator),
    IdentityCheck("nfe-leibniz", 1, 1e-12, _check_nfe_leibniz),
    IdentityCheck("rewritten-lhs", 2, 1e-9, _check_rewritten_lhs),
    IdentityCheck("curvature-equation", 1, 1e-8, _check_curvature_equation),
    IdentityCheck("torsion-equation", 1, 1e-10, _check_torsion_equation),
    IdentityCheck("component-field-equations", 1, 1e-8, _check_component_field_equations),
    IdentityCheck("conservation-form", 2, 1e-7, _check_conservation_form),
    IdentityCheck("conservation-component", 2, 1e-7, _check_conservation_component),
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
    if n <= 0:
        raise RunnerError(f"points must be positive, got {n}")

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
    every_point = (
        jets
        for start in range(0, n, CHUNK)
        for jets in chunk_jets(
            scenario.tetrad, scenario.connection, pts[start : start + CHUNK], scenario.matter
        )
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for index, jets in enumerate(every_point):
            stream = (s, index)
            scale = None
            for check in enabled:
                try:
                    value = _largest_entry(check.evaluate(jets, stream))
                    if scale is None:
                        scale = _magnitude(jets)
                    value = value / scale
                    if not math.isfinite(value):
                        raise RunnerError(f"non-finite residual {value!r}")
                except POINT_FAULTS as exc:
                    errors.append(
                        {
                            "check": check.name,
                            "point": [float(c) for c in jets.point],
                            "message": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    _drop_tracebacks(exc)
                else:
                    residuals[check.name].append(value)

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
