import dataclasses
import gc
import itertools
import json
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tetradkit import fieldeqs, identities, pointjets, runner
from tetradkit.fieldeqs import torsion_three_form
from tetradkit.forms import MixedForm
from tetradkit.jets import Jet
from tetradkit.runner import (
    CHECK_NAMES,
    CHECKS,
    CheckReport,
    RunnerError,
    emit_report,
    format_text,
    report_document,
    run_checks,
    sample_points,
)
from tetradkit.scenarios import (
    BUILTIN_NAMES,
    builtin_document,
    builtin_scenario,
    scenario_from_dict,
)

from test_report_parity import DOCUMENTS as PARITY_DOCUMENTS
from test_scenarios import minimal_document


def document_without_timing(report: CheckReport) -> dict:
    doc = report_document(report)
    doc.pop("wall_time_seconds")
    return doc


class TestSampling:
    def test_points_respect_the_margin(self):
        sc = builtin_scenario("schwarzschild")
        pts = sample_points(sc.chart, 500, 3)
        lo = np.array([b[0] for b in sc.chart.bounds])
        hi = np.array([b[1] for b in sc.chart.bounds])
        span = hi - lo
        assert np.all(pts >= lo + 0.01 * span)
        assert np.all(pts <= hi - 0.01 * span)

    def test_deterministic_for_fixed_seed(self):
        chart = builtin_scenario("minkowski").chart
        a = sample_points(chart, 50, 7)
        b = sample_points(chart, 50, 7)
        assert np.array_equal(a, b)
        c = sample_points(chart, 50, 8)
        assert not np.array_equal(a, c)


class TestRandomJets:
    def test_one_draw_per_point_gives_the_per_shape_draws(self):
        # each point draws every shape's value, first and second derivative
        # tensors from its generator in turn; one call per point yields the
        # same doubles in the same order
        shapes = ((4,), (4,), (4, 4), (4, 4))
        streams = [(3, i) for i in range(5)]
        got = runner._random_jets([runner._aux_rng(st, "d2-law") for st in streams], shapes)
        rngs = [runner._aux_rng(st, "d2-law") for st in streams]
        drawn = [[[rng.uniform(-1.0, 1.0, shape + (4,) * k) for k in range(3)] for shape in shapes]
                 for rng in rngs]
        assert len(got) == len(shapes)
        for j, jet in enumerate(got):
            value, first, second = (np.stack([point[j][k] for point in drawn]) for k in range(3))
            assert jet.order == 2 and len(jet.value) == len(streams)
            np.testing.assert_array_equal(jet.data[0], value)
            np.testing.assert_array_equal(jet.data[1], first)
            np.testing.assert_array_equal(jet.data[2], 0.5 * (second + second.swapaxes(-1, -2)))


class TestRegistry:
    def test_names_unique_and_exposed(self):
        assert len(set(CHECK_NAMES)) == len(CHECK_NAMES)
        assert CHECK_NAMES[0] == "metric-compatibility"
        assert "conservation-component" in CHECK_NAMES

    def test_required_orders_within_cap(self):
        for check in CHECKS:
            assert 0 <= check.required_order <= 3

    def test_ten_checks_are_their_residual_functions(self):
        # the registry names them itself: no evaluator in runner forwards to them
        direct = {
            "metric-compatibility": identities.metric_compatibility_residual,
            "first-bianchi": identities.first_bianchi_residual,
            "second-bianchi": identities.second_bianchi_residual,
            "commutator": identities.commutator_residual,
            "rewritten-lhs": identities.rewritten_lhs_check,
            "curvature-equation": fieldeqs.curvature_equation_residual,
            "torsion-equation": fieldeqs.torsion_equation_residual,
            "component-field-equations": fieldeqs.component_field_equation_residuals,
            "conservation-form": identities.conservation_form_residuals,
            "conservation-component": identities.conservation_component_residuals,
        }
        for check in CHECKS:
            if check.name in direct:
                assert check.evaluate is direct[check.name], check.name
            else:
                assert check.evaluate.__module__ == "tetradkit.runner", check.name

    def test_only_the_random_checks_draw(self):
        drawing = {check.name: check.draws for check in CHECKS if check.draws}
        assert drawing == {"d2-law": ((4,), (4,), (4, 4)), "commutator": ((4,),)}

    def test_builtins_cover_every_check(self):
        covered = set()
        for name in BUILTIN_NAMES:
            sc = builtin_scenario(name)
            covered.update(c.name for c in CHECKS if c.applies(sc))
        assert covered == set(CHECK_NAMES)


class TestRunChecks:
    def test_minkowski_all_quiet(self):
        report = run_checks(builtin_scenario("minkowski"), points=20)
        assert report.overall_pass
        assert not report.errors
        for result in report.results:
            assert result.points == 20
            assert result.max_residual < 1e-12

    def test_levi_civita_check_only_for_solved_connections(self):
        flat = run_checks(builtin_scenario("minkowski"), points=2)
        polar = run_checks(builtin_scenario("flat-polar"), points=2)
        assert "levi-civita-torsion" not in [r.name for r in flat.results]
        assert "levi-civita-torsion" in [r.name for r in polar.results]

    def test_declaration_order_in_results(self):
        report = run_checks(builtin_scenario("flat-polar"), points=2)
        names = [r.name for r in report.results]
        assert names == [c.name for c in CHECKS if c.applies(builtin_scenario("flat-polar"))]

    def test_determinism(self):
        sc = builtin_scenario("schwarzschild")
        first = run_checks(sc, points=15, seed=1)
        second = run_checks(sc, points=15, seed=1)
        assert document_without_timing(first) == document_without_timing(second)

    def test_seed_changes_the_numbers(self):
        sc = builtin_scenario("random-fields")
        a = run_checks(sc, points=10, seed=1, checks=["second-bianchi"])
        b = run_checks(sc, points=10, seed=2, checks=["second-bianchi"])
        assert a.results[0].max_residual != b.results[0].max_residual

    def test_isolation_under_check_filter(self):
        sc = builtin_scenario("random-fields")
        full = run_checks(sc, points=8, seed=4)
        alone = run_checks(sc, points=8, seed=4, checks=["d2-law"])
        full_d2 = next(r for r in full.results if r.name == "d2-law")
        assert alone.results[0].max_residual == full_d2.max_residual
        assert alone.results[0].mean_residual == full_d2.mean_residual

    def test_tolerance_override_forces_failure(self):
        sc = builtin_scenario("random-fields")
        report = run_checks(sc, points=3, tolerances={"d2-law": 1e-30})
        result = next(r for r in report.results if r.name == "d2-law")
        assert not result.passed
        assert not report.overall_pass

    def test_scenario_tolerances_apply(self):
        doc = builtin_document("minkowski")
        doc["tolerances"] = {"commutator": 0.5}
        report = run_checks(scenario_from_dict(doc), points=2)
        result = next(r for r in report.results if r.name == "commutator")
        assert result.tolerance == 0.5

    def test_unknown_names_rejected(self):
        sc = builtin_scenario("minkowski")
        with pytest.raises(RunnerError, match="unknown check name"):
            run_checks(sc, points=2, checks=["first-bianchi", "third-bianchi"])
        with pytest.raises(RunnerError, match="unknown tolerance override"):
            run_checks(sc, points=2, tolerances={"third-bianchi": 1e-9})

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9, True, "1e-9"])
    def test_bad_tolerance_override_rejected(self, tol):
        # a scenario file rejects the same values; NaN would pass or fail
        # nothing, inf would pass any finite residual
        with pytest.raises(RunnerError, match="positive finite number"):
            run_checks(builtin_scenario("minkowski"), points=1, tolerances={"commutator": tol})

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "0"])
    def test_bad_seed_rejected(self, seed):
        # a scenario file rejects the same values; numpy would raise its own
        # ValueError on a negative seed
        with pytest.raises(RunnerError, match="sampling seed must be a nonnegative integer"):
            run_checks(builtin_scenario("minkowski"), points=1, seed=seed)

    @pytest.mark.parametrize("points", [0, -3, True, 2.5, 3.0, "3"])
    def test_bad_point_count_rejected(self, points):
        # a float count used to escape as a TypeError from range
        with pytest.raises(RunnerError, match="points must be a positive integer"):
            run_checks(builtin_scenario("minkowski"), points=points)

    @pytest.mark.parametrize("max_order", [-1, True, 2.5, 3.0, "3"])
    def test_bad_order_cap_rejected(self, max_order):
        # a float cap used to run and be echoed in the report's options
        with pytest.raises(RunnerError, match="max_order must be a nonnegative integer"):
            run_checks(builtin_scenario("minkowski"), points=1, max_order=max_order)

    def test_order_cap_excludes_deep_checks(self):
        report = run_checks(builtin_scenario("minkowski"), points=2, max_order=1)
        names = {r.name for r in report.results}
        assert "second-bianchi" not in names
        assert "nfe-leibniz" in names

    def test_empty_selection_rejected(self):
        with pytest.raises(RunnerError, match="no checks selected"):
            run_checks(builtin_scenario("minkowski"), points=2, max_order=0)

    def test_point_errors_recorded_without_aborting(self):
        doc = minimal_document(name="degenerate")
        doc["tetrad"][2][2] = "x0"
        sc = scenario_from_dict(doc)
        report = run_checks(sc, points=30, checks=["metric-compatibility"])
        assert report.errors
        assert not report.overall_pass
        result = report.results[0]
        assert 0 < result.points < 30
        for entry in report.errors:
            assert entry["check"] == "metric-compatibility"
            assert len(entry["point"]) == 4
            assert entry["message"]

    def test_orientation_requirement_enforced(self):
        doc = minimal_document(name="mirrored")
        doc["tetrad"][0][0] = "-1"
        sc = scenario_from_dict(doc)
        report = run_checks(sc, points=3, checks=["metric-compatibility"])
        assert not report.overall_pass
        assert all("positive" in entry["message"] for entry in report.errors)

    def test_off_shell_matter_is_diagnostic_not_fatal(self):
        doc = minimal_document(name="off-shell")
        doc["matter"] = {
            "mode": "explicit",
            "stress": [["0.1*x0" if i == j else "0" for j in range(4)] for i in range(4)],
            "spin": {},
        }
        sc = scenario_from_dict(doc)
        report = run_checks(sc, points=4, checks=["component-field-equations"])
        assert not report.errors
        assert not report.results[0].passed
        assert report.results[0].max_residual > 1e-3


def _patch_check(monkeypatch, name, evaluate):
    patched = tuple(
        dataclasses.replace(c, evaluate=evaluate) if c.name == name else c
        for c in runner.CHECKS
    )
    monkeypatch.setattr(runner, "CHECKS", patched)


def _nan_last(part):
    """A copy of a residual part, a jet or an array with the point axis
    first, whose last entry at every point is NaN."""
    values = np.array(part.value if isinstance(part, Jet) else part, dtype=float, order="C")
    values.reshape(len(values), -1)[:, -1] = math.nan
    return Jet(0, [values]) if isinstance(part, Jet) else values


def _spin_nan(res):
    return res._replace(spin=_nan_last(res.spin))


# (check, a poison that puts one NaN into the last part of its residual)
LAST_PART_NAN = [
    ("rewritten-lhs", lambda res: (res[0], _nan_last(res[1]))),
    ("conservation-form", _spin_nan),
    ("component-field-equations", _spin_nan),
    ("conservation-component", _spin_nan),
]


class TestPointFaults:
    def test_non_finite_residual_is_an_error_and_fails(self, monkeypatch):
        def nan_at_point_one(jets):
            return np.array([math.nan if row == 1 else 0.0 for row in range(len(jets.points))])

        _patch_check(monkeypatch, "torsion-consistency", nan_at_point_one)
        sc = builtin_scenario("minkowski")
        report = run_checks(sc, points=3, checks=["torsion-consistency"])
        result = report.results[0]
        assert result.points == 2
        assert not result.passed
        assert not report.overall_pass
        assert [entry["point"] for entry in report.errors] == [
            [float(c) for c in sample_points(sc.chart, 3, sc.seed)[1]]
        ]
        assert "non-finite residual" in report.errors[0]["message"]

    @pytest.mark.parametrize("check, poison", LAST_PART_NAN, ids=[case[0] for case in LAST_PART_NAN])
    def test_nan_in_a_later_part_is_an_error(self, monkeypatch, check, poison):
        residual = next(c for c in CHECKS if c.name == check).evaluate
        _patch_check(monkeypatch, check, lambda jets: poison(residual(jets)))
        report = run_checks(builtin_scenario("random-fields"), points=3, checks=[check])
        (result,) = report.results
        assert result.points == 0
        assert not result.passed
        assert len(report.errors) == 3
        assert all("non-finite residual" in entry["message"] for entry in report.errors)

    def test_nan_in_the_last_d2_form_is_an_error(self, monkeypatch):
        # d2-law tests three forms per point; the third holds the NaN
        calls = itertools.count(1)
        residual = runner.d_squared_residual

        def poisoned(jets, alpha, k, variances):
            res = residual(jets, alpha, k, variances)
            return _nan_last(res) if next(calls) % 3 == 0 else res

        monkeypatch.setattr(runner, "d_squared_residual", poisoned)
        report = run_checks(builtin_scenario("minkowski"), points=2, checks=["d2-law"])
        assert not report.results[0].passed
        assert len(report.errors) == 2
        assert all("non-finite residual" in entry["message"] for entry in report.errors)

    def test_overflowing_points_are_error_rows_without_warnings(self):
        # exp(800*x1) and its jets overflow as x1 nears 0.89; the test
        # suite turns RuntimeWarning into an error
        doc = builtin_document("flat-contorsion")
        doc["connection"]["entries"]["01"][0] = "sqrt(x0) + exp(800*x1)"
        report = run_checks(scenario_from_dict(doc), points=100, seed=0)
        errors = Counter(entry["check"] for entry in report.errors)
        for result in report.results:
            assert result.points + errors[result.name] == 100
        assert "RunnerError: non-finite residual nan" in {
            entry["message"] for entry in report.errors if entry["check"] == "d2-law"
        }

    def test_json_report_refuses_nan(self, tmp_path):
        report = run_checks(builtin_scenario("minkowski"), points=2)
        broken = dataclasses.replace(
            report,
            results=(dataclasses.replace(report.results[0], max_residual=math.nan),),
        )
        with pytest.raises(ValueError):
            emit_report(broken, "json", tmp_path / "report.json")

    def test_faulted_points_leave_no_reference_cycles(self):
        # a point remembers its fault, and the fault's traceback holds the
        # frames that hold the point
        doc = builtin_document("schwarzschild")
        doc["chart"]["bounds"][0] = [1.0, 10.0]
        sc = scenario_from_dict(doc)
        gc.collect()
        gc.disable()
        try:
            report = run_checks(sc, points=30, seed=0)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert report.errors
        assert unreachable == 0

    def test_error_rows_of_a_point_share_its_coordinates_and_message(self):
        # every check at a point inside r < 2M reads the tetrad's one fault,
        # so the rows hold one coordinate list and one message between them;
        # the JSON is unchanged
        doc = builtin_document("schwarzschild")
        doc["name"] = "schwarzschild-horizon"
        doc["chart"]["bounds"][0] = [1.0, 10.0]
        report = run_checks(scenario_from_dict(doc), points=100, seed=0)
        by_point = {}
        for row in report.errors:
            by_point.setdefault(tuple(row["point"]), []).append(row)
        assert len(by_point) > 1
        for rows in by_point.values():
            assert len(rows) == len(report.results)
            assert all(row["point"] is rows[0]["point"] for row in rows)
            assert all(row["message"] is rows[0]["message"] for row in rows)
        points = {id(rows[0]["point"]) for rows in by_point.values()}
        assert len(points) == len(by_point)
        assert json.loads(json.dumps(report_document(report)))["errors"] == [
            dict(row) for row in report.errors
        ]

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(jets):
            raise TypeError("not a domain fault")

        _patch_check(monkeypatch, "second-bianchi", broken)
        with pytest.raises(TypeError, match="not a domain fault"):
            run_checks(builtin_scenario("minkowski"), points=2)


class TestFaultInjection:
    def test_perturbed_schwarzschild_fails_the_vacuum_checks(self):
        doc = builtin_document("schwarzschild")
        doc["tetrad"][3][3] = "sqrt(1 - 2*M/r) + 0.001"
        sc = scenario_from_dict(doc)
        report = run_checks(
            sc, points=20, checks=["component-field-equations", "curvature-equation"]
        )
        assert not report.overall_pass
        for result in report.results:
            assert result.max_residual > 1e-5

    def test_broken_product_rule_fails_nfe_leibniz(self, monkeypatch):
        # the algebraic route to the torsion side, as the point serves it,
        # is off by one part in a million: nfe-leibniz reports the gap, and
        # the torsion equation, which reads the derivative route, is unmoved
        def skewed(theta_jet, e_jet):
            return torsion_three_form(theta_jet, e_jet).scaled(1.0 + 1e-6)

        monkeypatch.setattr(pointjets, "torsion_three_form", skewed)
        report = run_checks(
            builtin_scenario("random-fields"), points=5, checks=["nfe-leibniz", "torsion-equation"]
        )
        nfe, torsion = report.results
        assert not nfe.passed
        assert nfe.max_residual > 1e3 * nfe.tolerance
        assert torsion.passed
        assert not report.errors

    def test_singular_tetrad_is_reported_with_one_message(self):
        # the connection, the inverse tetrad and everything after them stop
        # at the same singular frame, with the inverse tetrad's message
        doc = builtin_document("flat-polar")
        doc["tetrad"][2][2] = "0"
        report = run_checks(scenario_from_dict(doc), points=4)
        assert len(report.errors) == 4 * len(CHECKS)
        assert {row["message"] for row in report.errors} == {
            "SingularTetradError: tetrad determinant 0.000e+00 below threshold 1.0e-10"
        }


def _alternated(arr: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``arr`` antisymmetrized over ``axes``: the signed sum over their
    permutations."""
    out = np.zeros_like(arr)
    for perm in itertools.permutations(range(len(axes))):
        order = list(range(arr.ndim))
        for slot, source in enumerate(perm):
            order[axes[slot]] = axes[source]
        sign = round(np.linalg.det(np.eye(len(axes))[list(perm)]))
        out += sign * arr.transpose(order)
    return out


def _bump_accessor(monkeypatch, accessor: str, groups: tuple[tuple[int, ...], ...], size: float):
    """Make every ``PointJets.<accessor>`` call serve its value plus a fixed
    random bump on the value and first derivatives, the same at every point
    and antisymmetric over each group of component axes.  The derivative data no
    longer belongs to the value, and the quantity no longer matches the
    others the point derives."""
    original = getattr(pointjets.PointJets, accessor)
    patterns = {}

    def bumped(self, order):
        jet = original(self, order)
        if not patterns:
            rng = np.random.default_rng(2024)
            for k, d in enumerate(jet.data[:2]):
                pattern = rng.uniform(-1.0, 1.0, d.shape[1:])
                for group in groups:
                    pattern = _alternated(pattern, group)
                patterns[k] = size * pattern
        data = [d + patterns[k] if k in patterns else d for k, d in enumerate(jet.data)]
        return Jet(jet.order, data)

    monkeypatch.setattr(pointjets.PointJets, accessor, bumped)


# Per check: the scenario, the accessor whose served value is bumped, and
# the antisymmetric component axes of what it serves.
BROKEN_INPUTS = {
    "metric-compatibility": ("random-fields", "christoffel", ()),
    "torsion-consistency": ("random-fields", "torsion_tensor", ((0, 1),)),
    "scalar-consistency": ("random-fields", "riemann", ((0, 1),)),
    "levi-civita-torsion": ("flat-polar", "omega", ((0, 1),)),
    "first-bianchi": ("random-fields", "field_strength", ((0, 1), (2, 3))),
    "second-bianchi": ("random-fields", "field_strength", ((0, 1), (2, 3))),
    "d2-law": ("random-fields", "field_strength", ((0, 1), (2, 3))),
    "commutator": ("random-fields", "field_strength", ((0, 1), (2, 3))),
    "nfe-leibniz": ("random-fields", "torsion_three_form", ()),
    "rewritten-lhs": ("random-fields", "curvature_three_form", ()),
    "curvature-equation": ("random-fields", "curvature_three_form", ()),
    "torsion-equation": ("random-fields", "spin_form", ()),
    "component-field-equations": ("random-fields", "stress", ()),
    "conservation-form": ("random-fields", "stress_form", ()),
    "conservation-component": ("random-fields", "stress", ()),
}


class TestEveryCheckCanFail:
    def test_every_check_has_a_broken_input(self):
        assert tuple(BROKEN_INPUTS) == CHECK_NAMES

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_check_fails_on_its_broken_input(self, monkeypatch, name):
        scenario, accessor, groups = BROKEN_INPUTS[name]
        _bump_accessor(monkeypatch, accessor, groups, 1e-3)
        report = run_checks(builtin_scenario(scenario), points=3, checks=[name])
        (result,) = report.results
        assert not report.errors
        assert result.points == 3
        assert not result.passed
        assert result.max_residual > 10 * result.tolerance


class TestReports:
    def test_json_round_trip_is_exact(self):
        report = run_checks(builtin_scenario("flat-polar"), points=4)
        doc = report_document(report)
        recovered = json.loads(json.dumps(doc))
        assert recovered == doc

    def test_document_key_order_stable(self):
        report = run_checks(builtin_scenario("minkowski"), points=2)
        doc = report_document(report)
        assert list(doc) == [
            "schema_version",
            "scenario",
            "options",
            "checks",
            "errors",
            "overall_pass",
            "wall_time_seconds",
        ]
        assert doc["schema_version"] == "1"
        assert doc["scenario"]["digest"] == report.digest

    def test_text_report_layout(self):
        report = run_checks(builtin_scenario("minkowski"), points=2)
        text = format_text(report)
        lines = text.splitlines()
        assert lines[0].startswith("scenario minkowski")
        assert lines[1].split()[:2] == ["check", "points"]
        body = lines[2 : 2 + len(report.results)]
        assert [line.split()[0] for line in body] == [r.name for r in report.results]
        assert all("PASS" in line for line in body)
        assert lines[-1].startswith("overall: PASS")

    def test_emit_report_writes_files(self, tmp_path):
        report = run_checks(builtin_scenario("minkowski"), points=2)
        json_path = tmp_path / "report.json"
        text_path = tmp_path / "report.txt"
        emit_report(report, "json", json_path)
        emit_report(report, "text", text_path)
        parsed = json.loads(json_path.read_text())
        assert parsed["overall_pass"] is True
        assert "overall: PASS" in text_path.read_text()
        with pytest.raises(RunnerError, match="format"):
            emit_report(report, "yaml")


class TestBuiltinRuns:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_builtin_passes_everywhere(self, name):
        report = run_checks(builtin_scenario(name), points=12, seed=5)
        assert report.overall_pass, format_text(report)
        assert not report.errors


# The tracemalloc peak of one 100-point run and its report document, in MB.
# A chunk's working set is most of it: with every 3-form held by its dual
# vector and every 4-form by its coefficient, about 1.2 MB on both
# scenarios; with the 3-forms dense, about 2.1 MB, and with the three-form
# laws' 4-forms dense too, about 3.5 MB.
PEAK_MB = 2.8


@pytest.mark.parametrize("name", ["flat-polar", "schwarzschild-horizon"])
def test_peak_memory_of_a_run(name):
    sc = scenario_from_dict(PARITY_DOCUMENTS[name]())
    # a first run fills the module caches (einsum plans, sign tables)
    report_document(run_checks(sc, points=2, seed=0))
    tracemalloc.start()
    try:
        report_document(run_checks(sc, points=100, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < PEAK_MB


def _forbid(monkeypatch, module_name: str, name: str):
    """Make ``module_name.name`` raise wherever a tetradkit module binds it."""
    original = getattr(sys.modules[module_name], name)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    for bound_in, module in list(sys.modules.items()):
        if bound_in.startswith("tetradkit") and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("name", ["flat-contorsion", "random-fields"])
def test_a_run_builds_no_mixed_form(monkeypatch, name):
    # a run holds plain jets: 3-forms by their dual vectors, 4-forms by their
    # coefficients, and no MixedForm, block alternation or block wedge
    _forbid(monkeypatch, "tetradkit.forms", "_alt_blocks")
    _forbid(monkeypatch, "tetradkit.forms", "internal_wedge")

    def no_mixed_form(self, *args, **kwargs):
        raise AssertionError("a MixedForm was made")

    monkeypatch.setattr(MixedForm, "__init__", no_mixed_form)
    sc = builtin_scenario(name)
    points = sample_points(sc.chart, runner.CHUNK, 0)
    jets = pointjets.PointJets(sc.tetrad, sc.connection, points, sc.matter)
    for check in CHECKS:  # all 15, levi-civita-torsion too
        rngs = [runner._aux_rng((0, i), check.name) for i in range(len(points))]
        check.evaluate(jets, *runner._random_jets(rngs, check.draws))
    assert run_checks(sc, points=runner.CHUNK + 5, seed=0).overall_pass
