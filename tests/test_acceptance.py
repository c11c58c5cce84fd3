"""Acceptance gate: one test per shipped guarantee, run with pytest -v.

Each test pins the tolerance it advertises, so this file doubles as the
contract for what a release must deliver.  Everything here goes through
public surfaces only: builtin scenarios, the check runner, the CLI, and
the residual functions themselves.
"""

import json

import numpy as np

from tetradkit.cli import main as cli_main
from tetradkit.exprkit import eval_jet, parse_expression
from tetradkit.fieldeqs import (
    MatterModel,
    torsion_equation_sides,
)
from tetradkit.forms import ETA, MixedForm, covariant_exterior_derivative
from tetradkit.geometry import LeviCivitaConnection
from tetradkit.identities import (
    conservation_component_residuals,
    conservation_form_residuals,
    d_squared_residual,
    first_bianchi_residual,
    metric_compatibility_residual,
    rewritten_lhs_check,
    second_bianchi_residual,
)
from tetradkit.jets import Jet
from tetradkit.pointjets import PointJets
from tetradkit.runner import emit_report, report_document, run_checks, sample_points
from tetradkit.scenarios import BUILTIN_NAMES, builtin_scenario

from helpers import (
    UNIT_CHART,
    curvature_scalar,
    identity_tetrad,
    random_connection,
    random_smooth_text,
    random_tetrad,
    ricci,
)
from frames import ZeroConnection, lorentz_transform
from reference import finite_difference_oracle
from test_geometry import boost_field, rotation_field
from test_identities import boosted_flat_connection, random_form_jet


def _amax(arr) -> float:
    return float(np.max(np.abs(arr)))


def metric(e, x) -> np.ndarray:
    return PointJets(e, ZeroConnection(), [x]).metric(0).value[0]


def test_c01_flat_frame_degenerates_to_zero():
    sc = builtin_scenario("minkowski")
    e, omega = sc.tetrad, sc.connection
    worst = 0.0
    for x in sample_points(sc.chart, 100, 0):
        jets = PointJets(e, omega, [x])
        for arr in (
            jets.christoffel(0).value,
            jets.field_strength(0).value,
            jets.riemann(0).value,
            ricci(jets),
            jets.einstein(0).value,
            jets.torsion(0).value,
            jets.torsion_tensor(0).value,
        ):
            worst = max(worst, _amax(arr))
        worst = max(worst, abs(curvature_scalar(jets)))
    report = run_checks(sc, points=100, seed=0)
    assert report.overall_pass and not report.errors
    residuals = [r.max_residual for r in report.results]
    assert all(v is not None for v in residuals)
    assert max(worst, *residuals) < 1e-12


def test_c02_schwarzschild_vacuum_curvature():
    sc = builtin_scenario("schwarzschild")
    e, omega = sc.tetrad, sc.connection
    worst_ricci = worst_einstein = worst_quad = 0.0
    for x in sample_points(sc.chart, 100, 0):
        jets = PointJets(e, omega, [x])
        g = jets.metric(0).value[0]
        ginv = np.linalg.inv(g)
        low = np.einsum("mnwa,as->mnws", jets.riemann(0).value[0], g)
        quad = float(
            np.einsum("mnws,ma,nb,wc,sd,abcd->", low, ginv, ginv, ginv, ginv, low)
        )
        expect = 48.0 / x[0] ** 6
        worst_ricci = max(worst_ricci, _amax(ricci(jets)))
        worst_einstein = max(worst_einstein, _amax(jets.einstein(0).value))
        worst_quad = max(worst_quad, abs(quad - expect) / expect)
    assert worst_ricci < 1e-8
    assert worst_einstein < 1e-8
    assert worst_quad < 1e-6


def test_c03_second_structure_identity_randomized():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        omega = random_connection(rng)
        for x in sample_points(UNIT_CHART, 100, trial):
            jets = PointJets(identity_tetrad(), omega, [x])
            worst = max(worst, _amax(second_bianchi_residual(jets).value))
    assert worst < 1e-10


def test_c04_first_structure_identity_randomized():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(400 + trial)
        e = random_tetrad(rng)
        omega = random_connection(rng)
        for x in sample_points(UNIT_CHART, 100, trial):
            worst = max(worst, _amax(first_bianchi_residual(PointJets(e, omega, [x])).value))
    assert worst < 1e-10


def test_c05_twice_applied_derivative_is_curvature_action():
    cases = [((1,), 0), ((-1,), 0), ((1, -1), 0), ((1,), 1)]
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(500 + trial)
        omega = random_connection(rng)
        variances, k = cases[trial % len(cases)]
        for x in sample_points(UNIT_CHART, 3, trial)[:, None]:
            alpha = random_form_jet(rng, k + len(variances), x)
            jets = PointJets(identity_tetrad(), omega, x)
            res = d_squared_residual(jets, alpha, k, variances)
            worst = max(worst, _amax(res.value))
    assert worst < 1e-10

    flat = boosted_flat_connection()
    rng = np.random.default_rng(555)
    worst = 0.0
    for x in sample_points(UNIT_CHART, 5, 5)[:, None]:
        alpha = MixedForm._wrap(1, 1, random_form_jet(rng, 2, x))
        wj = flat.jet(x, 2, [None])
        once = covariant_exterior_derivative(wj, alpha, (1,))
        twice = covariant_exterior_derivative(wj, once, (1,))
        worst = max(worst, twice.max_abs())
    assert worst < 1e-11


def test_c06_solved_connection_has_no_torsion():
    worst = 0.0
    for name in BUILTIN_NAMES:
        sc = builtin_scenario(name)
        e = sc.tetrad
        lc = LeviCivitaConnection(e)
        for x in sample_points(sc.chart, 100, sc.seed):
            worst = max(worst, _amax(PointJets(e, lc, [x]).torsion(0).value))
    assert worst < 1e-12

    sc = builtin_scenario("flat-polar")
    e, omega = sc.tetrad, sc.connection
    step = 1e-5
    for x in sample_points(sc.chart, 5, 6):
        gamma = PointJets(e, omega, [x]).christoffel(0).value[0]
        r = x[0]
        assert abs(gamma[0, 1, 1] + r) < 1e-10
        assert abs(gamma[1, 0, 1] - 1.0 / r) < 1e-10
        dg = np.zeros((4, 4, 4))
        for axis in range(4):
            hi = np.array(x, dtype=float)
            lo = np.array(x, dtype=float)
            hi[axis] += step
            lo[axis] -= step
            dg[axis] = (metric(e, hi) - metric(e, lo)) / (2 * step)
        low = 0.5 * (
            np.einsum("mln->lmn", dg) + np.einsum("nlm->lmn", dg) - dg
        )
        oracle = np.einsum(
            "sl,lmn->smn", np.linalg.inv(metric(e, x)), low
        )
        scale = max(1.0, _amax(oracle))
        assert _amax(gamma - oracle) / scale < 1e-6


def test_c07_derivative_and_algebraic_routes_agree():
    worst = 0.0
    for name in BUILTIN_NAMES:
        sc = builtin_scenario(name)
        e, omega = sc.tetrad, sc.connection
        for x in sample_points(sc.chart, 100, sc.seed):
            lhs, rhs = torsion_equation_sides(PointJets(e, omega, [x]))
            worst = max(worst, _amax((lhs - rhs).value))
    assert worst < 1e-12


def test_c08_expanded_equation_sides_vanish():
    for name in ("schwarzschild", "flat-contorsion"):
        sc = builtin_scenario(name)
        e, omega = sc.tetrad, sc.connection
        worst = 0.0
        for x in sample_points(sc.chart, 50, 8):
            first, second = rewritten_lhs_check(PointJets(e, omega, [x]))
            worst = max(worst, _amax(first.value), _amax(second.value))
        assert worst < 1e-9, name


class PerturbedStress(MatterModel):
    """Manufactured sources with a constant stress offset, for fault runs."""

    def __init__(self, eps, bump):
        super().__init__("manufactured")
        self._eps = float(eps)
        self._bump = np.asarray(bump, dtype=float)

    def stress_jet(self, jets, order):
        base = super().stress_jet(jets, order)
        return base + Jet.constant(np.broadcast_to(self._eps * self._bump, base.value.shape), base.order)


def test_c09_conservation_laws_and_fault_response():
    def worst_residual(e, omega, matter, pts):
        worst = 0.0
        for x in pts:
            jets = PointJets(e, omega, [x], matter)
            fr = conservation_form_residuals(jets)
            cr = conservation_component_residuals(jets)
            worst = max(
                worst,
                _amax(fr.stress.value),
                _amax(fr.spin.value),
                _amax(cr.stress),
                _amax(cr.spin),
            )
        return worst

    for name in ("flrw", "schwarzschild", "flat-contorsion"):
        sc = builtin_scenario(name)
        e, omega = sc.tetrad, sc.connection
        matter = MatterModel("manufactured")
        pts = sample_points(sc.chart, 100, 9)
        assert worst_residual(e, omega, matter, pts) < 1e-7, name

    sc = builtin_scenario("flat-contorsion")
    e, omega = sc.tetrad, sc.connection
    bump = np.zeros((4, 4))
    bump[0, 1] = 1.0
    bump[2, 3] = 0.7
    bump[1, 1] = 0.4
    pts = sample_points(sc.chart, 10, 99)
    slopes = []
    for eps in (1e-4, 1e-3):
        perturbed = PerturbedStress(eps, bump)
        slopes.append(worst_residual(e, omega, perturbed, pts) / eps)
    assert min(slopes) > 1e-7
    assert abs(slopes[1] - slopes[0]) <= 0.2 * max(slopes)


def test_c10_local_frame_changes_preserve_invariants():
    rng = np.random.default_rng(1000)
    e = random_tetrad(rng)
    omega = random_connection(rng)
    fields = [
        boost_field("0.3*x0 + 0.1*x2"),
        rotation_field("0.4*x1 - 0.2*x3"),
        boost_field("0.25*x3"),
        rotation_field("0.5*x0*x1"),
        boost_field("0.2*x1 + 0.2*x2 - 0.1*x0"),
    ]

    def torsion_square(ef, wf, x):
        jets = PointJets(ef, wf, [x])
        theta = jets.torsion(0).value[0]
        g_inv = jets.inverse_metric(0).value[0]
        return float(np.einsum("amn,brs,ab,mr,ns->", theta, theta, ETA, g_inv, g_inv))

    pts = sample_points(UNIT_CHART, 10, 10)
    for lam in fields:
        e2, w2 = lorentz_transform(e, omega, lam)
        for x in pts:
            j1 = PointJets(e, omega, [x])
            j2 = PointJets(e2, w2, [x])
            assert _amax(j2.metric(0).value - j1.metric(0).value) < 1e-10
            assert abs(j2.determinant(0).value[0] - j1.determinant(0).value[0]) < 1e-10
            assert abs(curvature_scalar(j2) - curvature_scalar(j1)) < 1e-10
            assert abs(torsion_square(e2, w2, x) - torsion_square(e, omega, x)) < 1e-10
            lv = lam.jet([x], 0, [None]).value[0]
            conjugated = np.einsum(
                "ac,bd,cdmn->abmn", lv, lv, j1.field_strength(0).value[0]
            )
            assert _amax(j2.field_strength(0).value[0] - conjugated) < 1e-10

    gauge = boost_field("0.4*x0 - 0.3*x1")
    _, wg = lorentz_transform(identity_tetrad(), ZeroConnection(), gauge)
    for x in pts:
        f = PointJets(identity_tetrad(), wg, [x]).field_strength(0).value
        assert _amax(f) < 1e-10


def test_c11_metric_compatibility_everywhere():
    worst = 0.0
    for name in BUILTIN_NAMES:
        sc = builtin_scenario(name)
        e, omega = sc.tetrad, sc.connection
        for x in sample_points(sc.chart, 100, sc.seed):
            worst = max(worst, _amax(metric_compatibility_residual(PointJets(e, omega, [x]))))
    assert worst < 1e-10


def test_c12_jets_match_difference_quotients():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for i in range(200):
        text = random_smooth_text(rng)
        expr = parse_expression(text, UNIT_CHART)
        x = rng.uniform(-0.9, 0.9, size=4)
        order = 3 if i % 4 == 0 else 2
        jet = eval_jet(expr, [x], order, [None])
        fd = finite_difference_oracle(expr, x, order, step=1e-5)
        scale = max(1.0, *(float(np.max(np.abs(d))) for d in jet.data))
        for k in range(order + 1):
            worst = max(worst, _amax(jet.data[k] - fd.data[k]) / scale)
    assert worst < 1e-6


def test_c13_reports_deterministic_and_exact(tmp_path, capsys):
    sc = builtin_scenario("flat-contorsion")
    rep = run_checks(sc, points=25, seed=3)
    doc1 = report_document(rep)
    doc2 = report_document(run_checks(sc, points=25, seed=3))
    doc1.pop("wall_time_seconds")
    doc2.pop("wall_time_seconds")
    assert doc1 == doc2
    assert json.loads(json.dumps(doc1)) == doc1

    path = tmp_path / "report.json"
    emit_report(rep, "json", path)
    assert json.loads(path.read_text()) == report_document(rep)

    assert cli_main(["check", "--builtin", "minkowski", "--points", "3"]) == 0
    assert (
        cli_main(
            [
                "check",
                "--builtin",
                "random-fields",
                "--points",
                "3",
                "--tol",
                "d2-law=1e-30",
            ]
        )
        == 1
    )
    assert cli_main(["check", "--builtin", "no-such-scenario"]) == 2
    capsys.readouterr()
