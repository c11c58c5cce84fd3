"""Frame-field pipeline: metric, connection solve, curvature, torsion."""

import numpy as np
import numpy.testing as npt
import pytest

from helpers import (
    UNIT_CHART,
    constant_connection,
    curvature_scalar,
    identity_tetrad,
    random_connection,
    random_polynomial_text,
    random_tetrad,
    ricci,
    schwarzschild_tetrad,
)
from tetradkit.exprkit import Chart, eval_jet_grid, parse_expression
from tetradkit.forms import ETA, covariant_D
from tetradkit.geometry import (
    ContorsionField,
    GeometryError,
    LeviCivitaConnection,
    LorentzError,
    LorentzField,
    SingularTetradError,
    SpinConnectionField,
    SummedConnection,
    TetradField,
    ZeroConnection,
    christoffel_jet,
    inverse_tetrad_jet,
    lorentz_transform,
    metric_jet,
    torsion_jet,
)
from tetradkit.jets import Jet, jet_einsum, jet_partial
from tetradkit.pointjets import PointJets

POLAR = Chart(("r", "th", "z", "t"), ((0.5, 4.0), (0.1, 3.0), (-1.0, 1.0), (-1.0, 1.0)))
SCHW = Chart(("r", "th", "ph", "t"), ((2.5, 12.0), (0.3, 2.8), (0.0, 6.28), (-1.0, 1.0)))
FLRW = Chart(("x", "y", "z", "t"), ((-1.0, 1.0),) * 4)


def polar_tetrad():
    # flat space in cylindrical coordinates: frame rows dz, dr, r dth, dt
    return TetradField(
        [
            ["0", "0", "1", "0"],
            ["1", "0", "0", "0"],
            ["0", "r", "0", "0"],
            ["0", "0", "0", "1"],
        ],
        POLAR,
    )


def exponential_scale_tetrad(hubble=0.3):
    a = "exp(H*t)"
    return TetradField(
        [
            [a, "0", "0", "0"],
            ["0", a, "0", "0"],
            ["0", "0", a, "0"],
            ["0", "0", "0", "1"],
        ],
        FLRW,
        params={"H": hubble},
    )


def tetrad_jets(e, x):
    """The point's jets when only the tetrad matters."""
    return PointJets(e, ZeroConnection(), x)


def field_strength(omega, x):
    return PointJets(identity_tetrad(), omega, x).field_strength(0).value


class TestMetric:
    def test_identity_tetrad_gives_internal_metric(self):
        jets = tetrad_jets(identity_tetrad(), (0.1, 0.2, 0.3, 0.4))
        npt.assert_allclose(jets.metric(0).value, ETA, atol=1e-15)
        assert float(jets.determinant(0).value) == pytest.approx(1.0)

    def test_schwarzschild_values(self):
        g = tetrad_jets(schwarzschild_tetrad(chart=SCHW), (4.0, np.pi / 3, 1.0, 0.2)).metric(0).value
        npt.assert_allclose(
            np.diag(g), [2.0, 16.0, 12.0, -0.5], atol=1e-12,
            err_msg="diagonal metric entries at r=4, th=pi/3, M=1",
        )
        off = g - np.diag(np.diag(g))
        npt.assert_allclose(off, 0.0, atol=1e-14)

    def test_inverse_is_exact(self):
        rng = np.random.default_rng(101)
        e = random_tetrad(rng, scale=0.12)
        x = rng.uniform(-0.5, 0.5, 4)
        jets = tetrad_jets(e, x)
        npt.assert_allclose(
            jets.metric(0).value @ jets.inverse_metric(0).value, np.eye(4), atol=1e-12
        )

    def test_zero_row_is_singular(self):
        texts = [["1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
        e = TetradField(texts, UNIT_CHART)
        with pytest.raises(SingularTetradError):
            tetrad_jets(e, (0.0, 0.0, 0.0, 0.0)).inverse_tetrad(0)

    def test_det_sign_preserved(self):
        texts = [["-2", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
        det = tetrad_jets(TetradField(texts, UNIT_CHART), (0.0,) * 4).determinant(0)
        assert float(det.value) == pytest.approx(-2.0)


class TestInverseTetrad:
    def test_identity(self):
        einv = tetrad_jets(identity_tetrad(), (0.0,) * 4).inverse_tetrad(0).value
        npt.assert_allclose(einv, np.eye(4), atol=1e-15)

    def test_diagonal(self):
        texts = [["2", "0", "0", "0"], ["0", "4", "0", "0"], ["0", "0", "0.5", "0"], ["0", "0", "0", "1"]]
        out = tetrad_jets(TetradField(texts, UNIT_CHART), (0.0,) * 4).inverse_tetrad(0).value
        npt.assert_allclose(out, np.diag([0.5, 0.25, 2.0, 1.0]), atol=1e-14)

    def test_both_contractions(self):
        rng = np.random.default_rng(102)
        e = random_tetrad(rng, scale=0.12)
        x = rng.uniform(-0.5, 0.5, 4)
        ej = e.jet(x, 0)
        einv = tetrad_jets(e, x).inverse_tetrad(0).value
        npt.assert_allclose(np.einsum("am,mb->ab", ej.value, einv), np.eye(4), atol=1e-12)
        npt.assert_allclose(np.einsum("ma,an->mn", einv, ej.value), np.eye(4), atol=1e-12)


class TestCovariantD:
    def test_flat_connection_reduces_to_partial(self):
        rng = np.random.default_rng(103)
        x = rng.uniform(-0.5, 0.5, 4)
        exprs = [parse_expression(random_polynomial_text(rng, UNIT_CHART), UNIT_CHART) for _ in range(4)]
        alpha = eval_jet_grid(exprs, x, 2)
        omega = Jet.zeros((4, 4, 4), 2)
        out = covariant_D(omega, alpha, (+1,))
        npt.assert_allclose(out.value, alpha.data[1], atol=1e-15)

    def test_internal_metric_parallel(self):
        rng = np.random.default_rng(104)
        arr = rng.uniform(-1, 1, (4, 4, 4))
        omega = Jet.constant(arr - arr.transpose(1, 0, 2), 1)
        eta_jet = Jet.constant(ETA, 1)
        out = covariant_D(omega, eta_jet, (-1, -1))
        npt.assert_allclose(out.value, 0.0, atol=1e-14)

    def test_constant_data_hand_contraction(self):
        rng = np.random.default_rng(105)
        arr = rng.uniform(-1, 1, (4, 4, 4))
        w = arr - arr.transpose(1, 0, 2)
        alpha = rng.uniform(-1, 1, 4)
        out = covariant_D(Jet.constant(w, 1), Jet.constant(alpha, 1), (+1,))
        expect = np.einsum("acm,cb,b->am", w, ETA, alpha)
        npt.assert_allclose(out.value, expect, atol=1e-14)


class TestChristoffel:
    def test_flat_identity_vanishes(self):
        out = tetrad_jets(identity_tetrad(), (0.1, 0.2, 0.3, 0.4)).christoffel(0).value
        npt.assert_allclose(out, 0.0, atol=1e-15)

    def test_flat_polar_values(self):
        e = polar_tetrad()
        lc = LeviCivitaConnection(e)
        x = (1.7, 0.8, 0.3, 0.2)
        gamma = PointJets(e, lc, x).christoffel(0).value
        assert gamma[0, 1, 1] == pytest.approx(-1.7, abs=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(1.0 / 1.7, abs=1e-12)
        assert gamma[1, 1, 0] == pytest.approx(1.0 / 1.7, abs=1e-12)
        mask = np.ones((4, 4, 4), bool)
        mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = False
        npt.assert_allclose(gamma[mask], 0.0, atol=1e-12)

    def test_metric_compatibility(self):
        rng = np.random.default_rng(106)
        e = random_tetrad(rng, scale=0.12)
        omega = random_connection(rng)
        x = rng.uniform(-0.5, 0.5, 4)
        ej = e.jet(x, 1)
        gamma = christoffel_jet(ej, omega.jet(x, 1), inverse_tetrad_jet(ej)).value
        dg = jet_partial(metric_jet(ej)).value  # [m, n, s]
        grad = (
            np.einsum("mns->smn", dg)
            - np.einsum("rsm,rn->smn", gamma, metric_jet(ej).value)
            - np.einsum("rsn,mr->smn", gamma, metric_jet(ej).value)
        )
        scale = max(1.0, np.max(np.abs(gamma)))
        npt.assert_allclose(grad, 0.0, atol=1e-10 * scale,
                            err_msg="connection fails to preserve the metric")

    def test_antisymmetric_part_matches_torsion(self):
        rng = np.random.default_rng(107)
        e = random_tetrad(rng, scale=0.12)
        omega = random_connection(rng)
        x = rng.uniform(-0.5, 0.5, 4)
        jets = PointJets(e, omega, x)
        gamma = jets.christoffel(0).value
        q = jets.torsion_tensor(0).value
        npt.assert_allclose(
            (gamma - gamma.transpose(0, 2, 1)).transpose(1, 2, 0), q, atol=1e-12
        )


class TestFieldStrength:
    def test_single_constant_generator_is_flat(self):
        w = np.zeros((4, 4, 4))
        w[0, 1, 0], w[1, 0, 0] = 1.3, -1.3
        out = field_strength(constant_connection(w), (0.0,) * 4)
        npt.assert_allclose(out, 0.0, atol=1e-14)

    def test_coordinate_dependent_single_pair(self):
        entries = {"01": ["0", "0", "0", "sin(x0)"]}
        omega = SpinConnectionField(entries, UNIT_CHART)
        x = (0.4, 0.0, 0.0, 0.0)
        out = field_strength(omega, x)
        expect = np.zeros((4, 4, 4, 4))
        c = np.cos(0.4)
        expect[0, 1, 0, 3], expect[0, 1, 3, 0] = c, -c
        expect[1, 0, 0, 3], expect[1, 0, 3, 0] = -c, c
        npt.assert_allclose(out, expect, atol=1e-14)

    def test_constant_blocks_leave_commutator(self):
        rng = np.random.default_rng(108)
        arr = rng.uniform(-1, 1, (4, 4, 4))
        w = arr - arr.transpose(1, 0, 2)
        out = field_strength(constant_connection(w), (0.0,) * 4)
        comm = np.einsum("adm,de,ebn->abmn", w, ETA, w)
        expect = comm - comm.transpose(0, 1, 3, 2)
        npt.assert_allclose(out, expect, atol=1e-13)

    def test_antisymmetries_exact(self):
        rng = np.random.default_rng(109)
        omega = random_connection(rng)
        out = field_strength(omega, rng.uniform(-0.5, 0.5, 4))
        npt.assert_allclose(out + out.transpose(1, 0, 2, 3), 0.0, atol=1e-14)
        npt.assert_allclose(out + out.transpose(0, 1, 3, 2), 0.0, atol=1e-14)


class TestTorsion:
    def test_levi_civita_torsion_free(self):
        for e in (polar_tetrad(), schwarzschild_tetrad(chart=SCHW)):
            lc = LeviCivitaConnection(e)
            rng = np.random.default_rng(110)
            for _ in range(5):
                x = [rng.uniform(lo + 0.1, hi - 0.1) for lo, hi in e.chart.bounds]
                theta = PointJets(e, lc, x).torsion(0).value
                npt.assert_allclose(theta, 0.0, atol=1e-12)

    def test_constant_connection_brute_force(self):
        c = 0.7
        w = np.zeros((4, 4, 4))
        w[0, 1, 2], w[1, 0, 2] = c, -c
        e = identity_tetrad()
        x = (0.0,) * 4
        jets = PointJets(e, constant_connection(w), x)
        expect = np.einsum("abm,bc,cn->amn", w, ETA, np.eye(4))
        expect = expect - expect.transpose(0, 2, 1)
        npt.assert_allclose(jets.torsion(0).value, expect, atol=1e-14)
        npt.assert_allclose(
            jets.torsion_tensor(0).value,
            np.einsum("sa,amn->mns", np.eye(4), expect),
            atol=1e-14,
        )

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(111)
        e = random_tetrad(rng, scale=0.12)
        omega = random_connection(rng)
        jets = PointJets(e, omega, rng.uniform(-0.5, 0.5, 4))
        theta = jets.torsion(0).value
        q = jets.torsion_tensor(0).value
        npt.assert_allclose(theta + theta.transpose(0, 2, 1), 0.0, atol=1e-16)
        npt.assert_allclose(q + q.transpose(1, 0, 2), 0.0, atol=1e-16)


class TestPairKeys:
    @pytest.mark.parametrize("key", [(0, 1), "\uff10\uff11"], ids=["tuple", "fullwidth-digits"])
    def test_key_other_than_two_ascii_digits_rejected(self, key):
        with pytest.raises(GeometryError, match="keys are two digits like '01'"):
            SpinConnectionField({key: ["0"] * 4}, UNIT_CHART)

    def test_each_field_names_its_symbol(self):
        for cls, symbol in ((SpinConnectionField, "omega"), (ContorsionField, "K")):
            with pytest.raises(GeometryError, match=rf"^{symbol} entry {symbol}\^\{{02\}} component x1"):
                cls({"02": ["0", "q", "0", "0"]}, UNIT_CHART)


class TestLeviCivita:
    def test_identity_tetrad_gives_zero(self):
        lc = LeviCivitaConnection(identity_tetrad())
        npt.assert_allclose(lc.jet((0.2, 0.1, -0.3, 0.0), 2).value, 0.0, atol=1e-14)

    def test_flat_polar_single_component(self):
        lc = LeviCivitaConnection(polar_tetrad())
        w = lc.jet((1.7, 0.8, 0.3, 0.2), 0).value
        expect = np.zeros((4, 4, 4))
        expect[1, 2, 1], expect[2, 1, 1] = -1.0, 1.0
        npt.assert_allclose(w, expect, atol=1e-13,
                            err_msg="planar rotation connection of the polar frame")

    def test_schwarzschild_residual_many_points(self):
        e = schwarzschild_tetrad(chart=SCHW)
        lc = LeviCivitaConnection(e)
        rng = np.random.default_rng(112)
        for _ in range(10):
            x = (rng.uniform(3.0, 10.0), rng.uniform(0.5, 2.6), rng.uniform(0.5, 5.5), rng.uniform(-0.5, 0.5))
            theta = PointJets(e, lc, x).torsion(0).value
            npt.assert_allclose(theta, 0.0, atol=1e-12)

    def test_derivatives_match_finite_differences(self):
        e = schwarzschild_tetrad(chart=SCHW)
        lc = LeviCivitaConnection(e)
        x = np.array([4.5, 1.1, 2.0, 0.1])
        jet = lc.jet(x, 2)
        h = 1e-5
        for direction in range(2):  # the frame only varies in r and th
            step = np.zeros(4)
            step[direction] = h
            plus = lc.jet(x + step, 1)
            minus = lc.jet(x - step, 1)
            fd1 = (plus.value - minus.value) / (2 * h)
            npt.assert_allclose(jet.data[1][..., direction], fd1, atol=1e-8)
            fd2 = (plus.data[1] - minus.data[1]) / (2 * h)
            npt.assert_allclose(jet.data[2][..., direction], fd2, atol=1e-8)

    def test_random_tetrad_unique_and_torsion_free(self):
        rng = np.random.default_rng(113)
        e = random_tetrad(rng, scale=0.12)
        lc = LeviCivitaConnection(e)
        x = rng.uniform(-0.5, 0.5, 4)
        for k in range(3):
            theta = torsion_jet(e.jet(x, k + 1), lc.jet(x, k))
            for d in theta.data:
                npt.assert_allclose(d, 0.0, atol=1e-13)
        w = lc.jet(x, 0)
        # the torsion is linear in the connection, and the map from the 24
        # independent components to the 24 torsion components is invertible,
        # so any antisymmetric perturbation must re-introduce torsion
        bump = np.zeros((4, 4, 4))
        bump[0, 2, 1], bump[2, 0, 1] = 1e-3, -1e-3
        perturbed = Jet(0, [w.value + bump])
        assert np.max(np.abs(torsion_jet(e.jet(x, 1), perturbed).value)) > 1e-5

    def test_order_cap(self):
        lc = LeviCivitaConnection(identity_tetrad())
        with pytest.raises(GeometryError):
            lc.jet((0.0,) * 4, 3)


class TestCurvatureTensors:
    def test_flat_zero(self):
        jets = tetrad_jets(identity_tetrad(), (0.0,) * 4)
        npt.assert_allclose(jets.riemann(0).value, 0.0, atol=1e-15)
        assert curvature_scalar(jets) == 0.0

    def test_schwarzschild_vacuum(self):
        e = schwarzschild_tetrad(chart=SCHW)
        lc = LeviCivitaConnection(e)
        rng = np.random.default_rng(114)
        for _ in range(5):
            x = (rng.uniform(3.0, 10.0), rng.uniform(0.5, 2.6), 1.0, 0.0)
            assert np.max(np.abs(ricci(PointJets(e, lc, x)))) < 1e-8, f"vacuum violated at {x}"

    def test_schwarzschild_quadratic_invariant(self):
        e = schwarzschild_tetrad(chart=SCHW)
        lc = LeviCivitaConnection(e)
        rng = np.random.default_rng(115)
        for _ in range(5):
            x = (rng.uniform(3.0, 10.0), rng.uniform(0.5, 2.6), 1.0, 0.0)
            jets = PointJets(e, lc, x)
            g_inv = jets.inverse_metric(0).value
            rlow = np.einsum("mnws,sl->mnwl", jets.riemann(0).value, jets.metric(0).value)
            rup = np.einsum("ma,nb,wc,ld,abcd->mnwl", g_inv, g_inv, g_inv, g_inv, rlow)
            invariant = np.einsum("mnwl,mnwl->", rlow, rup)
            expect = 48.0 / x[0] ** 6
            npt.assert_allclose(invariant, expect, rtol=1e-6,
                                err_msg="curvature-squared invariant off the closed form")

    def test_constant_curvature_background(self):
        # exponential scale factor: with this sign convention the scalar is
        # -12 H^2, the Ricci tensor -3 H^2 g, the einstein tensor +3 H^2 g
        hubble = 0.3
        e = exponential_scale_tetrad(hubble)
        lc = LeviCivitaConnection(e)
        jets = PointJets(e, lc, (0.2, -0.3, 0.1, 0.4))
        g = jets.metric(0).value
        npt.assert_allclose(curvature_scalar(jets), -12.0 * hubble**2, rtol=1e-10)
        npt.assert_allclose(ricci(jets), -3.0 * hubble**2 * g, atol=1e-12)
        npt.assert_allclose(jets.einstein(0).value, 3.0 * hubble**2 * g, atol=1e-12)

    def test_scalar_routes_consistent(self):
        rng = np.random.default_rng(116)
        e = random_tetrad(rng, scale=0.12)
        omega = random_connection(rng)
        x = rng.uniform(-0.5, 0.5, 4)
        jets = PointJets(e, omega, x)
        einv = jets.inverse_tetrad(0).value
        scalar = -float(np.einsum("ma,wb,abmw->", einv, einv, jets.field_strength(0).value))
        check = curvature_scalar(jets)
        assert scalar == pytest.approx(check, abs=1e-10 * max(1.0, abs(scalar)))


class TestContorsion:
    def test_zero_contorsion_is_identity(self):
        rng = np.random.default_rng(117)
        omega = random_connection(rng)
        summed = SummedConnection(omega, ZeroConnection())
        x = rng.uniform(-0.5, 0.5, 4)
        npt.assert_allclose(summed.jet(x, 1).value, omega.jet(x, 1).value, atol=1e-16)

    def test_torsion_shift_is_linear(self):
        rng = np.random.default_rng(118)
        e = random_tetrad(rng, scale=0.12)
        lc = LeviCivitaConnection(e)
        arr = rng.uniform(-1, 1, (4, 4, 4))
        kappa_term = arr - arr.transpose(1, 0, 2)
        summed = SummedConnection(lc, constant_connection(kappa_term))
        x = rng.uniform(-0.5, 0.5, 4)
        theta = PointJets(e, summed, x).torsion(0).value
        contrib = np.einsum("abm,bc,cn->amn", kappa_term, ETA, e.jet(x, 0).value)
        expect = contrib - contrib.transpose(0, 2, 1)
        npt.assert_allclose(theta, expect, atol=1e-12,
                            err_msg="torsion should shift by exactly the contorsion wedge")

    def test_successive_contorsions_add(self):
        rng = np.random.default_rng(119)
        base = random_connection(rng)
        k1 = ContorsionField({"01": ["0.3", "0", "x1", "0"]}, UNIT_CHART)
        k2 = ContorsionField({"12": ["0", "x0", "0", "0.5"]}, UNIT_CHART)
        x = rng.uniform(-0.5, 0.5, 4)
        ab = SummedConnection(SummedConnection(base, k1), k2)
        ba = SummedConnection(SummedConnection(base, k2), k1)
        npt.assert_allclose(ab.jet(x, 1).value, ba.jet(x, 1).value, atol=1e-16)


def rotation_field(angle_text):
    return LorentzField(
        [
            ["1", "0", "0", "0"],
            ["0", f"cos({angle_text})", f"sin({angle_text})", "0"],
            ["0", f"0 - sin({angle_text})", f"cos({angle_text})", "0"],
            ["0", "0", "0", "1"],
        ],
        UNIT_CHART,
    )


def boost_field(rapidity_text):
    ch = f"0.5*(exp({rapidity_text}) + exp(0 - ({rapidity_text})))"
    sh = f"0.5*(exp({rapidity_text}) - exp(0 - ({rapidity_text})))"
    return LorentzField(
        [
            [ch, "0", "0", sh],
            ["0", "1", "0", "0"],
            ["0", "0", "1", "0"],
            [sh, "0", "0", ch],
        ],
        UNIT_CHART,
    )


class TestLorentzTransform:
    def test_identity_rotation_is_noop(self):
        rng = np.random.default_rng(120)
        e = random_tetrad(rng, scale=0.12)
        omega = random_connection(rng)
        lam = rotation_field("0")
        e2, w2 = lorentz_transform(e, omega, lam)
        x = rng.uniform(-0.5, 0.5, 4)
        npt.assert_allclose(e2.jet(x, 1).value, e.jet(x, 1).value, atol=1e-14)
        npt.assert_allclose(w2.jet(x, 1).value, omega.jet(x, 1).value, atol=1e-13)

    def test_constant_boost_conjugates_connection(self):
        rng = np.random.default_rng(121)
        omega = random_connection(rng)
        lam = boost_field("0.4")
        _, w2 = lorentz_transform(identity_tetrad(), omega, lam)
        x = rng.uniform(-0.5, 0.5, 4)
        lam_val = lam.jet(x, 0).value
        expect = np.einsum("ac,bd,cdm->abm", lam_val, lam_val, omega.jet(x, 0).value)
        npt.assert_allclose(w2.jet(x, 0).value, expect, atol=1e-12)

    def test_pure_gauge_connection_is_flat(self):
        lam = rotation_field("0.4*x0 + 0.2*x3")
        _, w2 = lorentz_transform(identity_tetrad(), ZeroConnection(), lam)
        rng = np.random.default_rng(122)
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, 4)
            f = field_strength(w2, x)
            npt.assert_allclose(f, 0.0, atol=1e-10,
                                err_msg="derivative-term connection must carry no curvature")

    def test_metric_and_det_invariant(self):
        rng = np.random.default_rng(123)
        e = random_tetrad(rng, scale=0.12)
        lam = rotation_field("0.3*x1")
        e2, _ = lorentz_transform(e, ZeroConnection(), lam)
        x = rng.uniform(-0.5, 0.5, 4)
        d1 = tetrad_jets(e, x)
        d2 = tetrad_jets(e2, x)
        npt.assert_allclose(d2.metric(0).value, d1.metric(0).value, atol=1e-10)
        det1, det2 = (float(d.determinant(0).value) for d in (d1, d2))
        assert det2 == pytest.approx(det1, rel=1e-10)

    def test_field_strength_transforms_tensorially(self):
        rng = np.random.default_rng(124)
        omega = random_connection(rng)
        lam = rotation_field("0.5*x0")
        _, w2 = lorentz_transform(identity_tetrad(), omega, lam)
        x = rng.uniform(-0.5, 0.5, 4)
        f2 = field_strength(w2, x)
        lam_val = lam.jet(x, 0).value
        expect = np.einsum("ac,bd,cdmn->abmn", lam_val, lam_val, field_strength(omega, x))
        npt.assert_allclose(f2, expect, atol=1e-10)

    def test_scalar_curvature_invariant(self):
        e = schwarzschild_tetrad(chart=SCHW)
        lc = LeviCivitaConnection(e)
        lam = LorentzField(
            [
                ["1", "0", "0", "0"],
                ["0", "cos(0.2*r)", "sin(0.2*r)", "0"],
                ["0", "0 - sin(0.2*r)", "cos(0.2*r)", "0"],
                ["0", "0", "0", "1"],
            ],
            SCHW,
        )
        e2, w2 = lorentz_transform(e, lc, lam)
        x = (4.5, 1.2, 2.0, 0.1)
        scalar1 = curvature_scalar(PointJets(e, lc, x))
        scalar2 = curvature_scalar(PointJets(e2, w2, x))
        assert scalar2 == pytest.approx(scalar1, abs=1e-10)

    def test_torsion_norm_invariant(self):
        rng = np.random.default_rng(125)
        e = random_tetrad(rng, scale=0.12)
        omega = random_connection(rng)
        lam = rotation_field("0.4*x2")
        e2, w2 = lorentz_transform(e, omega, lam)
        x = rng.uniform(-0.5, 0.5, 4)

        def torsion_square(ef, wf):
            jets = PointJets(ef, wf, x)
            theta = jets.torsion(0).value
            g_inv = jets.inverse_metric(0).value
            return float(np.einsum("amn,brs,ab,mr,ns->", theta, theta, ETA, g_inv, g_inv))

        assert torsion_square(e2, w2) == pytest.approx(torsion_square(e, omega), abs=1e-10)

    def test_rejects_non_orthogonal_field(self):
        lam = LorentzField(
            [
                ["1", "0.2", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
                ["0", "0", "0", "1"],
            ],
            UNIT_CHART,
        )
        with pytest.raises(LorentzError):
            lam.jet((0.0,) * 4, 1)


class TestPointGeometry:
    def test_commutator_identity_with_torsion(self):
        rng = np.random.default_rng(127)
        e = random_tetrad(rng, scale=0.12)
        omega = random_connection(rng)
        vec_exprs = [
            parse_expression(random_polynomial_text(rng, UNIT_CHART, scale=0.4), UNIT_CHART)
            for _ in range(4)
        ]
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, 4)
            jets = PointJets(e, omega, x)
            gamma1 = christoffel_jet(jets.e(2), jets.omega(2), jets.inverse_tetrad(2))
            gamma = gamma1.value
            vec = eval_jet_grid(vec_exprs, x, 2)
            # first covariant derivative as a jet, components [s, n]
            grad = jet_partial(vec) + jet_einsum("snr,r->sn", gamma1, vec.truncated(1))
            dgrad = jet_partial(grad).value  # [s, n, m]
            second = (
                np.einsum("snm->smn", dgrad)
                + np.einsum("smr,rn->smn", gamma, grad.value)
                - np.einsum("lmn,sl->smn", gamma, grad.value)
            )
            lhs = second - second.transpose(0, 2, 1)
            rhs = np.einsum("mnws,w->smn", jets.riemann(0).value, vec.value) - np.einsum(
                "mnl,sl->smn", jets.torsion_tensor(0).value, grad.value
            )
            scale = max(1.0, np.max(np.abs(second)))
            npt.assert_allclose(lhs, rhs, atol=1e-8 * scale,
                                err_msg="curvature-torsion commutator relation violated")
