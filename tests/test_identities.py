import numpy as np
import numpy.testing as npt
import pytest

from tetradkit.exprkit import eval_jet_grid, parse_expression
from tetradkit.fieldeqs import MatterModel, determinant_jet
from tetradkit import jets as jets_module
import reference
from frames import LorentzField, TransformedConnection, ZeroConnection
from tetradkit.forms import (
    EPSILON,
    DegreeError,
    MixedForm,
    covariant_D,
    covariant_exterior_derivative,
    eta_lower,
    twisted_divergence,
    two_form_dual,
)
from tetradkit.geometry import (
    LeviCivitaConnection,
    SingularTetradError,
    SummedConnection,
    TetradField,
    field_strength_jet,
    metric_jet,
)
from tetradkit.identities import (
    commutator_residual,
    conservation_component_residuals,
    conservation_form_residuals,
    curvature_wedge_action,
    d_squared_residual,
    first_bianchi_residual,
    metric_compatibility_residual,
    rewritten_lhs_check,
    second_bianchi_residual,
    spin_potential_tensor,
)
from tetradkit.jets import Jet, jet_einsum
from tetradkit.pointjets import PointJets
from tetradkit.scenarios import builtin_scenario

from helpers import (
    PAIR_KEYS,
    UNIT_CHART,
    flrw_tetrad,
    identity_tetrad,
    random_connection,
    random_contorsion,
    random_matter,
    random_polynomial_text,
    random_tetrad,
    schwarzschild_tetrad,
)

# each a chunk of one
POINTS = [
    np.array([[0.2, -0.1, 0.3, -0.2]]),
    np.array([[-0.4, 0.25, -0.15, 0.1]]),
    np.array([[0.05, 0.4, 0.2, -0.35]]),
]


def _amax(jet: Jet) -> float:
    return float(np.abs(jet.value).max())


def contorted_levi_civita(rng, scale=0.25):
    e = random_tetrad(rng, scale=0.1)
    return e, SummedConnection(LeviCivitaConnection(e), random_contorsion(rng, scale))


def boosted_flat_connection():
    ch = "0.5*(exp(0.3*x0) + exp(0 - 0.3*x0))"
    sh = "0.5*(exp(0.3*x0) - exp(0 - 0.3*x0))"
    lam = LorentzField(
        [
            [ch, "0", "0", sh],
            ["0", "1", "0", "0"],
            ["0", "0", "1", "0"],
            [sh, "0", "0", ch],
        ],
        UNIT_CHART,
    )
    return TransformedConnection(ZeroConnection(), lam)


def random_form_jet(rng, shape_dims, point, order=2):
    grid = [random_polynomial_text(rng, UNIT_CHART, scale=0.5) for _ in range(4 ** shape_dims)]

    def nest(flat, dims):
        if dims == 0:
            return parse_expression(flat[0], UNIT_CHART)
        step = len(flat) // 4
        return [nest(flat[i * step : (i + 1) * step], dims - 1) for i in range(4)]

    return eval_jet_grid(nest(grid, shape_dims), point, order, [None])


class TestSecondBianchi:
    def test_zero_connection_exact(self):
        res = second_bianchi_residual(PointJets(identity_tetrad(), ZeroConnection(), POINTS[0]))
        assert _amax(res) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_connection(self, seed):
        rng = np.random.default_rng(seed)
        omega = random_connection(rng)
        for point in POINTS:
            res = second_bianchi_residual(PointJets(identity_tetrad(), omega, point))
            f = field_strength_jet(omega.jet(point, 1, [None]))
            scale = max(1.0, float(np.abs(f.value).max()))
            assert _amax(res) < 1e-10 * scale

    def test_corrupted_field_strength_detected(self):
        rng = np.random.default_rng(7)
        omega = random_connection(rng)
        point = POINTS[0]
        wj = omega.jet(point, 2, [None])
        f = field_strength_jet(wj)
        bump = np.zeros((4, 4, 4, 4))
        for (a, b), (m, n), s in (
            ((0, 1), (2, 3), 1.0),
            ((1, 0), (2, 3), -1.0),
            ((0, 1), (3, 2), -1.0),
            ((1, 0), (3, 2), 1.0),
        ):
            bump[a, b, m, n] = s * 1e-3
        broken = f + Jet.constant(bump[None], f.order)
        res = twisted_divergence(eta_lower(wj, 1), two_form_dual(broken, 2), (1, 1))
        assert _amax(res) > 1e-4

    def test_result_degrees(self):
        res = second_bianchi_residual(PointJets(identity_tetrad(), random_connection(np.random.default_rng(3)), POINTS[1]))
        # an internal-pair 3-form, by its dual vector [a, b, mu]
        assert res.comp_shape == (4, 4, 4)


class TestFirstBianchi:
    def test_flat_exact(self):
        res = first_bianchi_residual(PointJets(identity_tetrad(), ZeroConnection(), POINTS[0]))
        assert _amax(res) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        e = random_tetrad(rng)
        omega = random_connection(rng)
        for point in POINTS:
            res = first_bianchi_residual(PointJets(e, omega, point))
            assert _amax(res) < 1e-10

    def test_levi_civita_connection(self):
        rng = np.random.default_rng(9)
        e = random_tetrad(rng)
        res = first_bianchi_residual(PointJets(e, LeviCivitaConnection(e), POINTS[0]))
        assert _amax(res) < 1e-10

    def test_schwarzschild(self):
        e = schwarzschild_tetrad()
        omega = LeviCivitaConnection(e)
        point = np.array([[5.2, 1.1, 0.7, 0.0]])
        assert _amax(first_bianchi_residual(PointJets(e, omega, point))) < 1e-10


class TestRewrittenLhs:
    def test_flat_exact(self):
        first, second = rewritten_lhs_check(PointJets(identity_tetrad(), ZeroConnection(), POINTS[0]))
        assert _amax(first) == 0.0
        assert _amax(second) == 0.0

    def test_schwarzschild(self):
        e = schwarzschild_tetrad()
        omega = LeviCivitaConnection(e)
        for point in ([5.2, 1.1, 0.7, 0.0], [3.4, 2.0, 4.1, 0.3]):
            first, second = rewritten_lhs_check(PointJets(e, omega, np.array([point])))
            assert _amax(first) < 1e-9
            assert _amax(second) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_contorted_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        e, omega = contorted_levi_civita(rng)
        for point in POINTS:
            first, second = rewritten_lhs_check(PointJets(e, omega, point))
            assert _amax(first) < 1e-9
            assert _amax(second) < 1e-9

    def test_second_identity_sign_is_pinned(self):
        # Flipping the measured sign of the half-wedge term must break the
        # identity by a margin far above tolerance on torsionful fields.
        rng = np.random.default_rng(4)
        e, omega = contorted_levi_civita(rng)
        point = POINTS[0]
        _, second = rewritten_lhs_check(PointJets(e, omega, point))
        ej = e.jet(point, 2, [None])
        wj = omega.jet(point, 2, [None])
        from tetradkit.fieldeqs import curvature_three_form, torsion_three_form
        from tetradkit.geometry import torsion_jet
        from tetradkit.identities import _stress_coframe_wedge

        s3 = torsion_three_form(torsion_jet(ej, eta_lower(wj, 1)), ej)
        ds = twisted_divergence(eta_lower(wj, 1), s3, (-1, -1))
        p3 = curvature_three_form(ej, field_strength_jet(wj))
        pe = _stress_coframe_wedge(p3, ej)
        flipped = ds + pe.scaled(0.5).truncated(ds.order)
        assert np.abs(ds.value).max() > 1e-6
        assert _amax(second) < 1e-12
        assert np.abs(flipped.value).max() > 0.1 * np.abs(ds.value).max()

    def test_singular_tetrad_is_recorded(self):
        texts = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
        texts[2][2] = "x0"
        e = TetradField(texts, UNIT_CHART)
        jets = PointJets(e, random_connection(np.random.default_rng(0)), np.array([[0.0, 0.3, 0.1, 0.2]]))
        faults = jets.record()
        rewritten_lhs_check(jets)
        assert isinstance(faults[0], SingularTetradError)


class TestConservationForm:
    def test_vacuum_identically_zero(self):
        rng = np.random.default_rng(1)
        e, omega = contorted_levi_civita(rng)
        res = conservation_form_residuals(PointJets(e, omega, POINTS[0], MatterModel.vacuum()))
        assert _amax(res.stress) == 0.0
        assert _amax(res.spin) == 0.0

    def test_manufactured_flrw(self):
        e = flrw_tetrad()
        omega = LeviCivitaConnection(e)
        matter = MatterModel("manufactured")
        for point in POINTS:
            res = conservation_form_residuals(PointJets(e, omega, point, matter))
            assert _amax(res.stress) < 1e-8
            assert _amax(res.spin) < 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_manufactured_contorted(self, seed):
        rng = np.random.default_rng(seed)
        e, omega = contorted_levi_civita(rng)
        matter = MatterModel("manufactured")
        for point in POINTS:
            res = conservation_form_residuals(PointJets(e, omega, point, matter))
            assert _amax(res.stress) < 1e-8
            assert _amax(res.spin) < 1e-8

    def test_off_shell_matter_reports_defect(self):
        rng = np.random.default_rng(5)
        e, omega = contorted_levi_civita(rng)
        matter = random_matter(rng)
        res = conservation_form_residuals(PointJets(e, omega, POINTS[0], matter))
        assert _amax(res.stress) > 1e-3

    def test_residual_is_affine_in_the_sources(self):
        # Perturbing the stress expressions by eps moves the residual
        # linearly: second differences vanish and the slope is nonzero.
        rng = np.random.default_rng(6)
        e, omega = contorted_levi_civita(rng)
        base = [
            [random_polynomial_text(rng, UNIT_CHART, scale=0.5) for _ in range(4)]
            for _ in range(4)
        ]
        bump = [
            [random_polynomial_text(rng, UNIT_CHART, scale=0.5) for _ in range(4)]
            for _ in range(4)
        ]
        spin = {key: ["0"] * 4 for key in PAIR_KEYS}
        def residual_at(eps):
            texts = [
                [f"({base[i][j]}) + eps*({bump[i][j]})" for j in range(4)]
                for i in range(4)
            ]
            matter = MatterModel.explicit(texts, spin, UNIT_CHART, params={"eps": eps})
            return conservation_form_residuals(PointJets(e, omega, POINTS[1], matter)).stress

        r0 = residual_at(0.0).value
        r1 = residual_at(1e-3).value
        r2 = residual_at(2e-3).value
        slope = r1 - r0
        assert np.abs(slope).max() > 1e-7
        npt.assert_allclose(r2 - r0, 2.0 * slope, atol=1e-12)


class TestFourFormCoefficients:
    """The two three-form laws return the 0123 coefficients of the 4-forms
    that the long way builds densely from the dense 3-forms
    (``reference.three_form_laws``), and build no dense 4-form on the way."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coefficients_are_the_dense_forms_0123_entries(self, seed):
        rng = np.random.default_rng(seed)
        e, omega = contorted_levi_civita(rng)
        matter = random_matter(rng)
        for point in POINTS:
            jets = PointJets(e, omega, point, matter)
            sources = conservation_form_residuals(jets)
            e1, kappa = jets.e(1), matter.kappa
            stress = (jets.stress(1), jets.inverse_tetrad(1), jets.inverse_metric(1), jets.determinant(1))
            cases = (
                (
                    rewritten_lhs_check(jets),
                    reference.curvature_three_form(e1, jets.field_strength(1)),
                    reference.torsion_three_form(jets.torsion(1), e1),
                ),
                (
                    (sources.stress, sources.spin),
                    reference.stress_three_form(*stress, kappa),
                    reference.spin_three_form(jets.spin(1), e1, kappa),
                ),
            )
            for coeffs, vec3, pair3 in cases:
                for coeff, dense in zip(coeffs, reference.three_form_laws(jets, vec3, pair3)):
                    want = dense.value[..., 0, 1, 2, 3]
                    atol = 1e-13 * max(1.0, np.abs(dense.value).max())
                    npt.assert_allclose(coeff.value, want, rtol=0, atol=atol)
                    # a 4-form is its coefficient times the alternating symbol
                    npt.assert_allclose(
                        dense.value, np.multiply.outer(want, EPSILON), rtol=0, atol=atol
                    )
            # off-shell matter: the source laws compare numbers of order one
            assert np.abs(sources.stress.value).max() > 1e-3

    @pytest.mark.parametrize("law", [rewritten_lhs_check, conservation_form_residuals])
    def test_no_product_above_component_rank_four(self, monkeypatch, law):
        rng = np.random.default_rng(3)
        e, omega = contorted_levi_civita(rng)
        jets = PointJets(e, omega, POINTS[0], random_matter(rng))
        law(jets)
        specs = [spec for spec, _ in _products(monkeypatch, lambda: law(jets))]
        assert specs
        assert max(len(spec.split("->")[1]) for spec in specs) <= 4, specs


class TestConservationComponent:
    def test_vacuum_zero(self):
        rng = np.random.default_rng(2)
        e, omega = contorted_levi_civita(rng)
        res = conservation_component_residuals(PointJets(e, omega, POINTS[0], MatterModel.vacuum()))
        npt.assert_array_equal(res.stress, np.zeros((1, 4)))
        npt.assert_array_equal(res.spin, np.zeros((1, 4, 4)))

    def test_manufactured_schwarzschild(self):
        e = schwarzschild_tetrad()
        omega = LeviCivitaConnection(e)
        matter = MatterModel("manufactured")
        for point in ([5.2, 1.1, 0.7, 0.0], [8.5, 0.9, 2.2, -0.4]):
            res = conservation_component_residuals(PointJets(e, omega, np.array([point]), matter))
            assert np.abs(res.stress).max() < 1e-7
            assert np.abs(res.spin).max() < 1e-7

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_manufactured_contorted(self, seed):
        rng = np.random.default_rng(seed)
        e, omega = contorted_levi_civita(rng)
        matter = MatterModel("manufactured")
        for point in POINTS:
            res = conservation_component_residuals(PointJets(e, omega, point, matter))
            assert np.abs(res.stress).max() < 1e-12
            assert np.abs(res.spin).max() < 1e-12

    def test_symmetric_stress_without_spin(self):
        rng = np.random.default_rng(8)
        e, omega = contorted_levi_civita(rng)
        half = [
            [random_polynomial_text(rng, UNIT_CHART, scale=0.5) for _ in range(4)]
            for _ in range(4)
        ]
        sym = [
            [f"({half[i][j]}) + ({half[j][i]})" for j in range(4)]
            for i in range(4)
        ]
        matter = MatterModel.explicit(
            sym, {key: ["0"] * 4 for key in PAIR_KEYS}, UNIT_CHART
        )
        res = conservation_component_residuals(PointJets(e, omega, POINTS[2], matter))
        npt.assert_array_equal(res.spin, np.zeros((1, 4, 4)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_component_residuals_dualize_the_form_residuals(self, seed):
        # Two independent routes, tensor calculus against exterior calculus,
        # must land on the same numbers even for matter that solves nothing.
        rng = np.random.default_rng(seed)
        e, omega = contorted_levi_civita(rng)
        matter = random_matter(rng)
        for point in POINTS[:2]:
            comp = conservation_component_residuals(PointJets(e, omega, point, matter))
            forms = conservation_form_residuals(PointJets(e, omega, point, matter))
            ej = e.jet(point, 0, [None])
            emat = ej.value[0]
            det = determinant_jet(ej).value[0]
            gin = np.linalg.inv(metric_jet(ej).value[0])
            stress_coeff = forms.stress.value[0]
            mapped = gin @ (-(1.0 / det) * emat.T @ stress_coeff)
            npt.assert_allclose(mapped, comp.stress[0], atol=1e-12 * max(1.0, np.abs(comp.stress).max()))
            spin_coeff = forms.spin.value[0]
            mapped2 = -(1.0 / det) * np.einsum("am,bn,ab->mn", emat, emat, spin_coeff)
            npt.assert_allclose(mapped2, comp.spin[0], atol=1e-12 * max(1.0, np.abs(comp.spin).max()))

    def test_spin_potential_reduces_for_traceless_source(self):
        rng = np.random.default_rng(10)
        spin = rng.uniform(-1, 1, (4, 4, 4))
        spin = spin - np.transpose(spin, (1, 0, 2))
        # remove the vector trace so the potential is just the negation
        tau = np.einsum("mll->m", spin)
        delta = np.eye(4)
        spin = spin + (
            np.einsum("sm,n->mns", delta, tau) - np.einsum("sn,m->mns", delta, tau)
        ) / 3.0
        assert np.abs(np.einsum("mll->m", spin)).max() < 1e-12
        pot = spin_potential_tensor(Jet(0, [spin[None]]))
        npt.assert_allclose(pot.value[0], -spin, atol=1e-14)


class TestDSquared:
    @pytest.mark.parametrize("variances,dims", [((1,), 1), ((-1,), 1), ((1, -1), 2)])
    def test_matches_field_strength_action(self, variances, dims):
        rng = np.random.default_rng(0)
        omega = random_connection(rng)
        for point in POINTS:
            alpha = random_form_jet(rng, dims, point)
            res = d_squared_residual(PointJets(identity_tetrad(), omega, point), alpha, 0, variances)
            assert _amax(res) < 1e-10

    def test_one_form_alpha(self):
        rng = np.random.default_rng(3)
        omega = random_connection(rng)
        point = POINTS[0]
        alpha = random_form_jet(rng, 2, point)
        res = d_squared_residual(PointJets(identity_tetrad(), omega, point), alpha, 1, (1,))
        assert _amax(res) < 1e-10
        # an internal-vector 3-form, by its dual vector [a, mu]
        assert res.comp_shape == (4, 4)

    def test_flat_gauge_connection_annihilates(self):
        rng = np.random.default_rng(5)
        flat = boosted_flat_connection()
        for point in POINTS:
            alpha = MixedForm._wrap(1, 1, random_form_jet(rng, 2, point))
            wj = flat.jet(point, 2, [None])
            once = covariant_exterior_derivative(wj, alpha, (1,))
            twice = covariant_exterior_derivative(wj, once, (1,))
            assert twice.max_abs() < 1e-11

    def test_pure_spacetime_form_needs_no_action(self):
        rng = np.random.default_rng(6)
        omega = random_connection(rng)
        point = POINTS[1]
        raw = random_form_jet(rng, 2, point)
        anti = (raw - Jet(raw.order, [d.swapaxes(1, 2) for d in raw.data])).scaled(0.5)
        jets = PointJets(identity_tetrad(), omega, point)
        res = d_squared_residual(jets, anti, 2, ())
        # a 4-form, by its coefficient
        assert res.comp_shape == ()
        assert _amax(res) < 1e-10

    def test_variance_count_checked(self):
        rng = np.random.default_rng(7)
        point = POINTS[0]
        alpha = random_form_jet(rng, 2, point)
        with pytest.raises(DegreeError):
            curvature_wedge_action(
                field_strength_jet(random_connection(rng).jet(point, 1, [None])), alpha, 1, (1, 1)
            )


class TestCommutator:
    def test_matches_field_strength(self):
        rng = np.random.default_rng(1)
        omega = random_connection(rng)
        for point in POINTS:
            vj = random_form_jet(rng, 1, point)
            res = commutator_residual(PointJets(identity_tetrad(), omega, point), vj)
            assert max(np.abs(d).max() for d in res.data) < 1e-12

    def test_action_sign_is_pinned(self):
        # The residual compares against +F acting on the vector.  Check the
        # action itself is far from zero, so the opposite sign would leave a
        # residual of twice its size instead of machine noise.
        from tetradkit.forms import ETA

        rng = np.random.default_rng(2)
        omega = random_connection(rng)
        point = POINTS[0]
        vj = random_form_jet(rng, 1, point)
        wj = omega.jet(point, 2, [None])
        res = commutator_residual(PointJets(identity_tetrad(), omega, point), vj)
        f = field_strength_jet(wj)
        action = np.einsum("abmn,bc,c->amn", f.value[0], ETA, vj.value[0])
        assert max(np.abs(d).max() for d in res.data) < 1e-12
        assert np.abs(action).max() > 1e-3


class TestMetricCompatibility:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        e = random_tetrad(rng)
        omega = random_connection(rng)
        for point in POINTS:
            res = metric_compatibility_residual(PointJets(e, omega, point))
            assert np.abs(res).max() < 1e-12

    def test_rejects_symmetric_connection_junk(self):
        # a connection that is not antisymmetric in its internal pair does
        # not preserve the metric
        class Bad:
            def jet(self, points, order, faults):
                return Jet.constant(np.ones((len(points), 4, 4, 4)), order)

        res = metric_compatibility_residual(PointJets(identity_tetrad(), Bad(), POINTS[0]))
        assert np.abs(res).max() > 1.0

    def test_schwarzschild(self):
        e = schwarzschild_tetrad()
        res = metric_compatibility_residual(
            PointJets(e, LeviCivitaConnection(e), np.array([[5.2, 1.1, 0.7, 0.0]])),
        )
        assert np.abs(res).max() < 1e-12


def _products(monkeypatch, call) -> list[tuple[str, int]]:
    """The spec and derivative order K of every ``jet_einsum`` product that
    ``call`` builds: its Leibniz terms run through orders 0..K."""
    products = []
    plan = jets_module._einsum_plan

    def counting(spec, K, *shapes):
        products.append((spec, K))
        return plan(spec, K, *shapes)

    monkeypatch.setattr(jets_module, "_einsum_plan", counting)
    call()
    return products


def _product_orders(monkeypatch, call) -> list[int]:
    return [K for _, K in _products(monkeypatch, call)]


class TestNoDiscardedOrder:
    """Every product is built to the order its result keeps, and no deeper.
    A covariant derivative keeps one order less than its argument, so its
    connection terms stop there; everything else here is compared at the
    order of the residual.  The point's own derivations are made first, so
    only the function under test is counted."""

    def test_covariant_derivative(self, monkeypatch):
        rng = np.random.default_rng(0)
        omega = random_connection(rng).jet(POINTS[0], 2, [None])
        alpha = random_form_jet(rng, 2, POINTS[0])
        wmix = eta_lower(omega, 1)
        assert covariant_D(wmix, alpha, (1, -1)).order == 1
        assert _product_orders(monkeypatch, lambda: covariant_D(wmix, alpha, (1, -1))) == [1, 1]

    @pytest.mark.parametrize("law", [rewritten_lhs_check, conservation_form_residuals])
    def test_three_form_laws(self, monkeypatch, law):
        sc = builtin_scenario("random-fields")
        jets = PointJets(sc.tetrad, sc.connection, POINTS[0], sc.matter)
        law(jets)
        orders = _product_orders(monkeypatch, lambda: law(jets))
        assert orders and set(orders) == {0}

    def test_commutator(self, monkeypatch):
        # the first derivative keeps order 1 for the second; the second and
        # the field-strength action are compared at order 0
        rng = np.random.default_rng(1)
        jets = PointJets(identity_tetrad(), random_connection(rng), POINTS[0])
        vj = random_form_jet(rng, 1, POINTS[0])
        commutator_residual(jets, vj)
        assert _product_orders(monkeypatch, lambda: commutator_residual(jets, vj)) == [1, 0, 0]

    def test_d_squared(self, monkeypatch):
        # one product per internal slot in each of the two derivatives and
        # in the field-strength action
        rng = np.random.default_rng(2)
        jets = PointJets(identity_tetrad(), random_connection(rng), POINTS[0])
        alpha = random_form_jet(rng, 2, POINTS[0])
        d_squared_residual(jets, alpha, 0, (1, -1))
        orders = _product_orders(monkeypatch, lambda: d_squared_residual(jets, alpha, 0, (1, -1)))
        assert orders == [1, 1, 0, 0, 0, 0]
