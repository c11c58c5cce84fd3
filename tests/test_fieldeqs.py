import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from tetradkit.fieldeqs import (
    CURVATURE_DUAL_FACTOR,
    DEFAULT_KAPPA,
    EIGHT_PI,
    SIXTEEN_PI,
    FieldEquationError,
    MatterModel,
    SpinSourceField,
    _MULT_E4_TRACE,
    _MULT_EEF_TRACE,
    component_field_equation_residuals,
    curvature_equation_residual,
    curvature_three_form,
    determinant_jet,
    dual_component_projection,
    einstein_jet,
    pc_action_density,
    riemann_jet,
    spin_tensor_to_form,
    stress_tensor_to_form,
    torsion_equation_residual,
    torsion_equation_sides,
    torsion_three_form,
)
from tetradkit.forms import EPSILON, MixedForm, epsilon_trace, eta_lower, internal_wedge
from tetradkit.geometry import (
    GeometryError,
    LeviCivitaConnection,
    SingularTetradError,
    TetradField,
    field_strength_jet,
    inverse_tetrad_jet,
    metric_jet,
)
from tetradkit.jets import Jet, jet_einsum, jet_matrix_inverse
from tetradkit.pointjets import PointJets
from tetradkit.runner import sample_points
from tetradkit.scenarios import builtin_scenario

from frames import ZeroConnection
from reference import MULT_E_E, MULT_E_E_E, three_form_dual
from helpers import (
    UNIT_CHART,
    at,
    constant_connection,
    curvature_from_values,
    curvature_scalar,
    flrw_tetrad,
    identity_tetrad,
    random_connection,
    random_matter,
    random_tetrad,
    schwarzschild_tetrad,
)


def labeled_wedge(factors):
    """Spacetime wedge of labeled factors, by full alternation over slots.

    Each factor is (array, spacetime_degree) with any internal axes leading;
    the result keeps all internal axes first, then the merged spacetime
    block.  Deliberately brute force: the product of all slot permutations
    divided by the per-factor repetition count, with no shuffle shortcuts.
    """
    total_st = sum(n for _, n in factors)
    out, int_axes = None, 0
    for arr, n in factors:
        a_int = arr.ndim - n
        if out is None:
            out, int_axes = arr, a_int
            continue
        prev_st = out.ndim - int_axes
        out = np.tensordot(out, arr, axes=0)
        perm = (
            list(range(int_axes))
            + list(range(int_axes + prev_st, int_axes + prev_st + a_int))
            + list(range(int_axes, int_axes + prev_st))
            + list(range(int_axes + prev_st + a_int, out.ndim))
        )
        out = np.transpose(out, perm)
        int_axes += a_int
    acc = np.zeros_like(out)
    for perm in itertools.permutations(range(total_st)):
        sign = 1
        for i in range(total_st):
            for j in range(i + 1, total_st):
                if perm[i] > perm[j]:
                    sign = -sign
        acc += sign * np.transpose(out, list(range(int_axes)) + [int_axes + p for p in perm])
    rep = 1
    for _, n in factors:
        rep *= math.factorial(n)
    return acc / rep


def random_frame_values(rng):
    emat = np.eye(4) + 0.2 * rng.uniform(-1, 1, (4, 4))
    f = rng.uniform(-1, 1, (4, 4, 4, 4))
    f = f - np.transpose(f, (1, 0, 2, 3))
    f = f - np.transpose(f, (0, 1, 3, 2))
    return emat, f


def _labeled_wedge_jet(x: Jet, kx: int, y: Jet, ky: int) -> Jet:
    """``labeled_wedge`` of two order-1 jets at a chunk of one, the first
    derivatives by the Leibniz rule, with the derivative axis last."""
    (x0, x1), (y0, y1) = ([d[0] for d in jet.data] for jet in (x, y))
    ix = x0.ndim - kx
    dx = labeled_wedge([(np.moveaxis(x1, -1, 0), kx), (y0, ky)])
    dy = labeled_wedge([(x0, kx), (np.moveaxis(y1, -1, 0), ky)])
    value = labeled_wedge([(x0, kx), (y0, ky)])
    return Jet(1, [value[None], (np.moveaxis(dx, 0, -1) + np.moveaxis(dy, ix, -1))[None]])


def _random_jet(rng, shape, *antisymmetric_pairs):
    """A random order-1 jet at a chunk of one, antisymmetric in the given
    pairs of component axes."""
    data = [rng.uniform(-1, 1, (1,) + shape + (4,) * k) for k in range(2)]
    for i, j in antisymmetric_pairs:
        data = [d - np.swapaxes(d, 1 + i, 1 + j) for d in data]
    return Jet(1, data)


def _dual(arr: np.ndarray) -> np.ndarray:
    """``three_form_dual`` of a dense 3-form's components, internal axes first."""
    return three_form_dual(MixedForm._wrap(3, arr.ndim - 3, Jet(0, [arr[None]]))).value[0]


def _amax(jet: Jet) -> float:
    return float(np.abs(jet.value).max())


def _assert_epsilon_first(got, labeled, wedged, spec, multiple, scale=1.0):
    """``got``, a 3-form's dual vector, is the dual of ``scale`` times the
    epsilon contraction ``spec`` of the labeled wedge, and of the
    block-alternating wedge over its multiple, at every order."""
    assert got.order == labeled.order == wedged.order == 1
    for k in range(2):
        single = scale * np.einsum(spec, EPSILON, labeled.data[k][0])
        old = scale / multiple * np.einsum(spec, EPSILON, wedged.data[k][0])
        if k:
            # the derivative axis leads while the dual is taken
            single, old = np.moveaxis(single, -1, 0), np.moveaxis(old, -1, 0)
            want = [np.moveaxis(_dual(x), 0, -1) for x in (single, old)]
        else:
            want = [_dual(single), _dual(old)]
        npt.assert_allclose(got.data[k][0], want[0], rtol=0, atol=1e-13)
        npt.assert_allclose(got.data[k][0], want[1], rtol=0, atol=1e-13)


class TestWedgeMultiplicities:
    """Pin the block-alternation constants against literal permutation sums,
    and the epsilon-first 3-forms against both the single-labeling reading
    and the block-alternating wedge they replace."""

    def test_pair_wedge(self):
        emat, _ = random_frame_values(np.random.default_rng(0))
        mine = internal_wedge(MixedForm(1, 1, Jet(0, [emat[None]])), MixedForm(1, 1, Jet(0, [emat[None]]))).values[0]
        assert np.allclose(mine, MULT_E_E * labeled_wedge([(emat, 1), (emat, 1)]), atol=1e-12)

    def test_curvature_term(self):
        emat, f = random_frame_values(np.random.default_rng(1))
        mine = np.einsum(
            "abcd,bcdmnr->amnr",
            EPSILON,
            internal_wedge(MixedForm(1, 1, Jet(0, [emat[None]])), MixedForm(2, 2, Jet(0, [f[None]]))).values[0],
        )
        ref = np.einsum("abcd,bcdmnr->amnr", EPSILON, labeled_wedge([(emat, 1), (f, 2)]))
        assert np.allclose(mine, 3.0 * ref, atol=1e-12)

    def test_volume_3form_term(self):
        emat, _ = random_frame_values(np.random.default_rng(2))
        ef = MixedForm(1, 1, Jet(0, [emat[None]]))
        mine = np.einsum(
            "abcd,bcdmnr->amnr", EPSILON, internal_wedge(internal_wedge(ef, ef), ef).values[0]
        )
        ref = np.einsum("abcd,bcdmnr->amnr", EPSILON, labeled_wedge([(emat, 1)] * 3))
        assert np.allclose(mine, MULT_E_E_E * ref, atol=1e-12)

    def test_torsion_source_term(self):
        rng = np.random.default_rng(3)
        emat, _ = random_frame_values(rng)
        beta = rng.uniform(-1, 1, (4, 4, 4))
        beta = beta - np.transpose(beta, (0, 2, 1))
        mine = np.einsum(
            "abcd,cdmnr->abmnr",
            EPSILON,
            internal_wedge(MixedForm(2, 1, Jet(0, [beta[None]])), MixedForm(1, 1, Jet(0, [emat[None]]))).values[0],
        )
        ref = np.einsum("abcd,cdmnr->abmnr", EPSILON, labeled_wedge([(beta, 2), (emat, 1)]))
        assert np.allclose(mine, -2.0 * ref, atol=1e-12)

    def test_curvature_three_form_is_epsilon_first(self):
        rng = np.random.default_rng(11)
        e = _random_jet(rng, (4, 4))
        f = _random_jet(rng, (4, 4, 4, 4), (0, 1), (2, 3))
        wedged = internal_wedge(MixedForm(1, 1, e), MixedForm(2, 2, f)).jet
        _assert_epsilon_first(
            curvature_three_form(e, f),
            _labeled_wedge_jet(e, 1, f, 2),
            wedged,
            "abcd,bcd...->a...",
            3.0,
        )

    def test_torsion_three_form_is_epsilon_first(self):
        rng = np.random.default_rng(12)
        e = _random_jet(rng, (4, 4))
        theta = _random_jet(rng, (4, 4, 4), (1, 2))
        wedged = internal_wedge(MixedForm(2, 1, theta), MixedForm(1, 1, e)).jet
        _assert_epsilon_first(
            torsion_three_form(theta, e),
            _labeled_wedge_jet(theta, 2, e, 1),
            wedged,
            "abcd,cd...->ab...",
            -2.0,
        )

    def test_spin_form_is_epsilon_first(self):
        # sigma^c_mn = e^c_s s_mn^s, scaled by -16 pi / kappa
        rng = np.random.default_rng(13)
        e = _random_jet(rng, (4, 4))
        spin = _random_jet(rng, (4, 4, 4), (0, 1))
        sigma = jet_einsum("cs,mns->cmn", e, spin)
        wedged = internal_wedge(MixedForm(2, 1, sigma), MixedForm(1, 1, e)).jet
        _assert_epsilon_first(
            spin_tensor_to_form(spin, e, DEFAULT_KAPPA),
            _labeled_wedge_jet(sigma, 2, e, 1),
            wedged,
            "abcd,cd...->ab...",
            -2.0,
            scale=-SIXTEEN_PI / DEFAULT_KAPPA,
        )

    def test_action_traces(self):
        emat, f = random_frame_values(np.random.default_rng(4))
        ef = MixedForm(1, 1, Jet(0, [emat[None]]))
        ee = internal_wedge(ef, ef)
        mine_geo = 24.0 * epsilon_trace(internal_wedge(ee, MixedForm(2, 2, Jet(0, [f[None]])))).values[0]
        ref_geo = np.einsum("abcd,abcdmnrs->mnrs", EPSILON, labeled_wedge([(emat, 1), (emat, 1), (f, 2)]))
        assert np.allclose(mine_geo, _MULT_EEF_TRACE * ref_geo, atol=1e-10)
        mine_vol = 24.0 * epsilon_trace(internal_wedge(ee, ee)).values[0]
        ref_vol = np.einsum("abcd,abcdmnrs->mnrs", EPSILON, labeled_wedge([(emat, 1)] * 4))
        assert np.allclose(mine_vol, _MULT_E4_TRACE * ref_vol, atol=1e-10)
        assert np.isclose(ref_vol[0, 1, 2, 3], 24.0 * np.linalg.det(emat), atol=1e-10)


class TestDeterminantJet:
    def test_matches_product_rule_on_diagonal(self):
        from tetradkit.exprkit import eval_jet, parse_expression

        texts = [["0"] * 4 for _ in range(4)]
        diag = ["1 + 0.2*x0", "exp(0.3*x1)", "2 + x2*x3", "1 - 0.1*x0*x1"]
        for i in range(4):
            texts[i][i] = diag[i]
        e = TetradField(texts, UNIT_CHART)
        point = np.array([0.2, -0.4, 0.3, 0.5])
        got = determinant_jet(at(e, point, 3))
        want = eval_jet(
            parse_expression("(" + ")*(".join(diag) + ")", UNIT_CHART), [point], 3, [None]
        )
        for k in range(4):
            assert np.allclose(got.data[k], want.data[k], atol=1e-12)

    @pytest.mark.parametrize("name", ["flat-polar", "schwarzschild", "flrw", "random-fields"])
    def test_matches_permutation_sum(self, name):
        # reference: the Leibniz sum over all 24 permutations of scalar jet
        # products; the contraction sums in another order, so agreement is
        # to a tolerance set from the dtype
        e = builtin_scenario(name).tetrad
        for x in sample_points(builtin_scenario(name).chart, 3, 0):
            ej = at(e, x, 3)
            comps = [[Jet(ej.order, [d[:, a, m] for d in ej.data]) for m in range(4)] for a in range(4)]
            want = None
            for perm in itertools.permutations(range(4)):
                term = comps[0][perm[0]] * comps[1][perm[1]] * comps[2][perm[2]] * comps[3][perm[3]]
                term = term.scaled(float(EPSILON[perm]))
                want = term if want is None else want + term
            got = determinant_jet(ej)
            for k in range(4):
                scale = max(1.0, float(np.abs(want.data[k]).max()))
                assert np.abs(got.data[k] - want.data[k]).max() <= 64 * np.finfo(float).eps * scale

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(5)
        e = random_tetrad(rng)
        point = np.array([0.1, 0.2, -0.3, 0.4])
        det = determinant_jet(at(e, point, 2))
        assert np.isclose(det.value[0], np.linalg.det(at(e, point, 0).value[0]), atol=1e-12)


class TestActionDensity:
    def test_flat_zero(self):
        assert pc_action_density(PointJets(identity_tetrad(), ZeroConnection(), np.zeros((1, 4))), 0.0).tolist() == [0.0]

    def test_identity_tetrad_cosmological_term(self):
        # the epsilon contraction of the quadruple frame wedge, summed by
        # brute force over both index orderings, fixes the combinatorial
        # factor: 24 * det e, so the density is lam * det e
        lam = 2.5
        point = np.array([0.3, -0.1, 0.2, 0.1])
        (got,) = pc_action_density(PointJets(identity_tetrad(), ZeroConnection(), [point]), lam)
        brute = 0.0
        emat = np.eye(4)
        for pi in itertools.permutations(range(4)):
            for rho in itertools.permutations(range(4)):
                brute += (
                    EPSILON[pi] * EPSILON[rho]
                    * emat[pi[0], rho[0]] * emat[pi[1], rho[1]]
                    * emat[pi[2], rho[2]] * emat[pi[3], rho[3]]
                )
        assert np.isclose(got, (lam / 24.0) * brute, atol=1e-12)
        assert np.isclose(got, lam, atol=1e-12)

    def test_cosmological_term_general_tetrad(self):
        rng = np.random.default_rng(6)
        e = random_tetrad(rng)
        lam = -1.7
        point = np.array([0.2, 0.4, -0.1, -0.3])
        emat = at(e, point, 0).value[0]
        brute = 0.0
        for pi in itertools.permutations(range(4)):
            for rho in itertools.permutations(range(4)):
                brute += (
                    EPSILON[pi] * EPSILON[rho]
                    * emat[pi[0], rho[0]] * emat[pi[1], rho[1]]
                    * emat[pi[2], rho[2]] * emat[pi[3], rho[3]]
                )
        (got,) = pc_action_density(PointJets(e, ZeroConnection(), [point]), lam)
        assert np.isclose(got, (lam / 24.0) * brute, atol=1e-12)
        assert np.isclose(got, lam * np.linalg.det(emat), atol=1e-12)

    def test_curvature_ratio_constant_across_scenarios(self):
        # measured once on the exponential-scale frame and held fixed: the
        # geometric density is -1 times curvature scalar times det e for
        # every torsion-free frame
        ratio = -1.0
        cases = []
        flrw = flrw_tetrad()
        cases.append((flrw, LeviCivitaConnection(flrw), np.array([0.1, -0.2, 0.3, 0.4])))
        rng = np.random.default_rng(7)
        rnd = random_tetrad(rng)
        cases.append((rnd, LeviCivitaConnection(rnd), np.array([0.2, -0.3, 0.1, 0.4])))
        for e, w, point in cases:
            jets = PointJets(e, w, [point])
            (got,) = pc_action_density(jets, 0.0)
            want = ratio * curvature_scalar(jets) * jets.determinant(0).value[0]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        sch = schwarzschild_tetrad()
        spt = np.array([4.0, 1.1, 0.7, 0.2])
        assert abs(pc_action_density(PointJets(sch, LeviCivitaConnection(sch), [spt]), 0.0)[0]) < 1e-12

    def test_a_chunk_gives_one_density_per_point(self):
        # each point of a chunk gets the density of that point alone
        sc = builtin_scenario("flrw")
        points = sample_points(sc.chart, 3, 0)
        got = pc_action_density(PointJets(sc.tetrad, sc.connection, points), 0.7)
        assert got.shape == (3,)
        for i in range(3):
            alone = pc_action_density(PointJets(sc.tetrad, sc.connection, points[i : i + 1]), 0.7)
            assert got[i] == alone[0]

    def test_singular_tetrad_rejected(self):
        texts = [["x0" if i == j == 0 else ("1" if i == j else "0") for j in range(4)] for i in range(4)]
        e = TetradField(texts, UNIT_CHART)
        jets = PointJets(e, ZeroConnection(), np.array([[0.0] * 4, [0.5, 0.0, 0.0, 0.0]]))
        faults = jets.record()
        pc_action_density(jets, 0.0)
        assert isinstance(faults[0], SingularTetradError) and faults[1] is None


class TestCurvatureEquation:
    def test_flat_vacuum_exact_zero(self):
        E = curvature_equation_residual(PointJets(identity_tetrad(), ZeroConnection(), np.zeros((1, 4))))
        assert E.comp_shape == (4, 4)
        assert _amax(E) == 0.0

    def test_schwarzschild_vacuum(self):
        e = schwarzschild_tetrad()
        w = LeviCivitaConnection(e)
        for point in (np.array([3.0, 1.2, 0.5, 0.0]), np.array([7.5, 2.0, 3.0, 0.4]), np.array([10.0, 0.8, 1.5, -0.2])):
            E = curvature_equation_residual(PointJets(e, w, [point]))
            assert _amax(E) < 1e-8

    def test_manufactured_matter_cancels(self):
        rng = np.random.default_rng(8)
        e = random_tetrad(rng)
        w = random_connection(rng)
        matter = MatterModel("manufactured")
        for point in (np.array([0.1, -0.2, 0.3, 0.4]), np.array([-0.4, 0.2, 0.0, -0.1])):
            E = curvature_equation_residual(PointJets(e, w, [point], matter))
            assert _amax(E) < 1e-10

    def test_affine_in_cosmological_constant(self):
        rng = np.random.default_rng(9)
        e = random_tetrad(rng)
        w = random_connection(rng)
        point = np.array([0.3, 0.1, -0.2, 0.4])
        vals = [
            curvature_equation_residual(PointJets(e, w, [point], MatterModel.vacuum(lam=lam))).value[0]
            for lam in (0.0, 1.0, 2.0)
        ]
        scale = max(1.0, *(np.abs(v).max() for v in vals))
        assert np.abs(vals[2] - 2 * vals[1] + vals[0]).max() <= 1e-12 * scale
        # slope against an independently expanded volume 3-form
        emat = at(e, point, 0).value[0]
        slope_ref = _dual(np.einsum("abcd,bcdmnr->amnr", EPSILON, labeled_wedge([(emat, 1)] * 3)) / 6.0)
        assert np.abs((vals[1] - vals[0]) - slope_ref).max() <= 1e-12 * scale

class TestTorsionEquation:
    def test_torsion_free_vacuum(self):
        e = schwarzschild_tetrad()
        w = LeviCivitaConnection(e)
        C = torsion_equation_residual(PointJets(e, w, np.array([[4.0, 1.1, 0.7, 0.2]])))
        assert C.comp_shape == (4, 4, 4)
        assert _amax(C) < 1e-10

    def test_constant_contorsion_detected(self):
        # flat frame with a constant connection: sourceless torsion must
        # leave a nonzero residual, and exactly the epsilon contraction of
        # the torsion wedged against the frame
        kvals = np.zeros((4, 4, 4))
        kvals[0, 1, 2] = 0.7
        kvals[1, 0, 2] = -0.7
        kvals[2, 3, 1] = -0.4
        kvals[3, 2, 1] = 0.4
        e = identity_tetrad()
        w = constant_connection(kvals)
        point = np.array([0.1, 0.2, 0.3, 0.4])
        C = torsion_equation_residual(PointJets(e, w, [point]))
        assert _amax(C) > 0.1
        ej = at(e, point, 1)
        from tetradkit.geometry import torsion_jet

        theta = torsion_jet(ej, eta_lower(at(w, point, 0), 1)).value[0]
        ref = np.einsum("abcd,cdmnr->abmnr", EPSILON, labeled_wedge([(theta, 2), (ej.value[0], 1)]))
        assert np.allclose(C.value[0], _dual(ref), atol=1e-12)

    def test_manufactured_matter_cancels(self):
        rng = np.random.default_rng(12)
        e = random_tetrad(rng)
        w = random_connection(rng)
        C = torsion_equation_residual(PointJets(e, w, np.array([[0.2, -0.1, 0.3, 0.0]]), MatterModel("manufactured")))
        assert _amax(C) < 1e-10

    def test_product_rule_identity_holds_on_jets(self):
        # the derivative and algebraic routes to the left side agree to
        # rounding on random frames
        rng = np.random.default_rng(13)
        for _ in range(5):
            e = random_tetrad(rng, scale=0.15)
            w = random_connection(rng, scale=0.4)
            point = rng.uniform(-0.5, 0.5, (1, 4))
            lhs, rhs = torsion_equation_sides(PointJets(e, w, point))
            assert lhs.order == rhs.order == 0
            scale = max(1.0, _amax(lhs), _amax(rhs))
            assert _amax(lhs - rhs) <= 1e-12 * scale


class TestComponentResiduals:
    def test_flat_vacuum(self):
        res = component_field_equation_residuals(PointJets(identity_tetrad(), ZeroConnection(), np.zeros((1, 4))))
        assert np.abs(res.stress).max() == 0.0
        assert np.abs(res.spin).max() == 0.0

    def test_schwarzschild_vacuum(self):
        e = schwarzschild_tetrad()
        w = LeviCivitaConnection(e)
        res = component_field_equation_residuals(PointJets(e, w, np.array([[5.0, 1.4, 2.0, 0.3]])))
        assert np.abs(res.stress).max() < 1e-8
        assert np.abs(res.spin).max() < 1e-12

    def test_manufactured_matter_definitional(self):
        rng = np.random.default_rng(14)
        e = random_tetrad(rng)
        w = random_connection(rng)
        res = component_field_equation_residuals(PointJets(e, w, np.array([[0.3, -0.2, 0.1, 0.2]]), MatterModel("manufactured")))
        assert np.abs(res.stress).max() < 1e-12
        assert np.abs(res.spin).max() < 1e-12


class TestManufacturedMatter:
    def test_flat_sources_vanish(self):
        e, w = identity_tetrad(), ZeroConnection()
        jets = PointJets(e, w, np.array([[0.1, 0.2, 0.3, 0.4]]), MatterModel("manufactured"))
        assert np.abs(jets.stress(1).value).max() == 0.0
        assert np.abs(jets.spin(1).value).max() == 0.0

    def test_flrw_isotropy(self):
        hubble = 0.3
        e = flrw_tetrad(hubble)
        w = LeviCivitaConnection(e)
        point = np.array([0.2, -0.1, 0.4, 0.5])
        jets = PointJets(e, w, [point], MatterModel("manufactured"))
        spin = jets.spin(0).value[0]
        assert np.abs(spin).max() < 1e-12
        stress = jets.stress(0).value[0]
        off = stress - np.diag(np.diag(stress))
        assert np.abs(off).max() < 1e-12
        assert np.isclose(stress[0, 0], stress[1, 1], atol=1e-12)
        assert np.isclose(stress[1, 1], stress[2, 2], atol=1e-12)
        scale2 = math.exp(2 * hubble * point[3])
        assert np.isclose(stress[0, 0], 3 * hubble**2 * scale2 / EIGHT_PI, rtol=1e-10)

    def test_singular_frame_is_recorded_on_evaluation(self):
        texts = [["x0" if i == j == 0 else ("1" if i == j else "0") for j in range(4)] for i in range(4)]
        e, w = TetradField(texts, UNIT_CHART), ZeroConnection()
        jets = PointJets(e, w, np.zeros((1, 4)), MatterModel("manufactured"))
        faults = jets.record()
        jets.stress(0)
        assert isinstance(faults[0], SingularTetradError)


class TestDualProjection:
    def test_round_trip_inverts_exactly(self):
        rng = np.random.default_rng(15)
        e = random_tetrad(rng)
        point = np.array([0.2, 0.1, -0.3, 0.4])
        ej = at(e, point, 2)
        data = []
        for k in range(3):
            arr = rng.uniform(-1, 1, (4, 4) + (4,) * k)
            if k == 2:
                arr = 0.5 * (arr + np.transpose(arr, (0, 1, 3, 2)))
            data.append(arr[None])
        t_jet = Jet(2, data)
        # a point serves e^-1, det e and g^-1 through order 1 only with this
        # connection, so order 2 is derived here
        ginv = jet_matrix_inverse(metric_jet(ej), [None])
        form = stress_tensor_to_form(
            t_jet, inverse_tetrad_jet(ej, [None]), ginv, determinant_jet(ej), DEFAULT_KAPPA
        )
        faults = [None]
        back = dual_component_projection(form, ej, faults)
        assert faults == [None]
        # kappa * form projects to FACTOR * 8 pi * t; undo that scale
        factor = EIGHT_PI * CURVATURE_DUAL_FACTOR / DEFAULT_KAPPA
        for k in range(3):
            assert np.allclose(back.data[k] / factor, t_jet.data[k], atol=1e-10)

    def test_degree_guard(self):
        # the dual of an internal-pair 3-form is not an internal-vector one
        with pytest.raises(FieldEquationError):
            dual_component_projection(Jet.zeros((1, 4, 4, 4), 0), Jet(0, [np.eye(4)[None]]), [None])

    def test_factor_constant_across_scenarios(self):
        # the one global constant linking the two equation levels: the
        # projected curvature residual equals CURVATURE_DUAL_FACTOR times
        # the component stress residual, scenario independent
        cases = []
        rng = np.random.default_rng(16)
        e1 = random_tetrad(rng)
        w1 = random_connection(rng)
        cases.append((e1, w1, random_matter(rng), np.array([0.2, -0.1, 0.3, 0.1])))
        e2 = flrw_tetrad()
        cases.append((e2, LeviCivitaConnection(e2), MatterModel.vacuum(), np.array([0.1, 0.3, -0.2, 0.4])))
        e3 = schwarzschild_tetrad()
        cases.append((e3, LeviCivitaConnection(e3), MatterModel.vacuum(), np.array([6.0, 1.0, 2.5, 0.1])))
        e4 = random_tetrad(rng)
        w4 = random_connection(rng)
        cases.append((e4, w4, MatterModel("manufactured"), np.array([-0.2, 0.1, 0.2, -0.3])))
        for e, w, matter, point in cases:
            E = curvature_equation_residual(PointJets(e, w, [point], matter))
            comp = component_field_equation_residuals(PointJets(e, w, [point], matter))
            projected = dual_component_projection(E, at(e, point, 0), [None]).value
            want = CURVATURE_DUAL_FACTOR * comp.stress
            scale = max(1.0, np.abs(want).max())
            assert np.abs(projected - want).max() <= 1e-8 * scale


    def test_a_chunk_projects_each_point(self):
        # each point of a chunk is projected as alone; a singular frame
        # records its fault and leaves the other points as they are
        sc = builtin_scenario("flrw")
        points = sample_points(sc.chart, 3, 0)
        e = sc.tetrad.jet(points, 1, [None] * 3)
        dual = curvature_equation_residual(PointJets(sc.tetrad, sc.connection, points, sc.matter))
        faults = [None] * 3
        got = dual_component_projection(dual, e, faults)
        assert faults == [None] * 3
        for i in range(3):
            row = Jet(1, [d[i : i + 1] for d in e.data])
            alone = dual_component_projection(Jet(0, [dual.value[i : i + 1]]), row, [None])
            assert got.value[i].tobytes() == alone.value[0].tobytes()
        singular = Jet(1, [d.copy() for d in e.data])
        singular.data[0][1] = 0.0
        faults = [None] * 3
        carried = dual_component_projection(dual, singular, faults)
        assert isinstance(faults[1], SingularTetradError) and faults[0] is faults[2] is None
        assert carried.value[[0, 2]].tobytes() == got.value[[0, 2]].tobytes()


class TestMatterModel:
    def test_mode_validation(self):
        with pytest.raises(FieldEquationError):
            MatterModel("perfect-fluid")
        with pytest.raises(FieldEquationError):
            MatterModel.vacuum(kappa=0.0)

    def test_default_coupling(self):
        assert MatterModel.vacuum().kappa == DEFAULT_KAPPA
        assert MatterModel.vacuum(kappa=2.0).kappa == 2.0
        assert np.isclose(DEFAULT_KAPPA, EIGHT_PI * CURVATURE_DUAL_FACTOR)

    def test_explicit_stress_grid_checked_when_built(self):
        # a short grid fails here, not as a jet-shape error in a later run
        with pytest.raises(GeometryError, match="stress must be a 4x4 grid"):
            MatterModel.explicit([["0"] * 4 for _ in range(3)], {}, UNIT_CHART)

    def test_spin_entries_keyed_lower_pair_only(self):
        with pytest.raises(GeometryError):
            SpinSourceField({"10": ["1", "0", "0", "0"]}, UNIT_CHART)

    def test_explicit_spin_antisymmetry(self):
        matter = MatterModel.explicit(
            [["0"] * 4 for _ in range(4)],
            {"01": ["x0", "0", "1", "0"]},
            UNIT_CHART,
        )
        jets = PointJets(identity_tetrad(), ZeroConnection(), np.array([[0.5, 0.0, 0.0, 0.0]]), matter)
        s = jets.spin(0).value[0]
        assert s[0, 1, 0] == 0.5
        assert s[1, 0, 0] == -0.5
        assert s[0, 1, 2] == 1.0

    def test_vacuum_forms_zero(self):
        vac = MatterModel.vacuum()
        jets = PointJets(identity_tetrad(), ZeroConnection(), np.zeros((1, 4)))
        assert _amax(vac.stress_form(jets, 1)) == 0.0
        assert _amax(vac.spin_form(jets, 1)) == 0.0

    def test_explicit_matter_shifts_component_residuals(self):
        rng = np.random.default_rng(17)
        e = identity_tetrad()
        w = ZeroConnection()
        matter = random_matter(rng)
        point = np.array([[0.3, 0.2, -0.1, 0.4]])
        jets = PointJets(e, w, point, matter)
        res = component_field_equation_residuals(jets)
        want_stress = -EIGHT_PI * jets.stress(0).value
        want_spin = SIXTEEN_PI * jets.spin(0).value
        assert np.allclose(res.stress, want_stress, atol=1e-12)
        assert np.allclose(res.spin, want_spin, atol=1e-12)


class TestJetConsistency:
    def test_einstein_jet_matches_point_geometry(self):
        rng = np.random.default_rng(18)
        e = random_tetrad(rng)
        w = random_connection(rng)
        point = np.array([0.1, -0.3, 0.2, 0.4])
        jets = PointJets(e, w, [point])
        want = curvature_from_values(
            jets.e(0).value[0],
            jets.inverse_tetrad(0).value[0],
            jets.metric(0).value[0],
            jets.field_strength(0).value[0],
        )
        ej = at(e, point, 1)
        einv = inverse_tetrad_jet(ej, [None])
        f = field_strength_jet(at(w, point, 2))
        got = einstein_jet(riemann_jet(ej, einv, f), einv, metric_jet(ej), f)
        assert np.allclose(got.value[0], want.einstein, atol=1e-12)

    def test_spin_form_matches_torsion_route(self):
        # kappa times the manufactured spin form must reproduce the torsion
        # equation left side exactly, not just to tolerance
        rng = np.random.default_rng(20)
        e = random_tetrad(rng)
        w = random_connection(rng)
        matter = MatterModel("manufactured")
        point = np.array([[0.1, 0.2, 0.3, -0.2]])
        lhs = torsion_equation_residual(PointJets(e, w, point))
        sigma = PointJets(e, w, point, matter).spin_form(0)
        assert np.allclose(lhs.value, matter.kappa * sigma.value, atol=1e-12)
