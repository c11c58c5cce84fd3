"""Mixed-form algebra: wedge grading, epsilon contractions, derivatives."""

import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import UNIT_CHART
from tetradkit.exprkit import eval_jet, eval_jet_grid, parse_expression
from tetradkit.forms import (
    EPSILON,
    ETA,
    AntisymmetryError,
    DegreeError,
    MixedForm,
    covariant_exterior_derivative,
    epsilon_trace,
    eta_lower,
    exterior_derivative,
    interior_product,
    internal_wedge,
    raise_lower,
)
from tetradkit.jets import Jet, _perm_sign


def random_form(rng, k, p, order=0):
    """Random mixed form at one point, a chunk of one; derivative axes
    symmetrized, index blocks projected."""
    shape = (4,) * (p + k)
    data = [rng.uniform(-1.0, 1.0, shape)]
    nc = p + k
    for m in range(1, order + 1):
        arr = rng.uniform(-1.0, 1.0, shape + (4,) * m)
        if m >= 2:
            acc = np.zeros_like(arr)
            for perm in itertools.permutations(range(m)):
                acc += np.transpose(arr, list(range(nc)) + [nc + s for s in perm])
            arr = acc / math.factorial(m)
        data.append(arr)
    projected = []
    for arr in data:
        for start, n in ((0, p), (p, k)):
            acc = np.zeros_like(arr)
            for perm in itertools.permutations(range(n)):
                axes = list(range(start)) + [start + s for s in perm] + list(range(start + n, arr.ndim))
                acc += _perm_sign(perm) * np.transpose(arr, axes)
            arr = acc / math.factorial(n)
        projected.append(arr[None])
    return MixedForm(k, p, Jet(order, projected))


def random_omega(rng, order=1):
    """Random antisymmetric-pair connection jet with components [a, b, mu]
    at one point."""
    shape = (4, 4, 4)
    data = []
    for m in range(order + 1):
        arr = rng.uniform(-1.0, 1.0, shape + (4,) * m)
        arr = arr - np.swapaxes(arr, 0, 1)
        if m >= 2:
            acc = np.zeros_like(arr)
            for perm in itertools.permutations(range(m)):
                acc += np.transpose(arr, [0, 1, 2] + [3 + s for s in perm])
            arr = acc / math.factorial(m)
        data.append(arr[None])
    return Jet(order, data)


def form_from_exprs(texts, point, order, k):
    exprs = [parse_expression(t, UNIT_CHART) for t in texts]
    return MixedForm(k, 0, eval_jet_grid(exprs, [point], order, [None]))


class TestWedgeGrading:
    DEGREE_PAIRS = [
        ((1, 0), (1, 0)),
        ((1, 0), (2, 0)),
        ((2, 0), (2, 0)),
        ((0, 1), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 1), (1, 1)),
        ((1, 1), (2, 1)),
        ((2, 0), (1, 2)),
        ((0, 2), (1, 1)),
        ((2, 2), (1, 1)),
        ((1, 2), (1, 2)),
        ((3, 1), (1, 3)),
    ]

    @pytest.mark.parametrize("dx,dy", DEGREE_PAIRS)
    def test_commutation_sign(self, dx, dy):
        rng = np.random.default_rng(11 + 7 * dx[0] + 3 * dy[1])
        x = random_form(rng, *dx)
        y = random_form(rng, *dy)
        sign = (-1) ** ((dx[0] + dx[1]) * (dy[0] + dy[1]))
        left = internal_wedge(x, y).values
        right = sign * internal_wedge(y, x).values
        npt.assert_allclose(left, right, atol=1e-12, err_msg=f"grading failed for {dx} ^ {dy}")

    @pytest.mark.parametrize(
        "da,db,dc",
        [
            ((1, 0), (1, 0), (2, 0)),
            ((1, 1), (1, 1), (1, 1)),
            ((0, 1), (1, 2), (1, 1)),
            ((1, 0), (0, 2), (2, 1)),
            ((2, 1), (1, 2), (1, 1)),
        ],
    )
    def test_associativity(self, da, db, dc):
        rng = np.random.default_rng(xor_seed(da, db, dc))
        a, b, c = random_form(rng, *da), random_form(rng, *db), random_form(rng, *dc)
        left = internal_wedge(internal_wedge(a, b), c).values
        right = internal_wedge(a, internal_wedge(b, c)).values
        scale = max(1.0, np.max(np.abs(left)))
        npt.assert_allclose(left, right, atol=1e-12 * scale)

    def test_bilinearity(self):
        rng = np.random.default_rng(5)
        x1 = random_form(rng, 1, 1)
        x2 = random_form(rng, 1, 1)
        y = random_form(rng, 2, 1)
        combo = internal_wedge(x1.scaled(0.7) + x2.scaled(-1.3), y)
        split = internal_wedge(x1, y).scaled(0.7) + internal_wedge(x2, y).scaled(-1.3)
        npt.assert_allclose(combo.values, split.values, atol=1e-13)

    def test_one_form_squares_to_zero(self):
        rng = np.random.default_rng(6)
        x = random_form(rng, 1, 0)
        npt.assert_allclose(internal_wedge(x, x).values, 0.0, atol=1e-15)

    def test_scalar_factor_acts_pointwise(self):
        rng = np.random.default_rng(7)
        s = random_form(rng, 0, 0)
        y = random_form(rng, 2, 1)
        npt.assert_allclose(
            internal_wedge(s, y).values, s.values[0] * y.values, atol=1e-15
        )

    def test_two_form_basis_components(self):
        # (a ^ b)_{mn} = a_m b_n - a_n b_m, no half
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([0.5, -1.0, 2.0, 0.0])
        w = internal_wedge(MixedForm(1, 0, a[None]), MixedForm(1, 0, b[None])).values
        npt.assert_allclose(w[0], np.outer(a, b) - np.outer(b, a), atol=1e-15)

    def test_degree_overflow(self):
        rng = np.random.default_rng(8)
        with pytest.raises(DegreeError):
            internal_wedge(random_form(rng, 3, 0), random_form(rng, 2, 0))
        with pytest.raises(DegreeError):
            internal_wedge(random_form(rng, 0, 3), random_form(rng, 0, 2))

    def test_derivatives_follow_leibniz(self):
        rng = np.random.default_rng(9)
        x = random_form(rng, 1, 0, order=1)
        y = random_form(rng, 1, 0, order=1)
        w = internal_wedge(x, y)
        a0, da = (d[0] for d in x.jet.data)
        b0, db = (d[0] for d in y.jet.data)
        # d(a_m b_n - a_n b_m) by hand
        expect = (
            np.einsum("mX,n->mnX", da, b0)
            + np.einsum("m,nX->mnX", a0, db)
            - np.einsum("nX,m->mnX", da, b0)
            - np.einsum("n,mX->mnX", a0, db)
        )
        npt.assert_allclose(w.jet.data[1][0], expect, atol=1e-14)


def xor_seed(*degree_tuples):
    h = 17
    for k, p in degree_tuples:
        h = h * 31 + 5 * k + p
    return h % (2**31)


class TestEpsilon:
    def test_symbol_values(self):
        assert EPSILON[0, 1, 2, 3] == 1.0
        assert EPSILON[1, 0, 2, 3] == -1.0
        assert EPSILON[0, 0, 2, 3] == 0.0
        assert np.count_nonzero(EPSILON) == 24

    def test_unit_basis_trace(self):
        vs = [MixedForm(0, 1, np.eye(4)[a : a + 1]) for a in range(4)]
        w = internal_wedge(internal_wedge(vs[0], vs[1]), internal_wedge(vs[2], vs[3]))
        assert epsilon_trace(w).values[0] == pytest.approx(1.0)
        w_swapped = internal_wedge(internal_wedge(vs[1], vs[0]), internal_wedge(vs[2], vs[3]))
        assert epsilon_trace(w_swapped).values[0] == pytest.approx(-1.0)

    def test_vector_quadruple_gives_determinant(self):
        rng = np.random.default_rng(21)
        mat = rng.uniform(-1.0, 1.0, (4, 4))
        vs = [MixedForm(0, 1, mat[i : i + 1]) for i in range(4)]
        w = internal_wedge(internal_wedge(vs[0], vs[1]), internal_wedge(vs[2], vs[3]))
        npt.assert_allclose(
            epsilon_trace(w).values[0], np.linalg.det(mat), rtol=1e-12
        )

    def test_trace_against_direct_sum(self):
        rng = np.random.default_rng(22)
        x = random_form(rng, 2, 4)
        got = epsilon_trace(x).values[0]
        expect = np.zeros((4, 4))
        for perm in itertools.permutations(range(4)):
            expect += EPSILON[perm] * x.values[0][perm]
        npt.assert_allclose(got, expect / 24.0, atol=1e-14)

    def test_full_contraction_with_raised_copy(self):
        raised = EPSILON
        for slot in range(4):
            raised = raise_lower(raised, slot, "raise")
        total = np.einsum("abcd,abcd->", EPSILON, raised)
        assert total == pytest.approx(-24.0)

    def test_needs_full_internal_block(self):
        rng = np.random.default_rng(23)
        with pytest.raises(DegreeError):
            epsilon_trace(random_form(rng, 1, 3))


class TestRaiseLower:
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_raise_inverts_lower(self, slot):
        rng = np.random.default_rng(31 + slot)
        t = rng.uniform(-1.0, 1.0, (4, 4, 4))
        back = raise_lower(raise_lower(t, slot, "lower"), slot, "raise")
        npt.assert_allclose(back, t, atol=1e-14)

    def test_lowering_identity_gives_metric(self):
        npt.assert_allclose(raise_lower(np.eye(4), 1, "lower"), ETA, atol=1e-15)

    def test_general_metric_uses_inverse_for_raising(self):
        rng = np.random.default_rng(33)
        a = rng.uniform(-1.0, 1.0, (4, 4))
        g = a @ a.T + 4.0 * np.eye(4)
        v = rng.uniform(-1.0, 1.0, 4)
        raised = raise_lower(v, 0, "raise", metric=g)
        npt.assert_allclose(g @ raised, v, atol=1e-12)

    def test_applies_to_jets_componentwise(self):
        rng = np.random.default_rng(34)
        jet = Jet(1, [rng.uniform(-1, 1, (1, 4, 4)), rng.uniform(-1, 1, (1, 4, 4, 4))])
        out = raise_lower(jet, 1, "lower")
        npt.assert_allclose(out.data[1], np.einsum("pabX,bc->pacX", jet.data[1], ETA), atol=1e-15)

    @pytest.mark.parametrize("rank", [3, 4, 5])
    def test_sign_flip_matches_eta_contraction(self, rank):
        # bit-identical on finite data, zeros included up to their sign
        rng = np.random.default_rng(35 + rank)
        arr = rng.uniform(-1.0, 1.0, (4,) * rank)
        arr[arr < -0.8] = 0.0
        labels = "abcde"[:rank]
        for axis in range(rank):
            out = labels[:axis] + "z" + labels[axis + 1 :]
            ref = np.einsum(f"{labels},{labels[axis]}z->{out}", arr, ETA)
            assert np.array_equal(eta_lower(arr, axis), ref)

    def test_sign_flip_on_jets_leaves_derivative_axes(self):
        rng = np.random.default_rng(36)
        jet = Jet(2, [rng.uniform(-1, 1, (1, 4, 4) + (4,) * k) for k in range(3)])
        out = eta_lower(jet, 1)
        for k in range(3):
            assert np.array_equal(out.data[k], np.einsum("pab...,bc->pac...", jet.data[k], ETA))

    def test_rejects_derivative_slots(self):
        jet = Jet(1, [np.zeros((1, 4)), np.zeros((1, 4, 4))])
        with pytest.raises(ValueError):
            raise_lower(jet, 1, "lower")

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            raise_lower(np.eye(4), 0, "up")


class TestInteriorProduct:
    def test_contracts_first_spacetime_slot(self):
        rng = np.random.default_rng(41)
        x = random_form(rng, 2, 1)
        v = rng.uniform(-1.0, 1.0, 4)
        got = interior_product(v, x)
        assert (got.k, got.p) == (1, 1)
        npt.assert_allclose(got.values, np.einsum("m,pamn->pan", v, x.values), atol=1e-14)

    def test_double_contraction_vanishes(self):
        rng = np.random.default_rng(42)
        x = random_form(rng, 2, 0)
        v = rng.uniform(-1.0, 1.0, 4)
        npt.assert_allclose(interior_product(v, interior_product(v, x)).values, 0.0, atol=1e-14)

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1)])
    def test_antiderivation_on_spacetime_forms(self, k, l):
        rng = np.random.default_rng(43 + k + 5 * l)
        a = random_form(rng, k, 0)
        b = random_form(rng, l, 0)
        v = rng.uniform(-1.0, 1.0, 4)
        left = interior_product(v, internal_wedge(a, b))
        right = internal_wedge(interior_product(v, a), b) + internal_wedge(
            a, interior_product(v, b)
        ).scaled((-1.0) ** k)
        npt.assert_allclose(left.values, right.values, atol=1e-12)

    def test_rejects_zero_degree(self):
        rng = np.random.default_rng(44)
        with pytest.raises(DegreeError):
            interior_product(np.ones(4), random_form(rng, 0, 2))


class TestExteriorDerivative:
    POINT = (0.3, -0.2, 0.5, 0.1)

    def test_one_form_by_hand(self):
        alpha = form_from_exprs(["x1^2", "x0*x2", "x3", "x1"], self.POINT, 2, k=1)
        d = exterior_derivative(alpha)
        assert (d.k, d.p) == (2, 0)
        x0, x1, x2, _ = self.POINT
        expect = np.zeros((4, 4))
        expect[0, 1], expect[1, 0] = x2 - 2 * x1, -(x2 - 2 * x1)
        expect[1, 2], expect[2, 1] = -x0, x0
        expect[1, 3], expect[3, 1] = 1.0, -1.0
        expect[2, 3], expect[3, 2] = -1.0, 1.0
        npt.assert_allclose(d.values[0], expect, atol=1e-13)

    def test_scalar_gradient(self):
        expr = parse_expression("x0*x1 + sin(x2)", UNIT_CHART)
        f = MixedForm(0, 0, eval_jet(expr, [self.POINT], 1, [None]))
        d = exterior_derivative(f)
        x0, x1, x2, _ = self.POINT
        npt.assert_allclose(d.values[0], [x1, x0, np.cos(x2), 0.0], atol=1e-13)

    def test_d_squared_vanishes(self):
        rng = np.random.default_rng(51)
        point = rng.uniform(-0.5, 0.5, 4)
        texts = ["sin(x0*x1) + x2^3", "exp(0.3*x3)*x0", "x1*x2*x3", "cos(x0) + x1^2"]
        alpha = form_from_exprs(texts, point, 3, k=1)
        dd = exterior_derivative(exterior_derivative(alpha))
        npt.assert_allclose(dd.values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (0, 2)])
    def test_antiderivation_on_spacetime_forms(self, k, l):
        rng = np.random.default_rng(52 + k + 5 * l)
        a = random_form(rng, k, 0, order=2)
        b = random_form(rng, l, 0, order=2)
        left = exterior_derivative(internal_wedge(a, b))
        right = internal_wedge(exterior_derivative(a), b.truncated(1)) + internal_wedge(
            a.truncated(1), exterior_derivative(b)
        ).scaled((-1.0) ** k)
        npt.assert_allclose(left.values, right.values, atol=1e-12)

    def test_needs_derivative_data(self):
        rng = np.random.default_rng(53)
        with pytest.raises(DegreeError):
            exterior_derivative(random_form(rng, 1, 0, order=0))

    def test_top_degree_rejected(self):
        rng = np.random.default_rng(54)
        with pytest.raises(DegreeError):
            exterior_derivative(random_form(rng, 4, 0, order=1))


class TestCovariantExteriorDerivative:
    def test_zero_connection_reduces_to_plain_d(self):
        rng = np.random.default_rng(61)
        x = random_form(rng, 1, 1, order=2)
        omega = Jet.zeros((1, 4, 4, 4), 2)
        got = covariant_exterior_derivative(omega, x, (+1,))
        npt.assert_allclose(got.values, exterior_derivative(x).values, atol=1e-15)

    def test_internal_metric_is_parallel(self):
        rng = np.random.default_rng(62)
        omega = random_omega(rng, order=1)
        eta_form = MixedForm(0, 2, Jet.constant(ETA[None], 1), _checked=True)
        d = covariant_exterior_derivative(omega, eta_form, (-1, -1))
        npt.assert_allclose(d.values, 0.0, atol=1e-14)

    def test_mixed_kronecker_is_parallel(self):
        rng = np.random.default_rng(63)
        omega = random_omega(rng, order=1)
        delta = MixedForm(0, 2, Jet.constant(np.eye(4)[None], 1), _checked=True)
        d = covariant_exterior_derivative(omega, delta, (+1, -1))
        npt.assert_allclose(d.values, 0.0, atol=1e-14)

    def test_alternating_symbol_is_parallel(self):
        rng = np.random.default_rng(64)
        omega = random_omega(rng, order=1)
        eps_form = MixedForm(0, 4, Jet.constant(EPSILON[None], 1))
        d = covariant_exterior_derivative(omega, eps_form, (-1, -1, -1, -1))
        npt.assert_allclose(d.values, 0.0, atol=2e-13)

    def test_upper_slot_term_by_hand(self):
        rng = np.random.default_rng(65)
        omega = random_omega(rng, order=0)
        comp = rng.uniform(-1.0, 1.0, 4)
        x = MixedForm(0, 1, Jet.constant(comp[None], 1))
        d = covariant_exterior_derivative(omega, x, (+1,))
        # constant components: only the connection term survives
        wmat = np.einsum("abm,bc->acm", omega.value[0], ETA)
        npt.assert_allclose(d.values[0], np.einsum("acm,c->am", wmat, comp), atol=1e-14)

    def test_variance_count_checked(self):
        rng = np.random.default_rng(66)
        with pytest.raises(DegreeError):
            covariant_exterior_derivative(random_omega(rng), random_form(rng, 1, 2, order=1), (+1,))


class TestFormValidation:
    def test_rejects_symmetric_junk(self):
        bad = np.ones((1, 4, 4))
        with pytest.raises(AntisymmetryError):
            MixedForm(2, 0, bad)

    def test_degree_bounds(self):
        with pytest.raises(DegreeError):
            MixedForm(5, 0, np.zeros((1,) + (4,) * 5))
        with pytest.raises(DegreeError):
            MixedForm(1, 0, np.zeros((1, 3)))

    def test_mismatched_addition(self):
        rng = np.random.default_rng(72)
        with pytest.raises(DegreeError):
            random_form(rng, 1, 0) + random_form(rng, 2, 0)
