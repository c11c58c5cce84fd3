"""Jet arithmetic: chain and Leibniz rules against independent routes."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from tetradkit.jets import (
    DIM,
    Jet,
    JetDomainError,
    JetError,
    jet_einsum,
    jet_exp,
    jet_log,
    jet_matrix_inverse,
    jet_partial,
    jet_pow_int,
    jet_reciprocal,
    jet_sin,
    jet_sqrt,
    jet_transpose,
)

from reference import jet_stack


# jet_einsum specs checked against the Leibniz rule written out
LEIBNIZ_SPECS = [
    ("ij,jk->ik", (4, 4), (4, 4)),  # plain contraction
    ("amnr,bs->abmnrs", (4, 4, 4, 4), (4, 4)),  # outer product
    ("mw,->mw", (4, 4), ()),  # scalar operand
    ("wb,bw->", (4, 4), (4, 4)),  # full contraction
    ("sa,amn->mns", (4, 4), (4, 4, 4)),  # permuted output
    ("qpm,aqcde->apmcde", (4, 4, 4), (4, 4, 4, 4, 4)),
    ("rc,c->r", (24, 24), (24,)),  # the Levi-Civita system's shapes
]


def coord_jets(point, order=3):
    """The coordinate jets at one point, a chunk of one."""
    return [Jet.coordinate(i, [point[i]], order) for i in range(DIM)]


def at_one(jet):
    """The derivative tensors of a chunk of one's point."""
    (value,) = jet.value
    return [value] + [d[0] for d in jet.data[1:]]


class TestScalarRules:
    def test_product_rule_order3(self):
        # f = x0^2 * x1, all third partials known in closed form
        x0, x1 = coord_jets([2.0, 3.0, 0.0, 0.0])[:2]
        f = at_one(x0 * x0 * x1)
        assert f[0] == pytest.approx(12.0)
        npt.assert_allclose(f[1], [12.0, 4.0, 0.0, 0.0], atol=1e-14)
        assert f[2][0, 0] == pytest.approx(6.0)
        assert f[2][0, 1] == pytest.approx(4.0)
        assert f[2][1, 0] == pytest.approx(4.0)
        assert f[3][0, 0, 1] == pytest.approx(2.0)
        assert f[3][0, 1, 0] == pytest.approx(2.0)
        assert f[3][0, 0, 0] == pytest.approx(0.0)

    def test_chain_rule_exp(self):
        # g = exp(c * x2): every partial is c^k * g
        c = 0.7
        x2 = Jet.coordinate(2, [0.3], 3)
        g = at_one(jet_exp(x2.scaled(c), [None]))
        v = np.exp(c * 0.3)
        assert g[0] == pytest.approx(v)
        assert g[1][2] == pytest.approx(c * v)
        assert g[2][2, 2] == pytest.approx(c * c * v)
        assert g[3][2, 2, 2] == pytest.approx(c**3 * v)
        assert g[3][0, 2, 2] == 0.0

    def test_quotient_and_sqrt(self):
        x = Jet.coordinate(0, [2.0], 3)
        h = at_one(jet_sqrt(x, [None]) * jet_reciprocal(x, [None]))
        # h = x^(-1/2): derivatives -(1/2)x^(-3/2), (3/4)x^(-5/2), -(15/8)x^(-7/2)
        assert h[0] == pytest.approx(2.0**-0.5)
        assert h[1][0] == pytest.approx(-0.5 * 2.0**-1.5)
        assert h[2][0, 0] == pytest.approx(0.75 * 2.0**-2.5)
        assert h[3][0, 0, 0] == pytest.approx(-15.0 / 8.0 * 2.0**-3.5)

    def test_integer_power_negative_base(self):
        x = Jet.coordinate(0, [-1.5], 2)
        p = at_one(jet_pow_int(x, 3, [None]))
        assert p[0] == pytest.approx((-1.5) ** 3)
        assert p[1][0] == pytest.approx(3 * (-1.5) ** 2)
        assert p[2][0, 0] == pytest.approx(6 * (-1.5))

    def test_negative_integer_power(self):
        x = Jet.coordinate(1, [2.0], 2)
        p = at_one(jet_pow_int(x, -2, [None]))
        assert p[0] == pytest.approx(0.25)
        assert p[1][1] == pytest.approx(-2 * 2.0**-3)
        assert p[2][1, 1] == pytest.approx(6 * 2.0**-4)

    def test_domain_errors(self):
        # a point outside the domain records its fault, keeps an earlier
        # one, and is carried as the constant 1; the others compute on
        x = Jet.coordinate(0, [-1.0, 4.0, 0.0, -2.0], 1)
        earlier = ArithmeticError("earlier")
        for fn, bad in ((jet_log, (0, 2)), (jet_sqrt, (0, 2)), (jet_reciprocal, (2,))):
            faults = [None, None, None, earlier]
            out = fn(x, faults)
            assert [i for i in range(3) if faults[i] is not None] == list(bad)
            assert all(type(faults[i]) is JetDomainError for i in bad)
            assert faults[3] is earlier
            assert out.value[1] == pytest.approx(fn(Jet.coordinate(0, [4.0], 1), [None]).value[0])
            npt.assert_array_equal(out.data[1][list(bad) + [3]], 0.0)
        with pytest.raises(JetDomainError):
            x / 0

    def test_a_vector_chunk_keeps_one_fault_slot_per_point(self):
        # three points of four entries each: a point's slot holds its first
        # faulting entry in C order, and all its entries are carried as 1
        x = Jet.constant(np.array([[1.0, 2.0, 4.0, 8.0], [1.0, 2.0, -3.0, -4.0], [0.0, -1.0, 5.0, 6.0]]), 1)
        faults = [None, None, None]
        out = jet_log(x, faults)
        assert faults[0] is None
        assert [str(f) for f in faults[1:]] == [
            "log of non-positive value -3.0",
            "log of non-positive value 0.0",
        ]
        assert all(f.__traceback__ is None for f in faults[1:])
        npt.assert_array_equal(out.value[0], np.log([1.0, 2.0, 4.0, 8.0]))
        npt.assert_array_equal(out.value[1:], 1.0)
        npt.assert_array_equal(out.data[1], 0.0)
        # every slot is a point's, so a filled one keeps its fault
        faults = [None, ArithmeticError("earlier"), None]
        jet_reciprocal(Jet.zeros((3, 4), 0), faults)
        assert [type(f) for f in faults] == [JetDomainError, ArithmeticError, JetDomainError]
        assert jet_log(Jet.zeros((0, 4), 1), []).data[1].shape == (0, 4, 4)

    def test_mixed_partials_symmetric(self):
        rng = np.random.default_rng(5)
        x = coord_jets(rng.uniform(0.5, 1.5, size=4))
        ok = [None]
        f = jet_sin(x[0] * x[1], ok) * jet_exp(x[2], ok) + jet_sqrt(x[3] * x[3] + Jet.constant([2.0], 3), ok)
        assert ok == [None]
        d2, d3 = at_one(f)[2:]
        assert np.max(np.abs(d2 - d2.T)) < 1e-14
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.max(np.abs(d3 - np.transpose(d3, perm))) < 1e-14


class TestTensorOps:
    def sym_jet(self, rng, shape, order=2):
        # random jet at one point with properly symmetric derivative axes
        data = []
        for k in range(order + 1):
            arr = rng.normal(size=shape + (DIM,) * k)
            nc = len(shape)
            out = np.zeros_like(arr)
            perms = list(itertools.permutations(range(k)))
            for p in perms:
                out += np.transpose(arr, list(range(nc)) + [nc + i for i in p])
            data.append(out[None] / len(perms))
        return Jet(order, data)

    def test_einsum_value_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = self.sym_jet(rng, (4, 4))
        b = self.sym_jet(rng, (4,))
        c = jet_einsum("ij,j->i", a, b)
        npt.assert_allclose(c.value, np.einsum("pij,pj->pi", a.value, b.value), atol=1e-13)

    def test_einsum_first_derivative_leibniz(self):
        rng = np.random.default_rng(1)
        a = self.sym_jet(rng, (4, 4), order=1)
        b = self.sym_jet(rng, (4,), order=1)
        c = jet_einsum("ij,j->i", a, b)
        expect = np.einsum("pijm,pj->pim", a.data[1], b.value) + np.einsum(
            "pij,pjm->pim", a.value, b.data[1]
        )
        npt.assert_allclose(c.data[1], expect, atol=1e-13)

    def test_einsum_second_derivative_leibniz(self):
        rng = np.random.default_rng(2)
        a = self.sym_jet(rng, (4,), order=2)
        b = self.sym_jet(rng, (4,), order=2)
        c = jet_einsum("i,i->", a, b)
        expect = (
            np.einsum("pimn,pi->pmn", a.data[2], b.value)
            + np.einsum("pim,pin->pmn", a.data[1], b.data[1])
            + np.einsum("pin,pim->pmn", a.data[1], b.data[1])
            + np.einsum("pi,pimn->pmn", a.value, b.data[2])
        )
        npt.assert_allclose(c.data[2], expect, atol=1e-13)

    @pytest.mark.parametrize("spec, shape_a, shape_b", LEIBNIZ_SPECS)
    def test_einsum_matches_leibniz_reference_through_order3(self, spec, shape_a, shape_b):
        rng = np.random.default_rng(8)
        a = self.sym_jet(rng, shape_a, order=3)
        b = self.sym_jet(rng, shape_b, order=3)
        got = jet_einsum(spec, a, b)
        (in1, in2), out = spec.split("->")[0].split(","), spec.split("->")[1]
        for k in range(4):
            # D^k(ab) sums, over the subsets of the k slots, a's derivative
            # along the subset times b's along the rest
            slots = "XYZ"[:k]
            expect = np.zeros_like(got.data[k])
            for i in range(k + 1):
                for left in itertools.combinations(slots, i):
                    right = "".join(c for c in slots if c not in left)
                    expect += np.einsum(
                        f"P{in1}{''.join(left)},P{in2}{right}->P{out}{slots}", a.data[i], b.data[k - i]
                    )
            scale = max(1.0, float(np.max(np.abs(expect))))
            npt.assert_allclose(got.data[k], expect, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize(
        "spec, shape_a, shape_b",
        LEIBNIZ_SPECS
        + [
            ("ji,kj->ik", (4, 4), (4, 4)),  # both operands as transposed views
            ("acmn,cr->amnr", (4, 4, 4, 4), (4, 4)),  # the left one copied in another order
        ],
    )
    @pytest.mark.parametrize("leads", [(1, 1), (1, 0), (0, 1)])
    def test_einsum_over_a_point_axis_is_each_points_product(self, spec, shape_a, shape_b, leads):
        # a chunk of 5 points, each with its own jets, against jet_einsum at
        # each point as a chunk of one, bit for bit; an operand led by 0 is
        # a chunk of one, shared by every point
        rng = np.random.default_rng(11)
        count = 5
        per_a = [self.sym_jet(rng, shape_a, order=3) for _ in range(count if leads[0] else 1)]
        per_b = [self.sym_jet(rng, shape_b, order=3) for _ in range(count if leads[1] else 1)]

        def chunk(per):
            return Jet(3, [np.concatenate([j.data[k] for j in per]) for k in range(4)])

        got = jet_einsum(spec, chunk(per_a), chunk(per_b))
        assert len(got.value) == count
        for i in range(count):
            alone = jet_einsum(spec, per_a[i if leads[0] else 0], per_b[i if leads[1] else 0])
            for k in range(4):
                npt.assert_array_equal(got.data[k][i], alone.data[k][0])

    @pytest.mark.parametrize(
        "spec",
        [
            "ab,bc->abc",  # b is a batch label: shared and kept
            "aa,ab->b",  # repeated label within an operand
            "ab,b->",  # a is summed within one operand
            "ab,bc->acc",  # repeated output label
            "aX,b->abX",  # derivative labels are reserved
        ],
    )
    def test_einsum_rejects_non_pairwise_specs(self, spec):
        a = Jet.zeros((1, 4, 4), 1)
        b = Jet.zeros((1,) + (4,) * (len(spec.split(",")[1].split("-")[0])), 1)
        with pytest.raises(JetError):
            jet_einsum(spec, a, b)

    def test_einsum_rejects_mismatched_shapes(self):
        with pytest.raises(JetError):
            jet_einsum("ij,jk->ik", Jet.zeros((1, 4, 3), 1), Jet.zeros((1, 4, 4), 1))

    def test_contractions_make_no_einsum_calls(self, monkeypatch):
        calls = []
        real = np.einsum

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        rng = np.random.default_rng(9)
        a = self.sym_jet(rng, (4, 4, 4), order=3)
        b = self.sym_jet(rng, (4, 4, 4, 4, 4), order=3)
        jet_einsum("qpm,aqcde->apmcde", a, b)
        m = self.sym_jet(rng, (4, 4), order=3)
        m.data[0] += 3.0 * np.eye(4)
        jet_matrix_inverse(m, [None])
        assert calls == []

    def test_partial_shift(self):
        rng = np.random.default_rng(3)
        a = self.sym_jet(rng, (4,), order=3)
        d = jet_partial(a)
        assert d.order == 2
        assert d.comp_shape == (4, 4)
        npt.assert_allclose(d.value, a.data[1], atol=0)
        npt.assert_allclose(d.data[1], a.data[2], atol=0)

    def test_stack_and_transpose(self):
        rng = np.random.default_rng(4)
        rows = [self.sym_jet(rng, (4,), order=1) for _ in range(4)]
        m = jet_stack(rows)
        assert m.comp_shape == (4, 4)
        npt.assert_allclose(m.value[:, 2], rows[2].value, atol=0)
        t = jet_transpose(m, (1, 0))
        npt.assert_allclose(t.value, m.value.transpose(0, 2, 1), atol=0)
        npt.assert_allclose(t.data[1], np.transpose(m.data[1], (0, 2, 1, 3)), atol=0)

    def test_matrix_inverse_against_finite_differences(self):
        # polynomial matrix field M(x) = A + B x0 + C x1^2, jets built exactly
        rng = np.random.default_rng(6)
        A = np.eye(4) * 2.0 + rng.normal(scale=0.2, size=(4, 4))
        B = rng.normal(scale=0.3, size=(4, 4))
        C = rng.normal(scale=0.3, size=(4, 4))

        def m_at(x0, x1):
            return A + B * x0 + C * x1 * x1

        x0, x1 = 0.4, -0.7
        d1 = np.zeros((4, 4, DIM))
        d1[:, :, 0] = B
        d1[:, :, 1] = 2 * x1 * C
        d2 = np.zeros((4, 4, DIM, DIM))
        d2[:, :, 1, 1] = 2 * C
        m = Jet(2, [m_at(x0, x1)[None], d1[None], d2[None]])
        faults = [None]
        inv = at_one(jet_matrix_inverse(m, faults))
        assert faults == [None]

        npt.assert_allclose(inv[0], np.linalg.inv(m_at(x0, x1)), atol=1e-12)
        h = 1e-6
        fd0 = (np.linalg.inv(m_at(x0 + h, x1)) - np.linalg.inv(m_at(x0 - h, x1))) / (2 * h)
        fd1 = (np.linalg.inv(m_at(x0, x1 + h)) - np.linalg.inv(m_at(x0, x1 - h))) / (2 * h)
        npt.assert_allclose(inv[1][:, :, 0], fd0, atol=1e-8)
        npt.assert_allclose(inv[1][:, :, 1], fd1, atol=1e-8)
        h2 = 1e-3  # wider step: keeps the second difference above float64 roundoff
        fd11 = (
            np.linalg.inv(m_at(x0, x1 + h2)) - 2 * np.linalg.inv(m_at(x0, x1)) + np.linalg.inv(m_at(x0, x1 - h2))
        ) / h2**2
        npt.assert_allclose(inv[2][:, :, 1, 1], fd11, atol=1e-5)

    def test_inverse_of_product_identity(self):
        rng = np.random.default_rng(7)
        m = self.sym_jet(rng, (4, 4), order=3)
        m.data[0] += 3.0 * np.eye(4)
        inv = jet_matrix_inverse(m, [None])
        prod = jet_einsum("ij,jk->ik", m, inv)
        npt.assert_allclose(prod.value[0], np.eye(4), atol=1e-12)
        for k in range(1, 4):
            assert np.max(np.abs(prod.data[k])) < 1e-11


class TestValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(JetError):
            Jet(1, [np.zeros(3)])
        with pytest.raises(JetError):
            Jet(1, [np.zeros(1), np.zeros((1, 3))])
        with pytest.raises(JetError, match="point axis"):
            Jet(0, [np.zeros(())])

    def test_rejects_order_overflow(self):
        with pytest.raises(JetError):
            Jet.zeros((), 4)

    def test_scalar_mul_guard(self):
        a = Jet.zeros((1, 4), 1)
        with pytest.raises(JetError):
            _ = a * a
