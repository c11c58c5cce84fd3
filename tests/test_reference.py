"""Every compact route of a run against its dense reference (``reference``):
each 3-form's dual vector is ``three_form_dual`` of the dense form, and each
4-form's coefficient is the dense form's 0123 entry, to 1e-13 relative.

All of it runs on one chunk of random contorted fields with random
explicit matter and a cosmological constant; one point of the chunk
faults and is carried on, as a run carries it."""

import numpy as np
import numpy.testing as npt
import pytest

import reference
from reference import three_form_dual
from tetradkit.exprkit import DomainFault
from tetradkit.fieldeqs import (
    curvature_equation_residual,
    curvature_three_form,
    derivative_torsion_three_form,
    stress_tensor_to_form,
    spin_tensor_to_form,
    torsion_equation_residual,
    torsion_equation_sides,
    torsion_three_form,
)
from tetradkit.forms import MixedForm, eta_lower
from tetradkit.geometry import LeviCivitaConnection, SummedConnection, TetradField
from tetradkit.identities import d_squared_residual, first_bianchi_residual, second_bianchi_residual
from tetradkit.jets import Jet
from tetradkit.pointjets import PointJets
from tetradkit.runner import _random_jets

from helpers import UNIT_CHART, random_contorsion, random_matter, random_polynomial_text

# the chunk's third point has x0 < -0.9, where the tetrad's sqrt faults
POINTS = np.array(
    [
        [0.2, -0.1, 0.3, -0.2],
        [-0.4, 0.25, -0.15, 0.1],
        [-0.95, 0.4, 0.2, -0.35],
        [0.6, -0.5, 0.45, 0.3],
    ]
)
FAULTED = 2


@pytest.fixture(scope="module")
def jets():
    rng = np.random.default_rng(16)
    rows = [
        [("1" if i == j else "0") + " + " + random_polynomial_text(rng, UNIT_CHART, scale=0.1) for j in range(4)]
        for i in range(4)
    ]
    rows[1][2] += " + 0.05*sqrt(x0 + 0.9)"
    e = TetradField(rows, UNIT_CHART)
    omega = SummedConnection(LeviCivitaConnection(e), random_contorsion(rng))
    return PointJets(e, omega, POINTS, random_matter(rng, lam=0.3))


def _assert_close(got: Jet, want: Jet):
    assert got.order == want.order
    for k, (mine, theirs) in enumerate(zip(got.data, want.data)):
        atol = 1e-13 * max(1.0, np.abs(theirs).max())
        npt.assert_allclose(mine, theirs, rtol=0, atol=atol, err_msg=f"order {k}")


def _assert_dual(got: Jet, dense: MixedForm):
    assert dense.k == 3
    _assert_close(got, three_form_dual(dense))


def test_the_chunk_carries_one_faulted_point(jets):
    faults = jets.record()
    jets.e(2)
    assert [i for i, fault in enumerate(faults) if fault is not None] == [FAULTED]
    assert isinstance(faults[FAULTED], DomainFault)


def test_geometric_three_forms(jets):
    e1, f1, theta1 = jets.e(1), jets.field_strength(1), jets.torsion(1)
    _assert_dual(curvature_three_form(e1, f1), reference.curvature_three_form(e1, f1))
    _assert_dual(torsion_three_form(theta1, e1), reference.torsion_three_form(theta1, e1))
    for k in (0, 1):
        ek, wk = jets.e(k + 1), jets.omega(k)
        _assert_dual(
            derivative_torsion_three_form(ek, eta_lower(wk, 1)), reference.derivative_torsion_three_form(ek, wk)
        )


def test_source_three_forms(jets):
    kappa = jets.matter.kappa
    stress = (jets.stress(1), jets.inverse_tetrad(1), jets.inverse_metric(1), jets.determinant(1), kappa)
    spin = (jets.spin(1), jets.e(1), kappa)
    dense_stress, dense_spin = reference.stress_three_form(*stress), reference.spin_three_form(*spin)
    _assert_dual(stress_tensor_to_form(*stress), dense_stress)
    _assert_dual(spin_tensor_to_form(*spin), dense_spin)
    # the chunk's memo serves the same duals
    _assert_dual(jets.stress_form(1), dense_stress)
    _assert_dual(jets.spin_form(1), dense_spin)


def test_field_equation_residuals(jets):
    assert jets.matter.lam != 0.0
    _assert_dual(curvature_equation_residual(jets), reference.curvature_equation_residual(jets))
    _assert_dual(torsion_equation_residual(jets), reference.torsion_equation_residual(jets))
    derivative, algebraic = torsion_equation_sides(jets)
    _assert_dual(algebraic, reference.torsion_three_form(jets.torsion(0), jets.e(0)))
    _assert_dual(derivative, reference.derivative_torsion_three_form(jets.e(1), jets.omega(0)))


def test_bianchi_residuals(jets):
    _assert_dual(first_bianchi_residual(jets), reference.first_bianchi(jets))
    _assert_dual(second_bianchi_residual(jets), reference.second_bianchi(jets))


@pytest.mark.parametrize(
    "k, variances",
    [(0, (1,)), (0, (-1,)), (0, (1, -1)), (1, (1,)), (1, (-1, 1)), (2, ()), (2, (1,))],
)
def test_d2_law(jets, k, variances):
    # a 0-form's result is a dense 2-form, a 1-form's a 3-form by its dual,
    # and a 2-form's a 4-form by its coefficient
    rngs = [np.random.default_rng([16, i, k, len(variances)]) for i in range(len(POINTS))]
    (raw,) = _random_jets(rngs, [(4,) * (len(variances) + k)])
    if k == 2:
        at = 1 + len(variances)
        raw = Jet(raw.order, [0.5 * (d - d.swapaxes(at, at + 1)) for d in raw.data])
    got = d_squared_residual(jets, raw, k, variances)
    dense = reference.d_squared(jets, MixedForm._wrap(k, len(variances), raw), variances)
    if k == 0:
        _assert_close(got, dense.jet)
    elif k == 1:
        _assert_dual(got, dense)
    else:
        want = dense.jet.value[..., 0, 1, 2, 3]
        _assert_close(got, Jet(0, [want]))
