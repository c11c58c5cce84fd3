"""Action density, field-equation residuals, and matter sources.

Everything here is a pure function of jets produced by the frame fields in
``geometry``.  The field-level functions read those jets from a
``PointJets``, which derives each one once per chunk of points; each reads
the tetrad before the connection, the order that decides which fault a
point reports when both fail.  Two normalization facts thread through the
module:

* Every spacetime 3-form here is built as its dual vector (see ``forms``)
  from its factors: the epsilon contraction of a wedge in the
  single-labeling normalization of the component equations, with no
  block-alternation multiple.  The tests pin each against its dense
  reference through ``internal_wedge``, which carries such a multiple.
* A rank-2 stress tensor and a frame-valued 3-form are two encodings of the
  same source.  ``dual_component_projection`` maps the 3-form encoding back
  to rank-2 components; applied to the matter-free curvature-equation left
  side it lands on ``CURVATURE_DUAL_FACTOR`` times the Einstein tensor.
  That factor was measured once on random fields and is frozen here; a
  property test asserts it stays put across scenarios.

Index conventions follow ``geometry``: stress components t[mu, nu]; spin
source s[mu, nu, sigma], antisymmetric in (mu, nu); curvature residual
E[a, mu, nu, rho] with the internal index first; torsion residual
C[a, b, mu, nu, rho] with the antisymmetric internal pair first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .exprkit import Chart
from .forms import (
    EPSILON,
    MixedForm,
    epsilon_trace,
    eta_lower,
    internal_wedge,
    twisted_divergence,
    two_form_dual,
)
from .geometry import (
    DET_THRESHOLD,
    SingularTetradError,
    _GridField,
    _PairField,
    inverse_tetrad_jet,
    metric_jet,
    torsion_jet,
    torsion_tensor_jet,
)
from .jets import (
    DIM,
    Jet,
    jet_einsum,
    jet_reciprocal,
)

if TYPE_CHECKING:
    from .pointjets import PointJets

EIGHT_PI = 8.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi

# Ratio between the rank-2 projection of the matter-free curvature residual
# and the Einstein tensor.  Measured once on random frame data, identical on
# every scenario since; tests assert constancy rather than re-deriving it.
CURVATURE_DUAL_FACTOR = -2.0

# Form-level coupling that makes the form equations and the component
# equations (stress side 8 pi, spin side -16 pi) two views of the same
# statement.  Scenarios may override.
DEFAULT_KAPPA = EIGHT_PI * CURVATURE_DUAL_FACTOR

# Block-alternation multiples of ``internal_wedge`` contractions relative to
# the labeled-factor expressions they implement, fixed by the shuffle
# normalization of the wedge.  Verified against literal permutation sums in
# the tests; do not fold them into other constants.
_MULT_EEF_TRACE = -12.0  # eps contraction of wedge(wedge(e, e), F) vs labeled
_MULT_E4_TRACE = 24.0  # eps contraction of wedge(wedge(e, e), wedge(e, e))


class FieldEquationError(ValueError):
    """Inconsistent matter data or a broken structural postcondition."""


def determinant_jet(e_jet: Jet) -> Jet:
    """Determinant of the 4x4 component block, carried to the jet's order:
    eps_abcd e^a_0 e^b_1 e^c_2 e^d_3, one column at a time."""
    # the columns stay views: the products' bits depend on operand layout
    col = [Jet._trusted(e_jet.order, [d[:, :, m] for d in e_jet.data]) for m in range(DIM)]
    det = Jet._trusted(e_jet.order, [np.einsum("abcd,za...->zbcd...", EPSILON, d) for d in col[0].data])
    det = jet_einsum("bcd,b->cd", det, col[1])
    det = jet_einsum("cd,c->d", det, col[2])
    return jet_einsum("d,d->", det, col[3])


def riemann_jet(e_jet: Jet, einv: Jet, f: Jet) -> Jet:
    """Riemann components r[mu, nu, omega, sigma], last index up, from the
    tetrad, inverse tetrad and field strength jets."""
    mixed = jet_einsum("sa,abmn->sbmn", einv, f)
    return jet_einsum("scmn,cw->mnws", eta_lower(mixed, 1), e_jet)


def einstein_jet(riemann: Jet, einv: Jet, g: Jet, f: Jet) -> Jet:
    """Einstein tensor components [mu, nu] from the Riemann, inverse tetrad,
    metric and field strength jets."""
    ricci = Jet._trusted(riemann.order, [np.einsum("zmsws...->zmw...", d) for d in riemann.data])
    half = jet_einsum("ma,abmw->bw", einv, f)
    scalar = jet_einsum("wb,bw->", einv, half).scaled(-1.0)
    return ricci - jet_einsum("mw,->mw", g, scalar).scaled(0.5)


def torsion_q_jet(e_jet: Jet, wmix: Jet, faults: list) -> Jet:
    """Torsion components q[mu, nu, sigma] with derivatives; a singular
    tetrad's fault goes into ``faults`` as ``inverse_tetrad_jet`` puts it."""
    theta = torsion_jet(e_jet, wmix)
    return torsion_tensor_jet(theta, inverse_tetrad_jet(e_jet, faults))


def dual_component_projection(dual: Jet, e_jet: Jet, faults: list) -> Jet:
    """Rank-2 components [mu, nu] of an internal-vector 3-form, given by its
    dual vector [a, mu].

    Maps the internal index through the tetrad, lowers the free slot with
    the metric, and removes the tetrad determinant and the dual's sign.
    Exact inverse of ``stress_tensor_to_form`` at unit scale.  A point
    whose |det e| is at most ``DET_THRESHOLD`` stores a
    ``SingularTetradError`` in its empty slot of ``faults``.
    """
    if dual.comp_shape != (DIM, DIM):
        raise FieldEquationError(
            f"expected the dual [a, mu] of an internal-vector 3-form, got shape {dual.comp_shape}"
        )
    det = determinant_jet(e_jet)
    for i in np.flatnonzero(np.abs(det.value) <= DET_THRESHOLD):
        if faults[i] is None:
            faults[i] = SingularTetradError("tetrad determinant vanishes at this point")
    g = metric_jet(e_jet)
    out = jet_einsum("am,as->ms", e_jet, dual.scaled(-1.0))
    out = jet_einsum("ms,sn->mn", out, g)
    return jet_einsum("mn,->mn", out, jet_reciprocal(det, faults))


def stress_tensor_to_form(t_jet: Jet, einv: Jet, ginv: Jet, det: Jet, kappa: float) -> Jet:
    """Frame-valued 3-form encoding of rank-2 stress components, by its
    dual vector [a, mu].

    The form is eps_{m n r s} d[a, s] for d = det e^-1 t g^-1, so its dual
    is -d.  Scaled so that ``kappa`` times the result projects back
    (through ``dual_component_projection``) onto
    ``CURVATURE_DUAL_FACTOR * 8 pi`` times the component tensor, matching
    the stress side of the component equations.
    """
    d = jet_einsum("ma,mn->an", einv, t_jet)
    d = jet_einsum("an,ns->as", d, ginv)
    d = jet_einsum("as,->as", d, det)
    return d.scaled(-EIGHT_PI * CURVATURE_DUAL_FACTOR / kappa)


def spin_tensor_to_form(s_jet: Jet, e_jet: Jet, kappa: float) -> Jet:
    """Internal-pair 3-form encoding of the spin source s[mu, nu, sigma],
    by its dual vector [a, b, mu].

    Scaled so that ``kappa`` times the result equals the torsion-equation
    left side whenever the component relation between torsion and spin
    holds, matching the spin side of the component equations.
    """
    sig2 = jet_einsum("cs,mns->cmn", e_jet, s_jet)
    return _eps_pair_dual(sig2, e_jet).scaled(-SIXTEEN_PI / kappa)


class SpinSourceField(_PairField):
    """Spin source s[mu, nu, sigma] from pair-keyed component expressions.

    Keys name the antisymmetric (mu, nu) pair like '01'; each entry lists
    the four sigma components.
    """

    symbol = "Sigma"


class StressField(_GridField):
    """Explicit stress t[mu, nu] given as a 4x4 grid of expressions."""

    label = "stress"


class MatterModel:
    """Source terms for the field equations.

    Three modes: ``vacuum`` (no sources), ``explicit`` (component
    expressions over a chart), and ``manufactured`` (sources computed from
    the point's own frame so every residual cancels identically).
    ``kappa`` is the form-level coupling, ``lam`` the cosmological
    constant.  Manufactured stress is the Einstein tensor over 8 pi and
    manufactured spin the torsion over -16 pi, both read from the
    ``PointJets`` they are evaluated at, so identities can differentiate
    them.  Only a ``PointJets`` calls the builders below, and it serves
    their results.
    """

    def __init__(
        self,
        mode: str,
        *,
        kappa: float | None = None,
        lam: float = 0.0,
        stress=None,
        spin=None,
    ):
        if mode not in ("vacuum", "explicit", "manufactured"):
            raise FieldEquationError(f"unknown matter mode {mode!r}")
        self.mode = mode
        self.kappa = DEFAULT_KAPPA if kappa is None else float(kappa)
        if self.kappa == 0.0:
            raise FieldEquationError("coupling kappa must be nonzero")
        self.lam = float(lam)
        self._stress = stress
        self._spin = spin

    @classmethod
    def vacuum(cls, *, kappa: float | None = None, lam: float = 0.0) -> "MatterModel":
        return cls("vacuum", kappa=kappa, lam=lam)

    @classmethod
    def explicit(
        cls,
        stress_texts: Sequence[Sequence[str]],
        spin_entries: Mapping[str, Sequence[str]],
        chart: Chart,
        params: Mapping[str, float] | None = None,
        *,
        kappa: float | None = None,
        lam: float = 0.0,
    ) -> "MatterModel":
        stress = StressField(stress_texts, chart, params)
        spin = SpinSourceField(spin_entries, chart, params)
        return cls("explicit", kappa=kappa, lam=lam, stress=stress, spin=spin)

    def stress_jet(self, jets: PointJets, order: int) -> Jet:
        """Stress components t[mu, nu] at the point, with derivatives."""
        if self.mode == "vacuum":
            return Jet.zeros((len(jets.points), DIM, DIM), order)
        if self.mode == "explicit":
            return jets.read(self._stress, order)
        return jets.einstein(order).scaled(1.0 / EIGHT_PI)

    def spin_jet(self, jets: PointJets, order: int) -> Jet:
        """Spin components s[mu, nu, sigma] at the point, with derivatives."""
        if self.mode == "vacuum":
            return Jet.zeros((len(jets.points), DIM, DIM, DIM), order)
        if self.mode == "explicit":
            return jets.read(self._spin, order)
        return jets.torsion_tensor(order).scaled(-1.0 / SIXTEEN_PI)

    def stress_form(self, jets: PointJets, order: int) -> Jet:
        """``stress_tensor_to_form`` of the point's stress jet."""
        if self.mode == "vacuum":
            return Jet.zeros((len(jets.points), DIM, DIM), order)
        return stress_tensor_to_form(
            jets.stress(order),
            jets.inverse_tetrad(order),
            jets.inverse_metric(order),
            jets.determinant(order),
            self.kappa,
        )

    def spin_form(self, jets: PointJets, order: int) -> Jet:
        """``spin_tensor_to_form`` of the point's spin jet."""
        if self.mode == "vacuum":
            return Jet.zeros((len(jets.points), DIM, DIM, DIM), order)
        return spin_tensor_to_form(jets.spin(order), jets.e(order), self.kappa)


def _eps_lead(jet: Jet, n: int) -> Jet:
    """The alternating symbol's last ``n`` indices contracted with the first
    ``n`` component axes of ``jet``; the symbol's free indices lead, behind
    the point axis."""
    mat, free = EPSILON.reshape(DIM ** (4 - n), DIM**n), (DIM,) * (4 - n)
    data = [(mat @ d.reshape(len(d), DIM**n, -1)).reshape((len(d),) + free + d.shape[1 + n :]) for d in jet.data]
    return Jet._trusted(jet.order, data)


def curvature_three_form(e_jet: Jet, f_jet: Jet) -> Jet:
    """Geometric side of the curvature equation, eps_abcd e^b ^ F^cd, by its
    dual vector [a, mu]: eps_abcd F*^cd_{mu m} e^b_m, F* = ``two_form_dual``
    of F, with eps contracted into F first."""
    dual = two_form_dual(_eps_lead(f_jet, 2), 2)
    return jet_einsum("abum,bm->au", dual, e_jet)


def _eps_pair_dual(beta: Jet, e_jet: Jet) -> Jet:
    """Dual vector [a, b, mu] of eps_abcd beta^c ^ e^d, in the
    single-labeling reading, for an internal-vector 2-form beta[c, mu, nu]:
    eps_abcd beta*^c_{mu r} e^d_r."""
    return _eps_lead(jet_einsum("cur,dr->cdu", two_form_dual(beta, 1), e_jet), 2)


def _frame_pair(e_jet: Jet) -> Jet:
    """The frame-pair 2-form e^c ^ e^d, [c, d, m, n] = e^c_m e^d_n - e^c_n e^d_m."""
    ee = jet_einsum("cm,dn->cdmn", e_jet, e_jet)
    return ee - Jet._trusted(ee.order, [d.swapaxes(3, 4) for d in ee.data])


def torsion_three_form(theta_jet: Jet, e_jet: Jet) -> Jet:
    """Geometric side of the torsion equation: an internal-pair 3-form,
    eps_abcd theta^c ^ e^d, by its dual vector [a, b, mu]."""
    return _eps_pair_dual(theta_jet, e_jet)


def derivative_torsion_three_form(e_jet: Jet, wmix: Jet) -> Jet:
    """Geometric side of the torsion equation by the derivative route, by
    its dual vector [a, b, mu]: half the epsilon contraction of the twisted
    derivative of e ^ e, (1/2) eps_abcd D_nu (e^c ^ e^d)*_{mu nu}.  A
    product-rule fact makes it agree identically with ``torsion_three_form``.
    The tetrad jet must be one order deeper than the connection omega^a_c."""
    pair = two_form_dual(_frame_pair(e_jet), 2)
    return _eps_lead(twisted_divergence(wmix, pair, (1, 1)), 2).scaled(0.5)


def pc_action_density(jets: PointJets, lam: float) -> np.ndarray:
    """Coefficient of the coordinate volume form in the action integrand,
    one per point.

    Geometric part plus the cosmological term; for a torsion-free
    connection the geometric part is a fixed multiple of the curvature
    scalar times the tetrad determinant.  A singular frame's fault lands in
    the reader's record, as everywhere.
    """
    ej = jets.e(0)
    jets.inverse_tetrad(0)
    ef = MixedForm(1, 1, ej)
    ee = internal_wedge(ef, ef)
    eef = internal_wedge(ee, MixedForm(2, 2, jets.field_strength(0)))
    geo = 0.5 * 24.0 * epsilon_trace(eef).values[:, 0, 1, 2, 3] / _MULT_EEF_TRACE
    vol = 24.0 * epsilon_trace(internal_wedge(ee, ee)).values[:, 0, 1, 2, 3]
    return geo + (lam / 24.0) * vol / _MULT_E4_TRACE


def curvature_equation_residual(jets: PointJets) -> Jet:
    """Residual E[a] of the curvature equation, an internal-vector 3-form, by
    its dual vector [a, mu]: the curvature term plus the cosmological term,
    (lambda/6) eps_abcd e^b ^ e^c ^ e^d or the curvature 3-form with e ^ e in
    place of F, minus ``kappa`` times the stress 3-form.  Zero (to
    tolerance) exactly on solutions."""
    matter = jets.matter
    resid = jets.curvature_three_form(0)
    if matter.lam != 0.0:
        ej = jets.e(0)
        resid = resid + curvature_three_form(ej, _frame_pair(ej)).scaled(matter.lam / 6.0)
    return resid - jets.stress_form(0).scaled(matter.kappa)


def torsion_equation_sides(jets: PointJets) -> tuple[Jet, Jet]:
    """Both routes to the torsion-equation left side, as the dual vectors
    [a, b, mu] of internal-pair 3-forms.

    The derivative route (``derivative_torsion_three_form``) comes first,
    the algebraic route (``torsion_three_form``) second.  They agree
    identically, so their gap doubles as a structural residual check.
    """
    return jets.derivative_torsion_three_form(0), jets.torsion_three_form(0)


def torsion_equation_residual(jets: PointJets) -> Jet:
    """Residual C[a, b] of the torsion equation as an internal-pair 3-form,
    by its dual vector [a, b, mu].

    The derivative route to the left side minus ``kappa`` times the spin
    3-form.  Its gap to the algebraic route is what the ``nfe-leibniz``
    check reports.
    """
    lhs = jets.derivative_torsion_three_form(0)
    return lhs - jets.spin_form(0).scaled(jets.matter.kappa)


@dataclass(frozen=True)
class ComponentResiduals:
    """Component-language residuals: stress side and spin side."""

    stress: np.ndarray  # [mu, nu]
    spin: np.ndarray  # [mu, nu, sigma]


def component_field_equation_residuals(jets: PointJets) -> ComponentResiduals:
    """Einstein-tensor and torsion residuals against the component sources."""
    stress = jets.einstein(0).value - EIGHT_PI * jets.stress(0).value
    spin = jets.torsion_tensor(0).value + SIXTEEN_PI * jets.spin(0).value
    return ComponentResiduals(stress=stress, spin=spin)
