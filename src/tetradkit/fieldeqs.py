"""Action density, field-equation residuals, and matter sources.

Everything here is a pure function of jets produced by the frame fields in
``geometry``.  The field-level functions read those jets from a
``PointJets``, which derives each one once per point; each reads the tetrad
before the connection, the order that decides which fault a point reports
when both fail.  Two normalization facts thread through the module:

* ``internal_wedge`` alternates over whole index blocks with unit weight, so
  relative to a product of individually labeled factors each epsilon
  contraction below carries a fixed integer multiple.  The ``_MULT_*``
  constants divide those multiples out, keeping every residual in the same
  normalization as the labeled component equations; brute-force expansion
  tests pin each constant.
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

from .exprkit import Chart, JetBatch, eval_jet_grid
from .forms import (
    EPSILON,
    MixedForm,
    covariant_exterior_derivative,
    epsilon_trace,
    eta_lower,
    internal_wedge,
)
from .geometry import (
    DET_THRESHOLD,
    SingularTetradError,
    _PairField,
    inverse_tetrad_jet,
    metric_jet,
    parse_grid,
    torsion_jet,
    torsion_tensor_jet,
)
from .jets import (
    DIM,
    Jet,
    jet_einsum,
    jet_map,
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
_MULT_E_F = 3.0  # eps_abcd wedge(e, F) vs eps_abcd e^b ^ F^cd
_MULT_E_E_E = -6.0  # eps_abcd wedge(wedge(e, e), e) vs eps_abcd e^b ^ e^c ^ e^d
_MULT_E_E = -2.0  # wedge(e, e) vs e^c ^ e^d
_MULT_PAIR_E = -2.0  # eps_abcd wedge(beta, e) vs eps_abcd beta^c ^ e^d
_MULT_EEF_TRACE = -12.0  # eps contraction of wedge(wedge(e, e), F) vs labeled
_MULT_E4_TRACE = 24.0  # eps contraction of wedge(wedge(e, e), wedge(e, e))


class FieldEquationError(ValueError):
    """Inconsistent matter data or a broken structural postcondition."""


def determinant_jet(e_jet: Jet) -> Jet:
    """Determinant of the 4x4 component block, carried to the jet's order:
    eps_abcd e^a_0 e^b_1 e^c_2 e^d_3, one column at a time."""
    col = [jet_map(lambda arr, m=m: arr[:, m], e_jet) for m in range(DIM)]
    det = jet_map(lambda arr: np.einsum("abcd,a...->bcd...", EPSILON, arr), col[0])
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
    ricci = jet_map(lambda arr: np.einsum("msws...->mw...", arr), riemann)
    half = jet_einsum("ma,abmw->bw", einv, f)
    scalar = jet_einsum("wb,bw->", einv, half).scaled(-1.0)
    return ricci - jet_einsum("mw,->mw", g, scalar).scaled(0.5)


def torsion_q_jet(e_jet: Jet, omega_jet: Jet) -> Jet:
    """Torsion components q[mu, nu, sigma] with derivatives."""
    theta = torsion_jet(e_jet, omega_jet)
    return torsion_tensor_jet(theta, inverse_tetrad_jet(e_jet))


def dual_component_projection(form: MixedForm, e_jet: Jet) -> Jet:
    """Rank-2 components [mu, nu] of an internal-vector 3-form.

    Contracts the spacetime slots with the alternating symbol, maps the
    internal index through the tetrad, lowers the free slot with the metric,
    and removes the tetrad determinant.  Exact inverse of
    ``stress_tensor_to_form`` at unit scale.
    """
    if form.k != 3 or form.p != 1:
        raise FieldEquationError(
            f"expected an internal-vector 3-form, got (k={form.k}, p={form.p})"
        )
    det = determinant_jet(e_jet)
    if abs(float(det.value)) <= DET_THRESHOLD:
        raise SingularTetradError("tetrad determinant vanishes at this point")
    dvec = jet_map(
        lambda arr: np.einsum("mnrs,amnr...->as...", EPSILON, arr) / 6.0, form.jet
    )
    g = metric_jet(e_jet)
    out = jet_einsum("am,as->ms", e_jet, dvec)
    out = jet_einsum("ms,sn->mn", out, g)
    return jet_einsum("mn,->mn", out, jet_reciprocal(det))


def stress_tensor_to_form(t_jet: Jet, einv: Jet, ginv: Jet, det: Jet, kappa: float) -> MixedForm:
    """Frame-valued 3-form encoding of rank-2 stress components.

    Reads the inverse tetrad, inverse metric and tetrad determinant jets.
    Scaled so that ``kappa`` times the result projects back (through
    ``dual_component_projection``) onto ``CURVATURE_DUAL_FACTOR * 8 pi``
    times the component tensor, matching the stress side of the component
    equations.
    """
    d = jet_einsum("ma,mn->an", einv, t_jet)
    d = jet_einsum("an,ns->as", d, ginv)
    d = jet_einsum("as,->as", d, det)
    v = jet_map(lambda arr: np.einsum("mnrs,as...->amnr...", EPSILON, arr), d)
    return MixedForm(3, 1, v.scaled(EIGHT_PI * CURVATURE_DUAL_FACTOR / kappa))


def spin_tensor_to_form(s_jet: Jet, e_jet: Jet, kappa: float) -> MixedForm:
    """Internal-pair 3-form encoding of the spin source s[mu, nu, sigma].

    Scaled so that ``kappa`` times the result equals the torsion-equation
    left side whenever the component relation between torsion and spin
    holds, matching the spin side of the component equations.
    """
    sig2 = jet_einsum("cs,mns->cmn", e_jet, s_jet)
    w = internal_wedge(MixedForm(2, 1, sig2), MixedForm(1, 1, e_jet))
    raw = jet_map(
        lambda arr: np.einsum("abcd,cdmnr...->abmnr...", EPSILON, arr), w.jet
    )
    return MixedForm(3, 2, raw.scaled(-SIXTEEN_PI / (kappa * _MULT_PAIR_E)))


class SpinSourceField(_PairField):
    """Spin source s[mu, nu, sigma] from pair-keyed component expressions.

    Keys name the antisymmetric (mu, nu) pair like '01'; each entry lists
    the four sigma components.
    """

    symbol = "Sigma"


class StressField:
    """Explicit stress t[mu, nu] given as a 4x4 grid of expressions."""

    def __init__(self, texts: Sequence[Sequence[str]], chart: Chart, params: Mapping[str, float] | None = None):
        self.exprs = parse_grid(texts, chart, params, "stress")

    def jet(self, point: Sequence[float], order: int) -> Jet | JetBatch:
        """The jet at a point, or a ``JetBatch`` at an (N, 4) array of points."""
        return eval_jet_grid(self.exprs, point, order)


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
    their results; ``fields`` are explicit matter's, for ``chunk_jets``.
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
        self.fields = (stress, spin) if mode == "explicit" else ()

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
            return Jet.zeros((DIM, DIM), order)
        if self.mode == "explicit":
            return jets.read(self._stress, order)
        return jets.einstein(order).scaled(1.0 / EIGHT_PI)

    def spin_jet(self, jets: PointJets, order: int) -> Jet:
        """Spin components s[mu, nu, sigma] at the point, with derivatives."""
        if self.mode == "vacuum":
            return Jet.zeros((DIM, DIM, DIM), order)
        if self.mode == "explicit":
            return jets.read(self._spin, order)
        return jets.torsion_tensor(order).scaled(-1.0 / SIXTEEN_PI)

    def stress_form(self, jets: PointJets, order: int) -> MixedForm:
        """``stress_tensor_to_form`` of the point's stress jet."""
        if self.mode == "vacuum":
            return MixedForm.zero(3, 1, order)
        return stress_tensor_to_form(
            jets.stress(order),
            jets.inverse_tetrad(order),
            jets.inverse_metric(order),
            jets.determinant(order),
            self.kappa,
        )

    def spin_form(self, jets: PointJets, order: int) -> MixedForm:
        """``spin_tensor_to_form`` of the point's spin jet."""
        if self.mode == "vacuum":
            return MixedForm.zero(3, 2, order)
        return spin_tensor_to_form(jets.spin(order), jets.e(order), self.kappa)


def _eps_vector(form: MixedForm) -> MixedForm:
    """Contract three internal slots with the alternating symbol."""
    jet = jet_map(
        lambda arr: np.einsum("abcd,bcd...->a...", EPSILON, arr), form.jet
    )
    return MixedForm._wrap(form.k, 1, jet)


def _eps_pair(form: MixedForm) -> MixedForm:
    """Contract two internal slots with the alternating symbol."""
    jet = jet_map(
        lambda arr: np.einsum("abcd,cd...->ab...", EPSILON, arr), form.jet
    )
    return MixedForm._wrap(form.k, 2, jet)


def curvature_three_form(e_jet: Jet, f_jet: Jet) -> MixedForm:
    """Geometric side of the curvature equation: an internal-vector 3-form.

    Epsilon contraction of the coframe wedged with the field strength,
    normalized so components match the single-labeling reading of the
    wedge (the block-alternation multiple is divided out).
    """
    w = internal_wedge(MixedForm(1, 1, e_jet), MixedForm(2, 2, f_jet))
    return _eps_vector(w).scaled(1.0 / _MULT_E_F)


def torsion_three_form(theta_jet: Jet, e_jet: Jet) -> MixedForm:
    """Geometric side of the torsion equation: an internal-pair 3-form.

    Epsilon contraction of the torsion 2-form wedged with the coframe,
    normalized the same way as ``curvature_three_form``.
    """
    w = internal_wedge(MixedForm(2, 1, theta_jet), MixedForm(1, 1, e_jet))
    return _eps_pair(w).scaled(1.0 / _MULT_PAIR_E)


def derivative_torsion_three_form(e_jet: Jet, omega_jet: Jet) -> MixedForm:
    """Geometric side of the torsion equation by the derivative route.

    Epsilon contraction of the twisted exterior derivative of the frame-pair
    2-form e ^ e, normalized like ``torsion_three_form``; a product-rule
    fact makes the two routes agree identically.  The tetrad jet must be one
    order deeper than the connection jet.
    """
    ef = MixedForm(1, 1, e_jet)
    ee = internal_wedge(ef, ef)
    return _eps_pair(covariant_exterior_derivative(omega_jet, ee, (1, 1))).scaled(
        0.5 / _MULT_E_E
    )


def pc_action_density(jets: PointJets, lam: float) -> float:
    """Coefficient of the coordinate volume form in the action integrand.

    Geometric part plus the cosmological term; for a torsion-free
    connection the geometric part is a fixed multiple of the curvature
    scalar times the tetrad determinant.
    """
    ej = jets.e(0)
    jets.inverse_tetrad(0)  # a singular frame raises here, as everywhere
    ef = MixedForm(1, 1, ej)
    ee = internal_wedge(ef, ef)
    eef = internal_wedge(ee, MixedForm(2, 2, jets.field_strength(0)))
    geo = 0.5 * 24.0 * epsilon_trace(eef).values[0, 1, 2, 3] / _MULT_EEF_TRACE
    vol = 24.0 * epsilon_trace(internal_wedge(ee, ee)).values[0, 1, 2, 3]
    return float(geo + (lam / 24.0) * vol / _MULT_E4_TRACE)


def curvature_equation_residual(jets: PointJets) -> MixedForm:
    """Residual E[a] of the curvature equation as an internal-vector 3-form.

    Curvature term plus the cosmological term minus ``kappa`` times the
    stress 3-form.  Zero (to tolerance) exactly on solutions.
    """
    matter = jets.matter
    resid = jets.curvature_three_form(0)
    if matter.lam != 0.0:
        ef = MixedForm(1, 1, jets.e(0))
        ee = internal_wedge(ef, ef)
        vol3 = _eps_vector(internal_wedge(ee, ef)).scaled(1.0 / _MULT_E_E_E)
        resid = resid + vol3.scaled(matter.lam / 6.0)
    return resid - jets.stress_form(0).scaled(matter.kappa)


def torsion_equation_sides(jets: PointJets) -> tuple[MixedForm, MixedForm]:
    """Both routes to the torsion-equation left side, as internal-pair 3-forms.

    The derivative route (``derivative_torsion_three_form``) comes first,
    the algebraic route (``torsion_three_form``) second.  They agree
    identically, so their gap doubles as a structural residual check.
    """
    return jets.derivative_torsion_three_form(0), jets.torsion_three_form(0)


def torsion_equation_residual(jets: PointJets) -> MixedForm:
    """Residual C[a, b] of the torsion equation as an internal-pair 3-form.

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
