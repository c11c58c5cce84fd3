"""Structural identity residuals for frame geometries and matter sources.

Each function returns a residual that vanishes identically, to rounding,
whenever its inputs are coherent jets of smooth fields: the derivative
tensors must actually be derivatives of the values.  A corrupted field
breaks that coherence and shows up as a finite residual, which is what
makes these useful as checks.  The conservation residuals are the one
exception: they vanish exactly on solutions of the field equations and
report a finite defect off solutions.

The field-level functions read their jets from a ``PointJets``.  Each
reads the tetrad and the connection first, in the order shown, because
that order decides which fault a point reports when both fail.

Two transcription facts thread through the module:

* The derivative identities are computed on block-alternating wedge
  components (see ``forms``).  Where a single-labeling identity acquires a
  fixed sign in that representation, the code carries the measured sign and
  a test pins it.  The one instance is the second half of
  ``rewritten_lhs_check``.
* The component conservation laws are the volume duals of the form laws.
  Dualizing puts the divergence on the second stress slot, brings in a
  torsion-trace coupling, and packages the spin source with its vector
  trace (``spin_potential_tensor``).  Every index placement is recorded in
  docs/conventions.md, and tests verify the component residuals equal the
  dualized form residuals to rounding, off solutions as well as on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import (
    DegreeError,
    MixedForm,
    _alt_blocks,
    covariant_D,
    covariant_exterior_derivative,
    eta_lower,
    three_form_dual,
)
from .jets import Jet, jet_einsum, jet_map
from .pointjets import PointJets

__all__ = [
    "ConservationComponentResiduals",
    "ConservationFormResiduals",
    "commutator_residual",
    "conservation_component_residuals",
    "conservation_form_residuals",
    "curvature_wedge_action",
    "d_squared_residual",
    "first_bianchi_residual",
    "metric_compatibility_residual",
    "rewritten_lhs_check",
    "second_bianchi_residual",
    "spin_potential_tensor",
]


def second_bianchi_residual(jets: PointJets) -> MixedForm:
    """Twisted exterior derivative of the field strength.

    Identically zero for any connection; returns the internal-pair 3-form
    so callers can inspect where coherence fails.  Reads the connection
    through order 2.
    """
    wj = jets.omega(2)
    f = MixedForm(2, 2, jets.field_strength(1))
    return covariant_exterior_derivative(wj, f, (1, 1))


def first_bianchi_residual(jets: PointJets) -> MixedForm:
    """Twisted derivative of torsion minus the curvature-coframe wedge.

    The subtracted term contracts the field strength's second internal slot
    into the coframe through the frame metric before the spacetime wedge,
    so no block-alternation multiple appears.  Internal-vector 3-form, zero
    for every frame and connection.
    """
    ej = jets.e(2)
    wj = jets.omega(1)
    theta = MixedForm(2, 1, jets.torsion(1))
    lhs = covariant_exterior_derivative(wj, theta, (1,))
    raw = jet_einsum("acmn,cr->amnr", eta_lower(jets.field_strength(0), 1), ej)
    rhs = _alt_blocks(raw, 1, 2, 1)
    return lhs - MixedForm._wrap(3, 1, rhs.truncated(lhs.order))


def _frame_interior(einv: Jet, form: MixedForm) -> Jet:
    """Contract the first spacetime slot with the frame vector fields.

    Adds a new leading lower internal axis; returns the raw jet with axes
    [new, old internals..., remaining spacetime slots...].
    """
    if form.k == 0:
        raise DegreeError("interior contraction needs spacetime degree >= 1")
    ints = "bcde"[: form.p]
    sts = "mnrs"[: form.k]
    spec = f"{sts[0]}a,{ints}{sts}->a{ints}{sts[1:]}"
    return jet_einsum(spec, einv, form.jet)


def _interior_pairings(einv: Jet, theta: Jet, f: Jet, dvec: Jet, dpair: Jet) -> Jet:
    """The two interior-product couplings of ``_three_form_laws``, as the
    coefficient [a] of their 4-form.

    Contracts torsion against an internal-vector 3-form and the field
    strength against an internal-pair 3-form; the 1-form slot the frame
    interior leaves is wedged in, which pairs it with the 3-forms' duals
    ``dvec`` and ``dpair``.
    """
    ith = _frame_interior(einv, MixedForm(2, 1, theta))
    ifs = _frame_interior(einv, MixedForm(2, 2, f))
    return jet_einsum("abx,bx->a", ith, dvec) + jet_einsum("abcx,bcx->a", ifs, dpair)


def _stress_coframe_wedge(dvec: Jet, e_jet: Jet) -> Jet:
    """Antisymmetrized wedge of an internal-vector 3-form, given by its dual
    ``dvec``, with the lowered coframe: the coefficient [a, b] of its
    4-form, -d[a, s] e_b s antisymmetrized in (a, b)."""
    wedged = -jet_einsum("as,bs->ab", dvec, eta_lower(e_jet, 0))
    return wedged - jet_map(lambda arr: np.swapaxes(arr, 0, 1), wedged)


def _twisted_divergence(wj: Jet, dual: Jet, variances: tuple[int, ...]) -> Jet:
    """D_mu d^mu: the coefficient of the twisted derivative of the 3-form
    whose dual is ``dual``.  ``covariant_D`` puts the derivative slot just
    before the dual slot, and the two are traced."""
    raw = covariant_D(wj, dual, variances)
    axis = raw.lead + len(variances)
    return Jet._trusted(raw.order, [np.trace(arr, 0, axis, axis + 1) for arr in raw.data], raw.lead)


def _three_form_laws(
    ej: Jet, wj: Jet, einv: Jet, theta: Jet, f: Jet, vec3: MixedForm, pair3: MixedForm
) -> tuple[MixedForm, MixedForm]:
    """The derivative laws shared by the geometric sides and the sources.

    First: the twisted derivative of the internal-vector 3-form minus the
    interior-product couplings of torsion to it and of the field strength
    to the internal-pair 3-form.  Second: the twisted derivative of the
    internal-pair 3-form minus half the antisymmetrized wedge of the
    internal-vector 3-form with the lowered coframe.  Both are 4-forms,
    c * eps_{mu nu rho sigma}, returned by their coefficients c, [a] and
    [a, b], as internal-valued 0-forms.  Every term contracts against the
    3-forms' dual vectors (``three_form_dual``), so no 4-form is built.
    The coefficients are one order below the 3-forms; the other jets come
    at that order, so the algebraic terms are built to it and no deeper.
    """
    dvec = three_form_dual(vec3)
    dpair = three_form_dual(pair3)
    first = _twisted_divergence(wj, dvec, (-1,)) - _interior_pairings(einv, theta, f, dvec, dpair)
    second = _twisted_divergence(wj, dpair, (-1, -1))
    # both sides are arrays of their own: halve and subtract in place
    for d, w in zip(second.data, _stress_coframe_wedge(dvec, ej).data):
        w *= 0.5
        d -= w
    return MixedForm._wrap(0, 1, first), MixedForm._wrap(0, 2, second)


def rewritten_lhs_check(jets: PointJets) -> tuple[MixedForm, MixedForm]:
    """Derivative expansions of the two geometric equation sides.

    ``_three_form_laws`` of the curvature 3-form and the torsion 3-form:
    the coefficients [a] and [a, b] of two 4-forms, point axis first over
    a chunk.  The half in the second residual enters with the sign that
    closes the identity under the torsion conventions used here (measured
    once, pinned by a test).  Both residuals vanish for every frame and
    connection with coherent jets.
    """
    ej = jets.e(0)
    wj = jets.omega(0)
    einv = jets.inverse_tetrad(0)
    f = jets.field_strength(0)
    theta = jets.torsion(0)
    p3 = jets.curvature_three_form(1)
    s3 = jets.torsion_three_form(1)
    return _three_form_laws(ej, wj, einv, theta, f, p3, s3)


@dataclass(frozen=True)
class ConservationFormResiduals:
    """Form-language conservation defects of the matter sources, each a
    4-form c * eps_{mu nu rho sigma} held by its coefficient c as an
    internal-valued 0-form (see ``_three_form_laws``)."""

    stress: MixedForm  # coefficient [a] of the internal-vector 4-form
    spin: MixedForm  # coefficient [a, b] of the internal-pair 4-form


def conservation_form_residuals(jets: PointJets) -> ConservationFormResiduals:
    """Covariant-exterior-derivative conservation defects of the sources.

    ``_three_form_laws`` of the stress 3-form and the spin 3-form.  Both
    defects vanish on solutions of the field equations; for vacuum matter
    they are identically zero.
    """
    ej = jets.e(0)
    wj = jets.omega(0)
    tf = jets.stress_form(1)
    sf = jets.spin_form(1)
    einv = jets.inverse_tetrad(0)
    theta = jets.torsion(0)
    f = jets.field_strength(0)
    stress, spin = _three_form_laws(ej, wj, einv, theta, f, tf, sf)
    return ConservationFormResiduals(stress=stress, spin=spin)


def spin_potential_tensor(spin_jet: Jet) -> Jet:
    """Spin source packed with its vector trace, components y[mu, nu, sigma].

    This combination is the volume dual of the spin 3-form, and its full
    covariant divergence is what the component conservation law
    differentiates.  For a traceless spin source it reduces to the negated
    source itself.
    """
    tau = jet_map(lambda arr: np.einsum("mll...->m...", arr), spin_jet)
    delta = np.eye(4)
    up = jet_map(lambda arr: np.einsum("sm,n...->mns...", delta, arr), tau)
    down = jet_map(lambda arr: np.einsum("sn,m...->mns...", delta, arr), tau)
    return (spin_jet + up - down).scaled(-1.0)


@dataclass(frozen=True)
class ConservationComponentResiduals:
    """Tensor-language conservation defects of the matter sources."""

    stress: np.ndarray  # [nu], free index raised
    spin: np.ndarray  # [mu, nu]


def conservation_component_residuals(
    jets: PointJets,
) -> ConservationComponentResiduals:
    """Conservation defects built from the full coordinate connection.

    Stress law: divergence of the mixed stress tensor on its second slot,
    plus the torsion-trace coupling, minus the torsion-stress coupling,
    minus the curvature coupling to the spin potential; reported with the
    free index raised.  Spin law: divergence of the spin potential plus its
    torsion-trace coupling plus the antisymmetric part of the stress
    tensor.  Both vanish on solutions and agree with the volume duals of
    ``conservation_form_residuals`` even off solutions; index placements
    are spelled out in docs/conventions.md.
    """
    jets.e(2)
    jets.omega(2)
    gin = jets.inverse_metric(1)
    gamma = jets.christoffel(0).value
    q = jets.torsion_tensor(0).value
    trg = np.einsum("...ssl->...l", gamma)
    qtr = np.einsum("...sll->...s", q)

    tj = jets.stress(1)
    tmix = jet_einsum("mr,rs->ms", tj, gin)
    div_t = (
        np.einsum("...mss->...m", tmix.data[1])
        + np.einsum("...l,...ml->...m", trg, tmix.value)
        - np.einsum("...lsm,...ls->...m", gamma, tmix.value)
    )
    yj = spin_potential_tensor(jets.spin(1))
    riem = jets.riemann(0).value
    curv = np.einsum("...msxa,...xb,...abs->...m", riem, gin.value, yj.value)
    stress_low = (
        div_t
        + np.einsum("...s,...ms->...m", qtr, tmix.value)
        - np.einsum("...msr,...rs->...m", q, tmix.value)
        - curv
    )
    div_y = (
        np.einsum("...mnss->...mn", yj.data[1])
        + np.einsum("...l,...mnl->...mn", trg, yj.value)
        - np.einsum("...lsm,...lns->...mn", gamma, yj.value)
        - np.einsum("...lsn,...mls->...mn", gamma, yj.value)
    )
    spin_law = (
        div_y
        + np.einsum("...s,...mns->...mn", qtr, yj.value)
        + 0.5 * (tj.value - np.swapaxes(tj.value, -1, -2))
    )
    return ConservationComponentResiduals(
        stress=(gin.value @ stress_low[..., None])[..., 0], spin=spin_law
    )


def metric_compatibility_residual(jets: PointJets) -> np.ndarray:
    """Full-connection covariant derivative of the metric, [sigma, mu, nu].

    Zero for every frame paired with an antisymmetric connection; breaking
    either the frame metric or the connection's antisymmetry shows up here
    first.
    """
    g = jets.metric(1)
    gamma = jets.christoffel(0).value
    dg = np.moveaxis(g.data[1], -1, -3)
    corr = np.einsum("...lsm,...ln->...smn", gamma, g.value) + np.einsum(
        "...lsn,...ml->...smn", gamma, g.value
    )
    return dg - corr


def commutator_residual(jets: PointJets, vector_jet: Jet) -> Jet:
    """Frame-derivative commutator minus the field-strength action.

    ``vector_jet`` holds an internal vector field v[a] with jets of order
    2; the result has components [mu, nu] trailing the internal axis,
    [a, mu, nu].  Zero to rounding whenever the vector and connection jets
    are coherent.
    """
    wj = jets.omega(2)
    once = covariant_D(wj, vector_jet, (+1,))
    twice = covariant_D(wj, once, (+1,))
    anti = twice - jet_map(lambda arr: np.swapaxes(arr, 1, 2), twice)
    fmat = eta_lower(jets.field_strength(anti.order), 1)
    return anti - jet_einsum("acmn,c->amn", fmat, vector_jet)


def curvature_wedge_action(
    f_jet: Jet, alpha: MixedForm, variances: tuple[int, ...]
) -> MixedForm:
    """Field-strength wedge acting on each internal slot, signed by variance.

    This is the right side of the squared-derivative law: applying the
    twisted derivative twice multiplies by the field strength instead of
    vanishing.  Upper slots couple positively, lower slots negatively.
    """
    if len(variances) != alpha.p:
        raise DegreeError(
            f"{len(variances)} variances for internal rank {alpha.p}"
        )
    if alpha.p == 0:
        points = alpha.values.shape[: alpha.jet.lead]
        return MixedForm.zero(alpha.k + 2, 0, max(alpha.order - 2, 0), points)
    fmat = eta_lower(f_jet, 1)
    ints = "abcd"[: alpha.p]
    sts = "mnrs"[: alpha.k]
    total = None
    for slot, variance in enumerate(variances):
        xi_in = ints[:slot] + "q" + ints[slot + 1 :]
        xi_out = ints[:slot] + "p" + ints[slot + 1 :]
        wspec = "pquv" if variance > 0 else "qpuv"
        term = jet_einsum(
            f"{wspec},{xi_in}{sts}->{xi_out}uv{sts}", fmat, alpha.jet
        )
        signed = term if variance > 0 else term.scaled(-1.0)
        total = signed if total is None else total + signed
    wedged = _alt_blocks(total, alpha.p, 2, alpha.k)
    return MixedForm._wrap(alpha.k + 2, alpha.p, wedged)


def d_squared_residual(
    jets: PointJets, alpha: MixedForm, variances: tuple[int, ...]
) -> MixedForm:
    """Twice-applied twisted derivative minus the field-strength action.

    Zero to rounding for coherent jets; for a field strength that
    identically vanishes the twice-applied derivative is zero on its own.
    ``alpha`` needs jets of order 2.
    """
    wj = jets.omega(2)
    once = covariant_exterior_derivative(wj, alpha, variances)
    twice = covariant_exterior_derivative(wj, once, variances)
    return twice - curvature_wedge_action(jets.field_strength(twice.order), alpha, variances)
