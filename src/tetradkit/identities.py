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
that order decides which fault a point reports when both fail.  Every
residual is a plain jet or array, point axis first; a function that takes
a form takes its jet with its spacetime degree and the variance of each
internal slot.

Two transcription facts thread through the module:

* Every 3-form here is held by its dual vector and every 4-form by its
  coefficient (see ``forms``), and twisted derivatives of 2- and 3-forms
  are divergences of those (``forms.twisted_divergence``).  Where an
  identity acquires a fixed sign under these conventions, the code carries
  the measured sign and a test pins it.  The one instance is the second
  half of ``rewritten_lhs_check``.
* The component conservation laws are the volume duals of the form laws.
  Dualizing puts the divergence on the second stress slot, brings in a
  torsion-trace coupling, and packages the spin source with its vector
  trace (``spin_potential_tensor``).  Every index placement is recorded in
  docs/conventions.md, and tests verify the component residuals equal the
  dualized form residuals to rounding, off solutions as well as on them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .forms import (
    DegreeError,
    check_degrees,
    covariant_D,
    eta_lower,
    slot_action,
    twisted_divergence,
    two_form_dual,
)
from .jets import DIM, Jet, jet_einsum
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


def second_bianchi_residual(jets: PointJets) -> Jet:
    """Twisted exterior derivative of the field strength.

    Identically zero for any connection; returns the internal-pair 3-form,
    by its dual vector [a, b, mu], so callers can inspect where coherence
    fails.  Reads the connection through order 2.
    """
    wmix = jets.omega_lowered(2)
    return twisted_divergence(wmix, two_form_dual(jets.field_strength(1), 2), (1, 1))


def first_bianchi_residual(jets: PointJets) -> Jet:
    """Twisted derivative of torsion minus the curvature-coframe wedge.

    The subtracted term contracts the field strength's second internal slot
    into the coframe through the frame metric before the spacetime wedge,
    so no block-alternation multiple appears.  Internal-vector 3-form, by
    its dual vector [a, mu], zero for every frame and connection.
    """
    ej = jets.e(2)
    wmix = jets.omega_lowered(1)
    lhs = twisted_divergence(wmix, two_form_dual(jets.torsion(1), 1), (1,))
    fdual = two_form_dual(eta_lower(jets.field_strength(0), 1), 2)
    return lhs - jet_einsum("acur,cr->au", fdual, ej)


def _interior_pairings(einv: Jet, theta: Jet, f: Jet, dvec: Jet, dpair: Jet) -> Jet:
    """The two interior-product couplings of ``_three_form_laws``, as the
    coefficient [a] of their 4-form: with their first spacetime slot
    contracted with the frame vector fields, the torsion and the field
    strength pair their other slot with the 3-form duals ``dvec``, ``dpair``."""
    ith = jet_einsum("ma,bmx->abx", einv, theta)
    ifs = jet_einsum("ma,bcmx->abcx", einv, f)
    return jet_einsum("abx,bx->a", ith, dvec) + jet_einsum("abcx,bcx->a", ifs, dpair)


def _stress_coframe_wedge(dvec: Jet, e_jet: Jet) -> Jet:
    """Antisymmetrized wedge of an internal-vector 3-form, given by its dual
    ``dvec``, with the lowered coframe: the coefficient [a, b] of its
    4-form, -d[a, s] e_b s antisymmetrized in (a, b)."""
    wedged = -jet_einsum("as,bs->ab", dvec, eta_lower(e_jet, 0))
    return wedged - Jet._trusted(wedged.order, [d.swapaxes(1, 2) for d in wedged.data])


def _three_form_laws(
    ej: Jet, wmix: Jet, einv: Jet, theta: Jet, f: Jet, dvec: Jet, dpair: Jet
) -> tuple[Jet, Jet]:
    """The derivative laws shared by the geometric sides and the sources.

    First: the twisted derivative of the internal-vector 3-form minus the
    interior-product couplings of torsion to it and of the field strength
    to the internal-pair 3-form.  Second: the twisted derivative of the
    internal-pair 3-form minus half the antisymmetrized wedge of the
    internal-vector 3-form with the lowered coframe.  The 3-forms come by
    their dual vectors ``dvec`` and ``dpair``.  Both laws are 4-forms,
    c * eps_{mu nu rho sigma}, returned by their coefficients c, [a] and
    [a, b], as internal-valued 0-forms; every term contracts against the
    duals, so no 4-form is built.  The coefficients are one order below
    the 3-forms; the other jets come at that order, so the algebraic terms
    are built to it and no deeper.
    """
    first = twisted_divergence(wmix, dvec, (-1,)) - _interior_pairings(einv, theta, f, dvec, dpair)
    second = twisted_divergence(wmix, dpair, (-1, -1))
    # both sides are arrays of their own: halve and subtract in place
    for d, w in zip(second.data, _stress_coframe_wedge(dvec, ej).data):
        w *= 0.5
        d -= w
    return first, second


def rewritten_lhs_check(jets: PointJets) -> tuple[Jet, Jet]:
    """Derivative expansions of the two geometric equation sides.

    ``_three_form_laws`` of the curvature 3-form and the torsion 3-form,
    read by their dual vectors: the coefficients [a] and [a, b] of two
    4-forms, point axis first.  The half in the second residual enters with
    the sign that closes the identity under the torsion conventions used
    here (measured once, pinned by a test).  Both residuals vanish for every frame and
    connection with coherent jets.
    """
    ej = jets.e(0)
    wmix = jets.omega_lowered(0)
    einv = jets.inverse_tetrad(0)
    f = jets.field_strength(0)
    theta = jets.torsion(0)
    return _three_form_laws(
        ej, wmix, einv, theta, f, jets.curvature_three_form(1), jets.torsion_three_form(1)
    )


class ConservationFormResiduals(NamedTuple):
    """Form-language conservation defects of the matter sources, each a
    4-form c * eps_{mu nu rho sigma} held by its coefficient c as an
    internal-valued 0-form (see ``_three_form_laws``)."""

    stress: Jet  # coefficient [a] of the internal-vector 4-form
    spin: Jet  # coefficient [a, b] of the internal-pair 4-form


def conservation_form_residuals(jets: PointJets) -> ConservationFormResiduals:
    """Covariant-exterior-derivative conservation defects of the sources.

    ``_three_form_laws`` of the stress 3-form and the spin 3-form.  Both
    defects vanish on solutions of the field equations; for vacuum matter
    they are identically zero.
    """
    ej = jets.e(0)
    wmix = jets.omega_lowered(0)
    tf = jets.stress_form(1)
    sf = jets.spin_form(1)
    einv = jets.inverse_tetrad(0)
    theta = jets.torsion(0)
    f = jets.field_strength(0)
    return ConservationFormResiduals(*_three_form_laws(ej, wmix, einv, theta, f, tf, sf))


def spin_potential_tensor(spin_jet: Jet) -> Jet:
    """Spin source packed with its vector trace, components y[mu, nu, sigma].

    This combination is the volume dual of the spin 3-form, and its full
    covariant divergence is what the component conservation law
    differentiates.  For a traceless spin source it reduces to the negated
    source itself.
    """
    tau = [np.einsum("zmll...->zm...", d) for d in spin_jet.data]
    delta = np.eye(4)
    up = Jet._trusted(spin_jet.order, [np.einsum("sm,zn...->zmns...", delta, d) for d in tau])
    down = Jet._trusted(spin_jet.order, [np.einsum("sn,zm...->zmns...", delta, d) for d in tau])
    return (spin_jet + up - down).scaled(-1.0)


class ConservationComponentResiduals(NamedTuple):
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
    are coherent: it is ``d_squared_residual`` of v as a 0-form.
    """
    return d_squared_residual(jets, vector_jet, 0, (1,))


def _check_low_degree(alpha: Jet, k: int, variances: tuple[int, ...]) -> None:
    """``check_degrees`` for a k-form that gains two degrees: k is at most 2."""
    check_degrees(alpha, k, len(variances))
    if k > 2:
        raise DegreeError(f"a {k}-form raised by two degrees exceeds spacetime degree 4")


def curvature_wedge_action(f_jet: Jet, alpha: Jet, k: int, variances: tuple[int, ...]) -> Jet:
    """Field-strength wedge acting on each internal slot, signed by variance.

    This is the right side of the squared-derivative law: applying the
    twisted derivative twice multiplies by the field strength instead of
    vanishing.  Upper slots couple positively, lower slots negatively.
    ``alpha`` is a ``k``-form with one internal slot per entry of
    ``variances``.  For k = 0, 1 or 2 the (k+2)-form comes as
    ``d_squared_residual`` returns it: dense, by its dual vector
    F*_um alpha_m, or by its coefficient (1/2) F*_mn alpha_mn.
    """
    _check_low_degree(alpha, k, variances)
    if not variances:
        return Jet.zeros((len(alpha.value),) + (DIM,) * (2 - k), max(alpha.order - 2, 0))
    fmat = eta_lower(f_jet, 1)
    if k:
        fmat = two_form_dual(fmat, 2).scaled(1.0 if k == 1 else 0.5)
    f_sts, a_sts, out_sts = (("uv", "", "uv"), ("um", "m", "u"), ("mn", "mn", ""))[k]
    return slot_action(fmat, alpha, variances, f"{{w}}{f_sts},{{i}}{a_sts}->{{o}}{out_sts}")


def _twisted_exterior(wmix: Jet, x: Jet, variances: tuple[int, ...], k: int) -> Jet:
    """Twisted exterior derivative of a k-form held as a run holds it: a
    form of degree 0-2 densely, a 3-form by its dual vector."""
    if k >= 2:
        return twisted_divergence(wmix, two_form_dual(x, len(variances)) if k == 2 else x, variances)
    raw = covariant_D(wmix, x, variances)
    if k == 0:
        return raw
    at = 1 + len(variances)
    return raw - Jet._trusted(raw.order, [d.swapaxes(at, at + 1) for d in raw.data])


def d_squared_residual(jets: PointJets, alpha: Jet, k: int, variances: tuple[int, ...]) -> Jet:
    """Twice-applied twisted derivative minus the field-strength action.

    Zero to rounding for coherent jets; for a field strength that
    identically vanishes the twice-applied derivative is zero on its own.
    ``alpha`` is a ``k``-form, k = 0, 1 or 2, with one internal slot per
    entry of ``variances`` and jets of order 2.  The (k+2)-form comes
    densely for k = 0, by its dual vector for k = 1, and by its
    coefficient for k = 2.
    """
    _check_low_degree(alpha, k, variances)
    wmix = jets.omega_lowered(2)
    once = _twisted_exterior(wmix, alpha, variances, k)
    twice = _twisted_exterior(wmix, once, variances, k + 1)
    return twice - curvature_wedge_action(jets.field_strength(twice.order), alpha, k, variances)
