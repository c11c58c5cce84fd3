"""Dense reference routes for the compact forms a run holds.

A run holds each spacetime 3-form by its dual vector and each 4-form by
its one coefficient (see ``tetradkit.forms``).  The functions here build
the same forms densely, as whole antisymmetric component arrays, the long
way: epsilon contracted into one factor and the spacetime slots alternated
over their blocks (``_alt_blocks``), block-alternating wedges
(``internal_wedge``) over their integer multiples, and twisted exterior
derivatives (``covariant_exterior_derivative``).  Tests compare each
compact route with ``three_form_dual`` of its dense reference, or with a
4-form's 0123 entry.
"""

import numpy as np

from tetradkit.fieldeqs import CURVATURE_DUAL_FACTOR, EIGHT_PI, SIXTEEN_PI, _eps_lead
from tetradkit.forms import (
    EPSILON,
    DegreeError,
    MixedForm,
    _alt_blocks,
    covariant_exterior_derivative,
    eta_lower,
    internal_wedge,
)
from tetradkit.jets import DIM, Jet, jet_einsum, jet_map

# Block-alternation multiples of ``internal_wedge`` contractions relative to
# the labeled-factor expressions they stand for, fixed by the shuffle
# normalization of the wedge; tests pin them against permutation sums.
MULT_E_E_E = -6.0  # eps_abcd wedge(wedge(e, e), e) vs eps_abcd e^b ^ e^c ^ e^d
MULT_E_E = -2.0  # wedge(e, e) vs e^c ^ e^d

# The (1|3) block shuffles of 0123: index mu first, then the other three in
# order, signed by the shuffle's parity.
_COMPLEMENTS = (np.array([1, 0, 0, 0]), np.array([2, 2, 1, 1]), np.array([3, 3, 3, 2]))
_DUAL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def three_form_dual(x: MixedForm) -> Jet:
    """The dual vector of a dense spacetime 3-form, d[mu] = s_mu x[compl mu]:
    the storage of a 3-form in a run (see ``tetradkit.forms``), internal
    axes first and mu last."""
    if x.k != 3:
        raise DegreeError(f"three_form_dual needs spacetime degree 3, got {x.k}")
    jet = x.jet
    where = (slice(None),) * (jet.lead + x.p) + _COMPLEMENTS
    data = []
    for arr in jet.data:
        dual = arr[where]
        dual *= _DUAL_SIGNS.reshape((DIM,) + (1,) * (arr.ndim - len(where)))
        data.append(dual)
    return Jet._trusted(jet.order, data, jet.lead)


def eps_pair_wedge(beta, e_jet):
    """Alt_{mn|r}(eps_abcd beta^c_mn e^d_r) for an internal-vector 2-form
    beta[c, mu, nu]: the single-labeling reading of eps_abcd beta^c ^ e^d."""
    y = jet_einsum("abcr,cmn->abmnr", _eps_lead(e_jet, 1), beta)
    return _alt_blocks(y, 2, 2, 1)


def curvature_three_form(e_jet, f_jet) -> MixedForm:
    """Alt_{m|nr}(eps_abcd e^b_m F^cd_nr), eps contracted into F first."""
    y = jet_einsum("abnr,bm->amnr", _eps_lead(f_jet, 2), e_jet)
    return MixedForm._wrap(3, 1, _alt_blocks(y, 1, 1, 2))


def torsion_three_form(theta_jet, e_jet) -> MixedForm:
    return MixedForm._wrap(3, 2, eps_pair_wedge(theta_jet, e_jet))


def spin_three_form(s_jet, e_jet, kappa: float) -> MixedForm:
    sig2 = jet_einsum("cs,mns->cmn", e_jet, s_jet)
    return MixedForm(3, 2, eps_pair_wedge(sig2, e_jet).scaled(-SIXTEEN_PI / kappa))


def stress_three_form(t_jet, einv, ginv, det, kappa: float) -> MixedForm:
    """eps_{mnrs} d[a, s], d = det e^-1 t g^-1, scaled like the run's."""
    d = jet_einsum("ma,mn->an", einv, t_jet)
    d = jet_einsum("an,ns->as", d, ginv)
    d = jet_einsum("as,->as", d, det)
    v = jet_map(lambda arr: np.einsum("mnrs,as...->amnr...", EPSILON, arr), d)
    return MixedForm(3, 1, v.scaled(EIGHT_PI * CURVATURE_DUAL_FACTOR / kappa))


def derivative_torsion_three_form(e_jet, omega_jet) -> MixedForm:
    """Epsilon contraction of the twisted derivative of the block wedge
    e ^ e, over twice its multiple."""
    ef = MixedForm(1, 1, e_jet)
    ddee = covariant_exterior_derivative(omega_jet, internal_wedge(ef, ef), (1, 1))
    return MixedForm._wrap(3, 2, _eps_lead(ddee.jet, 2).scaled(0.5 / MULT_E_E))


def cosmological_three_form(e_jet, lam: float) -> MixedForm:
    """(lambda/6) eps_abcd e^b ^ e^c ^ e^d through the block wedge."""
    ef = MixedForm(1, 1, e_jet)
    vol3 = _eps_lead(internal_wedge(internal_wedge(ef, ef), ef).jet, 3)
    return MixedForm._wrap(3, 1, vol3.scaled(lam / (6.0 * MULT_E_E_E)))


def curvature_equation_residual(jets) -> MixedForm:
    matter = jets.matter
    ej, f = jets.e(0), jets.field_strength(0)
    resid = curvature_three_form(ej, f) + cosmological_three_form(ej, matter.lam)
    stress = stress_three_form(
        jets.stress(0), jets.inverse_tetrad(0), jets.inverse_metric(0), jets.determinant(0), matter.kappa
    )
    return resid - stress.scaled(matter.kappa)


def torsion_equation_residual(jets) -> MixedForm:
    matter = jets.matter
    lhs = derivative_torsion_three_form(jets.e(1), jets.omega(0))
    return lhs - spin_three_form(jets.spin(0), jets.e(0), matter.kappa).scaled(matter.kappa)


def second_bianchi(jets) -> MixedForm:
    return covariant_exterior_derivative(jets.omega(2), MixedForm(2, 2, jets.field_strength(1)), (1, 1))


def first_bianchi(jets) -> MixedForm:
    lhs = covariant_exterior_derivative(jets.omega(1), MixedForm(2, 1, jets.torsion(1)), (1,))
    raw = jet_einsum("acmn,cr->amnr", eta_lower(jets.field_strength(0), 1), jets.e(0))
    return lhs - MixedForm._wrap(3, 1, _alt_blocks(raw, 1, 2, 1))


def curvature_wedge_action(f_jet, alpha: MixedForm, variances) -> MixedForm:
    """F ^ alpha on each internal slot, signed by variance, alternated over
    the (2|k) spacetime blocks."""
    if len(variances) != alpha.p:
        raise DegreeError(f"{len(variances)} variances for internal rank {alpha.p}")
    if alpha.p == 0:
        points = alpha.values.shape[: alpha.jet.lead]
        zero = Jet.zeros(points + (DIM,) * (alpha.k + 2), max(alpha.order - 2, 0), len(points))
        return MixedForm._wrap(alpha.k + 2, 0, zero)
    fmat = eta_lower(f_jet, 1)
    ints, sts = "abcd"[: alpha.p], "mnrs"[: alpha.k]
    total = None
    for slot, variance in enumerate(variances):
        xi_in = ints[:slot] + "q" + ints[slot + 1 :]
        xi_out = ints[:slot] + "p" + ints[slot + 1 :]
        wspec = "pquv" if variance > 0 else "qpuv"
        term = jet_einsum(f"{wspec},{xi_in}{sts}->{xi_out}uv{sts}", fmat, alpha.jet)
        signed = term if variance > 0 else term.scaled(-1.0)
        total = signed if total is None else total + signed
    return MixedForm._wrap(alpha.k + 2, alpha.p, _alt_blocks(total, alpha.p, 2, alpha.k))


def d_squared(jets, alpha: MixedForm, variances) -> MixedForm:
    wj = jets.omega(2)
    once = covariant_exterior_derivative(wj, alpha, variances)
    twice = covariant_exterior_derivative(wj, once, variances)
    return twice - curvature_wedge_action(jets.field_strength(twice.order), alpha, variances)


def three_form_laws(jets, vec3: MixedForm, pair3: MixedForm):
    """Both three-form laws as dense 4-forms: the twisted exterior
    derivatives of the 3-forms, and every wedge as an outer product
    alternated over its spacetime blocks."""
    ej, wj, einv = jets.e(0), jets.omega(0), jets.inverse_tetrad(0)
    ith = jet_einsum("ma,bmn->abn", einv, jets.torsion(0))
    ifs = jet_einsum("ma,bcmn->abcn", einv, jets.field_strength(0))
    t1 = _alt_blocks(jet_einsum("abx,bmnr->axmnr", ith, vec3.jet), 1, 1, 3)
    t2 = _alt_blocks(jet_einsum("abcx,bcmnr->axmnr", ifs, pair3.jet), 1, 1, 3)
    first = covariant_exterior_derivative(wj, vec3, (-1,)).jet - (t1 + t2)
    wedged = _alt_blocks(jet_einsum("amnr,bs->abmnrs", vec3.jet, eta_lower(ej, 0)), 2, 3, 1)
    wedged = wedged - jet_map(lambda arr: np.swapaxes(arr, 0, 1), wedged)
    second = covariant_exterior_derivative(wj, pair3, (-1, -1)).jet - wedged.scaled(0.5)
    return first, second
