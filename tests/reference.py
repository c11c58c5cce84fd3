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

Expression jets have two references here.  ``tree_walk_jet`` walks the
tree with a full jet at every node, constants and coordinates included,
and a Leibniz product at every ``*``: the route an ``exprkit.JetProgram``
shortcuts and batches level by level; ``tree_walk_field`` assembles a
field's jet from it entry by entry.  ``finite_difference_oracle`` estimates the jet by central
differences of mpmath values and shares nothing with the chain rule code
but the parsed tree.
"""

from typing import Sequence

import mpmath
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
from tetradkit.exprkit import (
    _CALLS,
    BinOp,
    Call,
    ChartDomainError,
    Const,
    CoordRef,
    DomainFault,
    Expression,
    ExpressionError,
    Neg,
    Node,
    ParamRef,
    Pow,
    _node_str,
)
from tetradkit.jets import (
    DIM,
    MAX_ORDER,
    Jet,
    JetDomainError,
    _carry,
    _mul_scalar,
    jet_einsum,
    jet_pow_int,
    jet_pow_real,
    jet_reciprocal,
)

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
    where = (slice(None),) * (1 + x.p) + _COMPLEMENTS
    data = []
    for arr in jet.data:
        dual = arr[where]
        dual *= _DUAL_SIGNS.reshape((DIM,) + (1,) * (arr.ndim - len(where)))
        data.append(dual)
    return Jet._trusted(jet.order, data)


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
    v = Jet(d.order, [np.einsum("mnrs,zas...->zamnr...", EPSILON, arr) for arr in d.data])
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
        zero = Jet.zeros((len(alpha.values),) + (DIM,) * (alpha.k + 2), max(alpha.order - 2, 0))
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
    wedged = wedged - Jet(wedged.order, [arr.swapaxes(1, 2) for arr in wedged.data])
    second = covariant_exterior_derivative(wj, pair3, (-1, -1)).jet - wedged.scaled(0.5)
    return first, second


# -- expression jets ---------------------------------------------------------


def jet_stack(jets: Sequence[Jet], axis: int = 0) -> Jet:
    """Stack jets with identical component shapes along a new component
    axis: how a grid's jet was assembled entry by entry, laid out as a
    grid field's jet must be."""
    order = min(j.order for j in jets)
    return Jet._trusted(order, [np.stack([j.data[k] for j in jets], axis=1 + axis) for k in range(order + 1)])


def tree_walk_field(field, points, order: int, faults: list) -> Jet:
    """A grid or pair field's jet by ``tree_walk_jet`` of each entry in the
    field's fault order, the grid stacked and the pairs scattered with
    their antisymmetric partners into a zero jet."""
    if not isinstance(field.exprs, dict):
        return jet_stack([jet_stack([tree_walk_jet(e, points, order, faults) for e in row]) for row in field.exprs])
    out = Jet.zeros((len(points), DIM, DIM, DIM), order)
    for (a, b), comps in field.exprs.items():
        row = jet_stack([tree_walk_jet(e, points, order, faults) for e in comps])
        for k in range(order + 1):
            out.data[k][:, a, b] = row.data[k]
            out.data[k][:, b, a] = -row.data[k]
    return out


def tree_walk_jet(expr: Expression, points, order: int, faults: list) -> Jet:
    """``exprkit.eval_jet`` by a full jet at every node of the tree."""
    if not 0 <= order <= MAX_ORDER:
        raise ExpressionError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    return _TreeWalk(expr.chart.require_inside(points), order, faults).jet(expr.root)


class _TreeWalk:
    """One post-order walk at N points, every node's jet with the point
    axis first.  A point's first fault, a ``JetDomainError`` renamed to a
    ``DomainFault`` naming its node, goes into its slot of ``faults``, and
    from then on every operand is carried as the constant 1 there."""

    def __init__(self, points: np.ndarray, order: int, faults: list):
        self.points = points
        self.order = order
        self.faults = faults
        self.dead = np.array([f is not None for f in faults]) if any(faults) else None

    def jet(self, node: Node) -> Jet:
        if isinstance(node, (Const, ParamRef)):
            return Jet.constant(np.full(len(self.points), node.value), self.order)
        if isinstance(node, CoordRef):
            return Jet.coordinate(node.index, self.points[:, node.index], self.order)
        if isinstance(node, Neg):
            return -self.jet(node.operand)
        if isinstance(node, BinOp):
            a = self.jet(node.left)
            b = self.jet(node.right)
            if node.op == "/":
                b = self._chain(node, jet_reciprocal, b)
            a, b = self._live(a), self._live(b)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            return _mul_scalar(a, b)
        if isinstance(node, Pow):
            base = self.jet(node.base)
            if isinstance(node.exponent, int):
                return self._chain(node, jet_pow_int, base, node.exponent)
            return self._chain(node, jet_pow_real, base, node.exponent)
        if isinstance(node, Call):
            return self._chain(node, _CALLS[node.func], self.jet(node.arg))
        raise TypeError(f"unknown node {node!r}")

    def _live(self, a: Jet) -> Jet:
        return a if self.dead is None else _carry(a, self.dead)

    def _chain(self, node: Node, fn, a: Jet, *args) -> Jet:
        faults = self.faults
        live = faults.count(None)
        out = fn(self._live(a), *args, faults=faults)
        if faults.count(None) != live:
            text = _node_str(node)
            for i, fault in enumerate(faults):
                if isinstance(fault, JetDomainError) and (self.dead is None or not self.dead[i]):
                    faults[i] = DomainFault(str(fault), text)
            self.dead = np.array([f is not None for f in faults])
        return out


def _eval_mp(node: Node, coords: Sequence) -> mpmath.mpf:
    """Value-only evaluation with mpmath numbers; independent of jet code."""
    if isinstance(node, Const):
        return mpmath.mpf(node.value)
    if isinstance(node, ParamRef):
        return mpmath.mpf(node.value)
    if isinstance(node, CoordRef):
        return coords[node.index]
    if isinstance(node, Neg):
        return -_eval_mp(node.operand, coords)
    if isinstance(node, BinOp):
        a = _eval_mp(node.left, coords)
        b = _eval_mp(node.right, coords)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise DomainFault("division by zero", _node_str(node))
        return a / b
    if isinstance(node, Pow):
        base = _eval_mp(node.base, coords)
        if isinstance(node.exponent, int):
            if node.exponent < 0 and base == 0:
                raise DomainFault("division by zero", _node_str(node))
            return mpmath.power(base, node.exponent)
        if base <= 0:
            raise DomainFault(f"real power of non-positive base {float(base)}", _node_str(node))
        return mpmath.power(base, node.exponent)
    if isinstance(node, Call):
        arg = _eval_mp(node.arg, coords)
        if node.func == "log":
            if arg <= 0:
                raise DomainFault(f"log of non-positive value {float(arg)}", _node_str(node))
            return mpmath.log(arg)
        if node.func == "sqrt":
            if arg < 0:
                raise DomainFault(f"sqrt of negative value {float(arg)}", _node_str(node))
            return mpmath.sqrt(arg)
        return getattr(mpmath, node.func)(arg)
    raise TypeError(f"unknown node {node!r}")


def finite_difference_oracle(
    expr: Expression,
    point: Sequence[float],
    order: int,
    step: float = 1e-5,
    dps: int = 40,
) -> Jet:
    """Estimate the jet at one point, as a chunk of one, by nested central
    differences of expression values.

    Each derivative index applies one symmetric two-point stencil of width
    2*step, so a partial of order k touches 2**k shifted points.  Values are
    evaluated with mpmath working precision ``dps`` so the estimate is
    truncation-limited (error O(step**2) per direction), and shared stencil
    points are cached.  The stencil must stay inside the chart box.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ExpressionError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    point = expr.chart.require_inside([point])[0]
    for i, (lo, hi) in enumerate(expr.chart.bounds):
        if point[i] - order * step < lo or point[i] + order * step > hi:
            raise ChartDomainError(
                f"difference stencil of order {order}, step {step} leaves the chart "
                f"box in coordinate '{expr.chart.coord_names[i]}'"
            )

    cache: dict[tuple[int, ...], mpmath.mpf] = {}

    with mpmath.workdps(dps):
        h = mpmath.mpf(step)
        base = [mpmath.mpf(float(x)) for x in point]

        def value_at(offsets: tuple[int, ...]) -> mpmath.mpf:
            if offsets not in cache:
                coords = [base[i] + offsets[i] * h for i in range(DIM)]
                cache[offsets] = _eval_mp(expr.root, coords)
            return cache[offsets]

        def central(indices: tuple[int, ...], offsets: tuple[int, ...]) -> mpmath.mpf:
            if not indices:
                return value_at(offsets)
            mu, rest = indices[0], indices[1:]
            up = list(offsets)
            up[mu] += 1
            dn = list(offsets)
            dn[mu] -= 1
            return (central(rest, tuple(up)) - central(rest, tuple(dn))) / (2 * h)

        data = [np.array([float(value_at((0,) * DIM))])]
        for k in range(1, order + 1):
            arr = np.zeros((DIM,) * k)
            for idx in np.ndindex(*(DIM,) * k):
                key = tuple(sorted(idx))
                if idx == key:
                    arr[idx] = float(central(key, (0,) * DIM))
            # symmetrize from the computed representatives
            for idx in np.ndindex(*(DIM,) * k):
                key = tuple(sorted(idx))
                if idx != key:
                    arr[idx] = arr[key]
            data.append(arr[None])
    return Jet(order, data)
