"""Frame fields and the jet formulas a point derives from them.

Field objects hold expressions over a chart and evaluate to jets at a
point.  This module owns the two input formats the fields are given in:
``parse_grid`` validates and parses a 4x4 expression grid (tetrad, frame
rotation, explicit stress) and ``_PairField`` a pair-keyed entry mapping
(connection, contorsion, spin source), each raising ``GeometryError``
that names the offending entry.  Everything downstream (metric,
Christoffel symbols, field strength, torsion) is a ``*_jet`` function of
those jets.  ``pointjets.PointJets`` applies these once per point for
every consumer.  Index conventions, fixed here once:

* tetrad components e[a, mu] with the internal (frame) index first;
* inverse tetrad components einv[mu, a];
* connection components omega[a, b, mu], antisymmetric in (a, b), both
  internal indices up;
* Christoffel symbols gamma[sigma, mu, nu] with mu the derivative
  direction, so covariant derivatives read
  del_mu X^sigma = d_mu X^sigma + gamma[sigma, mu, nu] X^nu;
* curvature F[a, b, mu, nu] and Riemann riemann[mu, nu, om, sig] with the
  frame-valued pair mapped through the tetrad, Ricci ricci[mu, om]
  contracting the second and fourth Riemann slots (not symmetric when
  torsion is present);
* torsion form theta[a, mu, nu] and tensor q[mu, nu, sigma], each
  antisymmetric in (mu, nu).
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence

import numpy as np

from .exprkit import Chart, ExpressionError, eval_jet_grid, parse_expression
from .forms import ETA, covariant_D, eta_lower
from .jets import (
    DIM,
    MAX_ORDER,
    Jet,
    JetDomainError,
    _einsum_plan,
    _leibniz_sum,
    jet_einsum,
    jet_matrix_inverse,
    jet_partial,
    jet_transpose,
)

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Smallest |det e| of a frame that is not singular.
DET_THRESHOLD = 1e-10


class GeometryError(ValueError):
    """Inconsistent frame data or an operation outside its domain."""


class SingularTetradError(GeometryError):
    """Tetrad determinant too small to invert."""


class LorentzError(GeometryError):
    """A frame-rotation field failed the metric-preservation check."""


class FrameSource(Protocol):
    """Anything that evaluates frame components to a jet at a point."""

    def jet(self, point: Sequence[float], order: int) -> Jet: ...


def parse_grid(texts, chart: Chart, params: Mapping[str, float] | None, label: str) -> list:
    """Parse a 4x4 grid of expression strings against the chart.

    ``label`` names the grid in errors, which give the offending entry as
    ``label entry [i][j]`` and raise ``GeometryError``.
    """
    if not isinstance(texts, Sequence) or isinstance(texts, str) or len(texts) != DIM:
        raise GeometryError(f"{label} must be a {DIM}x{DIM} grid of expression strings")
    parsed = []
    for i, row in enumerate(texts):
        if not isinstance(row, Sequence) or isinstance(row, str) or len(row) != DIM:
            raise GeometryError(f"{label} row {i} must hold {DIM} expression strings")
        out_row = []
        for j, text in enumerate(row):
            if not isinstance(text, str):
                raise GeometryError(f"{label} entry [{i}][{j}] must be a string, got {text!r}")
            try:
                out_row.append(parse_expression(text, chart, params))
            except ExpressionError as exc:
                raise GeometryError(
                    f"{label} entry [{i}][{j}] (column {chart.coord_names[j]}): {exc}"
                ) from exc
        parsed.append(out_row)
    return parsed


class TetradField:
    """Coframe e^a = e[a, mu] dx^mu given as a 4x4 grid of expressions."""

    def __init__(self, texts: Sequence[Sequence[str]], chart: Chart, params: Mapping[str, float] | None = None):
        self.chart = chart
        self.exprs = parse_grid(texts, chart, params, "tetrad")

    def jet(self, point: Sequence[float], order: int) -> Jet:
        return eval_jet_grid(self.exprs, point, order)


class _PairField:
    """Internal-pair-indexed one-form components, stored only for a < b.

    Keys are two-digit strings like '01' with the first index strictly
    below the second; each value lists one expression per chart coordinate.
    Errors name the entry as ``symbol^{key}``.
    """

    symbol: str

    def __init__(self, entries: Mapping[str, Sequence[str]], chart: Chart, params: Mapping[str, float] | None = None):
        if not isinstance(entries, Mapping):
            raise GeometryError(
                f"{self.symbol} entries must be an object, got {type(entries).__name__}"
            )
        self.exprs = {}
        for key, comps in entries.items():
            if not isinstance(key, str) or len(key) != 2 or not (key.isascii() and key.isdigit()):
                raise self._entry_error(key, ": keys are two digits like '01'")
            a, b = int(key[0]), int(key[1])
            if a == b:
                raise self._entry_error(
                    key,
                    ": the diagonal pair must vanish identically by antisymmetry "
                    "and may not be listed",
                )
            if a > b:
                raise self._entry_error(
                    key,
                    ": store only the first-below-second component; "
                    f"{self.symbol}^{{{key[1]}{key[0]}}} is fixed by antisymmetry",
                )
            if b >= DIM:
                raise self._entry_error(key, ": indices out of range")
            if not isinstance(comps, Sequence) or isinstance(comps, str) or len(comps) != DIM:
                raise self._entry_error(key, f" needs {DIM} component expressions")
            row = []
            for mu, text in enumerate(comps):
                if not isinstance(text, str):
                    raise self._entry_error(
                        key, f" component {chart.coord_names[mu]}: expected a string, got {text!r}"
                    )
                try:
                    row.append(parse_expression(text, chart, params))
                except ExpressionError as exc:
                    raise self._entry_error(key, f" component {chart.coord_names[mu]}: {exc}") from exc
            self.exprs[(a, b)] = row

    def _entry_error(self, key, detail: str) -> GeometryError:
        return GeometryError(f"{self.symbol} entry {self.symbol}^{{{key}}}{detail}")

    def jet(self, point: Sequence[float], order: int) -> Jet:
        out = Jet.zeros((DIM, DIM, DIM), order)
        for (a, b), comps in self.exprs.items():
            row = eval_jet_grid(comps, point, order)
            for k in range(order + 1):
                out.data[k][a, b] = row.data[k]
                out.data[k][b, a] = -row.data[k]
        return out


class SpinConnectionField(_PairField):
    """Connection one-form omega[a, b, mu], antisymmetric internal pair."""

    symbol = "omega"


class ContorsionField(_PairField):
    """Difference of two frame connections; same symmetry as the connection."""

    symbol = "K"


class ZeroConnection:
    """The flat frame connection."""

    def jet(self, point: Sequence[float], order: int) -> Jet:
        return Jet.zeros((DIM, DIM, DIM), order)


# -- jet-level pipeline ----------------------------------------------------


def metric_jet(e: Jet) -> Jet:
    return jet_einsum("am,an->mn", eta_lower(e, 0), e)


def inverse_tetrad_jet(e: Jet) -> Jet:
    det = np.linalg.det(e.value)
    if abs(det) < DET_THRESHOLD:
        raise SingularTetradError(f"tetrad determinant {det:.3e} below threshold {DET_THRESHOLD:.1e}")
    try:
        return jet_matrix_inverse(e)
    except JetDomainError as exc:
        raise SingularTetradError(str(exc)) from exc


def tetrad_covariant_jet(e: Jet, omega: Jet) -> Jet:
    """Frame-covariant derivative of the coframe, components [a, mu, nu]."""
    return covariant_D(omega, e, (+1,))


def christoffel_jet(e: Jet, omega: Jet, einv: Jet) -> Jet:
    return jet_einsum("sa,amn->smn", einv, tetrad_covariant_jet(e, omega))


def field_strength_jet(omega: Jet) -> Jet:
    dw = jet_transpose(jet_partial(omega), (0, 1, 3, 2))  # [a, b, mu, nu] = d_mu omega_nu
    lin = dw - jet_transpose(dw, (0, 1, 3, 2))
    # the derivative term is one order short, so the product needs no more
    omega = omega.truncated(lin.order)
    wmat = eta_lower(omega, 1)
    quad = jet_einsum("aem,ebn->abmn", wmat, omega)
    quad = quad - jet_transpose(quad, (0, 1, 3, 2))
    return lin + quad


def torsion_jet(e: Jet, omega: Jet) -> Jet:
    de = tetrad_covariant_jet(e, omega)
    return de - jet_transpose(de, (0, 2, 1))


def torsion_tensor_jet(theta: Jet, einv: Jet) -> Jet:
    return jet_einsum("sa,amn->mns", einv, theta)


# -- Levi-Civita solve -----------------------------------------------------

_ROWS = [(a, mn) for a in range(DIM) for mn in PAIRS]


def _torsion_entries():
    """Where each tetrad entry enters the torsion system, split by sign.

    Row (a, mu < nu) of the system and column (p < q, rho) of the unknowns
    meet in at most one term: +-eta e at (q, nu) or (p, nu) when rho = mu,
    and at (q, mu) or (p, mu) when rho = nu.  Returns index arrays
    (rows, cols, internal, coordinate) for the added and the subtracted
    terms.
    """
    plus, minus = [], []
    for i, (a, (mu, nu)) in enumerate(_ROWS):
        for j, (p, q) in enumerate(PAIRS):
            if a == p:
                plus.append((i, 4 * j + mu, q, nu))
                minus.append((i, 4 * j + nu, q, mu))
            elif a == q:
                minus.append((i, 4 * j + mu, p, nu))
                plus.append((i, 4 * j + nu, p, mu))
    return tuple(np.array(side).T for side in (plus, minus))


_TORSION_PLUS, _TORSION_MINUS = _torsion_entries()
_RHS_A, _RHS_MU, _RHS_NU = np.array([(a, mu, nu) for a, (mu, nu) in _ROWS]).T
_PAIR_P, _PAIR_Q = np.array(PAIRS).T


def _torsion_matrix(e_arr: np.ndarray) -> np.ndarray:
    """Coefficients of the torsion equations in the connection unknowns.

    ``e_arr`` is a tetrad component array [a, nu, extra...]; the result has
    shape (24, 24, extra...) mapping unknowns w[(p, q), rho] (pairs p < q)
    to equations indexed by (a, mu < nu).
    """
    le = eta_lower(e_arr, 0)  # eta_{bc} e^c_nu
    mat = np.zeros((24, 24) + e_arr.shape[2:])
    rows, cols, b, n = _TORSION_PLUS
    mat[rows, cols] = 0.0 + le[b, n]
    rows, cols, b, n = _TORSION_MINUS
    mat[rows, cols] = 0.0 - le[b, n]
    return mat


def _torsion_rhs(de_arr: np.ndarray) -> np.ndarray:
    """Antisymmetrized coordinate-derivative part, rows matching _ROWS.

    ``de_arr`` holds [a, mu, nu, extra...] = d_mu e^a_nu data, derivative
    direction in the middle slot.
    """
    return de_arr[_RHS_A, _RHS_MU, _RHS_NU] - de_arr[_RHS_A, _RHS_NU, _RHS_MU]


def _expand_pairs(w: np.ndarray) -> np.ndarray:
    """Unfold flat pair-major unknowns (24, extra) to [a, b, mu, extra]."""
    extra = w.shape[1:]
    blocks = w.reshape((len(PAIRS), DIM) + extra)
    out = np.zeros((DIM, DIM, DIM) + extra)
    out[_PAIR_P, _PAIR_Q] = blocks
    out[_PAIR_Q, _PAIR_P] = -blocks
    return out


class LeviCivitaConnection:
    """Torsion-free frame connection of a tetrad, as a jet evaluator.

    Solves the 24 linear torsion-vanishing equations for the 24 independent
    connection components at the point, order by order in the derivative
    data, so the connection's own derivatives stay exact.
    """

    def __init__(self, e: FrameSource):
        self.e = e

    def jet(self, point: Sequence[float], order: int) -> Jet:
        if order >= MAX_ORDER:
            raise GeometryError(
                f"connection jets stop at order {MAX_ORDER - 1}; "
                f"the solve needs tetrad data one order higher"
            )
        ej = self.e.jet(point, order + 1)
        det = np.linalg.det(ej.value)
        if abs(det) < DET_THRESHOLD:
            raise SingularTetradError(f"tetrad determinant {det:.3e} below threshold {DET_THRESHOLD:g}")
        mats = [_torsion_matrix(ej.data[k]) for k in range(order + 1)]
        rhs0 = [
            _torsion_rhs(np.moveaxis(ej.data[k + 1], 2, 1)) for k in range(order + 1)
        ]
        try:
            lu = np.linalg.inv(mats[0])
        except np.linalg.LinAlgError as exc:
            raise SingularTetradError(f"torsion system singular: {exc}") from exc
        sols = []
        plan = _einsum_plan("rc,c->r", order, lu.shape, lu.shape[:1])
        for k in range(order + 1):
            # M0 . w_k = -(rhs0_k + the terms of D^k(M w) with i >= 1 derivatives on M)
            rhs = _leibniz_sum(plan[k][1:], mats, sols, rhs0[k])
            sols.append(-(lu @ rhs.reshape(len(rhs), -1)).reshape(rhs.shape))
        return Jet._trusted(order, [_expand_pairs(w) for w in sols])


class SummedConnection:
    """Pointwise sum of a base connection and a contorsion source."""

    def __init__(self, base: FrameSource, extra: FrameSource):
        self.base = base
        self.extra = extra

    def jet(self, point: Sequence[float], order: int) -> Jet:
        return self.base.jet(point, order) + self.extra.jet(point, order)


# -- local frame rotations -------------------------------------------------


class LorentzField:
    """Pointwise internal-frame rotation Lambda[a, b] from expressions.

    Every evaluation checks that the value preserves the internal metric
    (Lambda^T eta Lambda = eta to 1e-10) and fails loudly otherwise.
    """

    def __init__(self, texts: Sequence[Sequence[str]], chart: Chart, params: Mapping[str, float] | None = None):
        self.exprs = parse_grid(texts, chart, params, "frame rotation")

    def jet(self, point: Sequence[float], order: int) -> Jet:
        lam = eval_jet_grid(self.exprs, point, order)
        defect = lam.value.T @ ETA @ lam.value - ETA
        if np.max(np.abs(defect)) > 1e-10:
            raise LorentzError(
                f"frame rotation at {tuple(point)} distorts the internal metric "
                f"by {np.max(np.abs(defect)):.3e}"
            )
        return lam


class TransformedTetrad:
    """Tetrad seen from a rotated frame: e'[a, mu] = Lambda[a, b] e[b, mu]."""

    def __init__(self, e: FrameSource, lam: FrameSource):
        self.e = e
        self.lam = lam

    def jet(self, point: Sequence[float], order: int) -> Jet:
        return jet_einsum("ab,bm->am", self.lam.jet(point, order), self.e.jet(point, order))


class TransformedConnection:
    """Gauge-transformed connection with the inhomogeneous derivative term.

    In matrix form W^a_b = omega^{ac} eta_{cb} the rule is
    W' = Lambda W Lambda^{-1} - dLambda Lambda^{-1}; the result is converted
    back to both-indices-up components and antisymmetrized, after checking
    that the asymmetry introduced by roundoff stays small.
    """

    def __init__(self, omega: FrameSource, lam: FrameSource):
        self.omega = omega
        self.lam = lam

    def jet(self, point: Sequence[float], order: int) -> Jet:
        if order >= MAX_ORDER:
            raise GeometryError(
                f"transformed connection jets stop at order {MAX_ORDER - 1}; "
                "the derivative term needs rotation data one order higher"
            )
        lam = self.lam.jet(point, order + 1)
        lam_inv = jet_matrix_inverse(lam)
        w = self.omega.jet(point, order)
        wmat = eta_lower(w, 1)
        conj = jet_einsum("acm,cb->abm", jet_einsum("ac,cbm->abm", lam, wmat), lam_inv)
        dlam = jet_partial(lam)  # [a, b, mu]
        inhom = jet_einsum("abm,bc->acm", dlam, lam_inv)
        wprime = eta_lower(conj - inhom, 1)  # eta^{cb} = eta
        skew = wprime.value + wprime.value.transpose(1, 0, 2)
        if np.max(np.abs(skew)) > 1e-8 * max(1.0, np.max(np.abs(wprime.value))):
            raise LorentzError("transformed connection lost internal antisymmetry")
        return Jet(
            wprime.order,
            [0.5 * (d - d.transpose((1, 0) + tuple(range(2, d.ndim)))) for d in wprime.data],
        )


def lorentz_transform(
    e: FrameSource, omega: FrameSource, lam: FrameSource
) -> tuple[TransformedTetrad, TransformedConnection]:
    return TransformedTetrad(e, lam), TransformedConnection(omega, lam)

