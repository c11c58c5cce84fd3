"""Frame fields and the jet formulas a point derives from them.

Field objects hold expressions over a chart and evaluate to jets at a
point, and the expression fields at an (N, 4) array of points at once.
This module owns the two input formats the fields are given in:
``parse_grid`` validates and parses a 4x4 expression grid (tetrad, frame
rotation, explicit stress) and ``_PairField`` a pair-keyed entry mapping
(connection, contorsion, spin source), each raising ``GeometryError``
that names the offending entry.  Everything downstream (metric, the
Levi-Civita connection in closed form, Christoffel symbols, field
strength, torsion) is a ``*_jet`` function of those jets, which
``pointjets.PointJets`` applies once per point for every consumer.
Index conventions, fixed here once:

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

from .exprkit import Chart, ExpressionError, JetBatch, eval_jet_grid, first_faults, parse_expression
from .forms import ETA, covariant_D, eta_lower
from .jets import (
    DIM,
    MAX_ORDER,
    Jet,
    JetDomainError,
    jet_einsum,
    jet_matrix_inverse,
    jet_partial,
    jet_transpose,
)

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

    def jet(self, point: Sequence[float], order: int) -> Jet | JetBatch:
        """The jet at a point, or a ``JetBatch`` at an (N, 4) array of points."""
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

    def jet(self, point: Sequence[float], order: int) -> Jet | JetBatch:
        """The jet at a point, or a ``JetBatch`` at an (N, 4) array of
        points, whose faults follow entry order."""
        rows = [(pair, eval_jet_grid(comps, point, order)) for pair, comps in self.exprs.items()]
        points = np.asarray(point, dtype=float)
        lead = points.shape[:-1]
        out = Jet.zeros(lead + (DIM, DIM, DIM), order)
        at = (slice(None),) * len(lead)
        for (a, b), row in rows:
            jet = row.jet if lead else row
            for k in range(order + 1):
                out.data[k][at + (a, b)] = jet.data[k]
                out.data[k][at + (b, a)] = -jet.data[k]
        if not lead:
            return out
        return JetBatch(out, first_faults([row.faults for _, row in rows], len(points)))


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


# -- connection recipes ----------------------------------------------------


def levi_civita_jet(e: Jet, einv: Jet) -> Jet:
    """Torsion-free frame connection omega[a, b, mu] in closed form.

    With the anholonomy C^a = de^a, frame components C_abc, the connection
    is omega_abc = (C_abc + C_bca - C_cab) / 2.  ``e`` must be one order
    deeper than ``einv``, which sets the result's order.
    """
    de = jet_partial(e)  # [a, nu, mu] = d_mu e^a_nu
    c = eta_lower(de - jet_transpose(de, (0, 2, 1)), 0)  # [a, nu, mu] = C_a,mu nu
    half = jet_einsum("amn,nb->abm", c, einv)  # C_abd e^d_mu
    frame = jet_einsum("abm,md->abd", half, einv)  # C_abd
    e = e.truncated(einv.order)
    w = half - jet_transpose(half, (1, 0, 2)) - jet_einsum("dab,dm->abm", frame, e)
    return eta_lower(eta_lower(w.scaled(0.5), 0), 1)  # both internal indices up


class LeviCivitaConnection:
    """Torsion-free frame connection of a tetrad, as a jet evaluator.

    ``levi_civita_jet`` of the tetrad one order deeper and its inverse; a
    run applies the same formula to its point's memoized jets instead.
    """

    def __init__(self, e: FrameSource):
        self.e = e

    def jet(self, point: Sequence[float], order: int) -> Jet:
        if order >= MAX_ORDER:
            raise GeometryError(
                f"connection jets stop at order {MAX_ORDER - 1}; "
                f"the formula needs tetrad data one order higher"
            )
        ej = self.e.jet(point, order + 1)
        return levi_civita_jet(ej, inverse_tetrad_jet(ej.truncated(order)))


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

