"""Frame fields and the jet formulas a chunk of points derives from them.

Field objects hold expressions over a chart, compiled into one
``exprkit.JetProgram`` per field, and evaluate to jets at an (N, 4) array
of points at once (see ``FrameSource``).
This module owns the two input formats the fields are given in:
``parse_grid`` validates and parses a 4x4 expression grid (tetrad,
explicit stress) and ``_PairField`` a pair-keyed entry mapping
(connection, contorsion, spin source), each raising ``GeometryError``
that names the offending entry.  Everything downstream (metric, the
Levi-Civita connection in closed form, Christoffel symbols, field
strength, torsion) is a ``*_jet`` function of those jets, which
``pointjets.PointJets`` applies once per chunk of points for every
consumer.  Every jet carries the point axis first, ahead of the component
axes listed below.
Index conventions, fixed here once:

* tetrad components e[a, mu] with the internal (frame) index first;
* inverse tetrad components einv[mu, a];
* connection components omega[a, b, mu], antisymmetric in (a, b), both
  internal indices up; covariant derivatives take omega^a_c with the
  second lowered (``eta_lower(omega, 1)``), written ``wmix``;
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

from .exprkit import Chart, ExpressionError, JetProgram, eval_jet_grid, parse_expression
from .forms import covariant_D, eta_lower
from .jets import (
    DIM,
    MAX_ORDER,
    Jet,
    jet_einsum,
    jet_matrix_inverse,
    jet_partial,
    jet_transpose,
)

# ``eval_jet_grid`` is re-exported although nothing here calls it: the
# benchmark's perfbench/tests/test_trace.py::test_uninstall_restores_every_binding
# reads ``geometry.eval_jet_grid``, so the name stays until that test reads
# a binding a run uses
__all__ = ["DET_THRESHOLD", "ContorsionField", "FrameSource", "GeometryError", "LeviCivitaConnection",
           "SingularTetradError", "SpinConnectionField", "SummedConnection", "TetradField", "christoffel_jet",
           "eval_jet_grid", "field_strength_jet", "inverse_tetrad_jet", "levi_civita_jet", "metric_jet",
           "parse_grid", "singular_frames", "tetrad_covariant_jet", "torsion_jet", "torsion_tensor_jet"]

# Smallest |det e| of a frame that is not singular.
DET_THRESHOLD = 1e-10


class GeometryError(ValueError):
    """Inconsistent frame data or an operation outside its domain."""


class SingularTetradError(GeometryError):
    """Tetrad determinant too small to invert."""


class FrameSource(Protocol):
    """Anything that evaluates frame components to a jet at an (N, 4) array
    of points, the point axis first.

    A point's first fault goes into its empty slot of ``faults``, and the
    point is carried as the constant 1.  A source made of parts passes the
    list on to them.
    """

    def jet(self, points: np.ndarray, order: int, faults: list) -> Jet: ...


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


class _GridField:
    """A 4x4 grid of expressions, parsed against the chart and compiled into
    one ``JetProgram``; the class's ``label`` names the grid in errors."""

    def __init__(self, texts: Sequence[Sequence[str]], chart: Chart, params: Mapping[str, float] | None = None):
        self.chart = chart
        self.exprs = parse_grid(texts, chart, params, self.label)
        self.program = JetProgram([expr for row in self.exprs for expr in row], (DIM, DIM))

    def jet(self, points: np.ndarray, order: int, faults: list) -> Jet:
        return self.program.jet(points, order, faults)


class TetradField(_GridField):
    """Coframe e^a = e[a, mu] dx^mu given as a 4x4 grid of expressions."""

    label = "tetrad"


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
        # each stored entry sits at [a, b, mu], its negation at [b, a, mu]
        layout = [None] * DIM**3
        for i, ((a, b), mu) in enumerate((pair, mu) for pair in self.exprs for mu in range(DIM)):
            layout[(a * DIM + b) * DIM + mu], layout[(b * DIM + a) * DIM + mu] = i, -1 - i
        self.program = JetProgram([e for row in self.exprs.values() for e in row], (DIM, DIM, DIM), layout)

    def _entry_error(self, key, detail: str) -> GeometryError:
        return GeometryError(f"{self.symbol} entry {self.symbol}^{{{key}}}{detail}")

    def jet(self, points: np.ndarray, order: int, faults: list) -> Jet:
        """The jet; entries fault in insertion order."""
        return self.program.jet(points, order, faults)


class SpinConnectionField(_PairField):
    """Connection one-form omega[a, b, mu], antisymmetric internal pair."""

    symbol = "omega"


class ContorsionField(_PairField):
    """Difference of two frame connections; same symmetry as the connection."""

    symbol = "K"


# -- jet-level pipeline ----------------------------------------------------


def metric_jet(e: Jet) -> Jet:
    return jet_einsum("am,an->mn", eta_lower(e, 0), e)


def inverse_tetrad_jet(e: Jet, faults: list) -> Jet:
    """The inverse tetrad einv[mu, a].

    A point whose tetrad has |det e| below ``DET_THRESHOLD``, or has no
    inverse, stores a ``SingularTetradError`` in its slot of ``faults``,
    unless the slot holds an earlier fault, and is inverted as the
    identity frame.
    """
    det, bad = singular_frames(e.value)
    if bad.any():
        for i in np.flatnonzero(bad):
            if faults[i] is None:
                faults[i] = SingularTetradError(_below_threshold(det[i]))
        value = np.where(bad[:, None, None], np.eye(DIM), e.value)
        e = Jet._trusted(e.order, [value] + e.data[1:])
    return jet_matrix_inverse(e, faults, _singular_tetrad)


def singular_frames(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's det e, and where |det e| is below ``DET_THRESHOLD``."""
    det = np.linalg.det(e)
    return det, np.abs(det) < DET_THRESHOLD


def _below_threshold(det: float) -> str:
    return f"tetrad determinant {det:.3e} below threshold {DET_THRESHOLD:.1e}"


def _singular_tetrad(exc: Exception) -> SingularTetradError:
    return SingularTetradError(f"singular matrix in jet inverse: {exc}")


def tetrad_covariant_jet(e: Jet, wmix: Jet) -> Jet:
    """Frame-covariant derivative of the coframe, components [a, mu, nu]."""
    return covariant_D(wmix, e, (+1,))


def christoffel_jet(e: Jet, wmix: Jet, einv: Jet) -> Jet:
    return jet_einsum("sa,amn->smn", einv, tetrad_covariant_jet(e, wmix))


def field_strength_jet(omega: Jet) -> Jet:
    dw = jet_transpose(jet_partial(omega), (0, 1, 3, 2))  # [a, b, mu, nu] = d_mu omega_nu
    lin = dw - jet_transpose(dw, (0, 1, 3, 2))
    # the derivative term is one order short, so the product needs no more
    omega = omega.truncated(lin.order)
    wmat = eta_lower(omega, 1)
    quad = jet_einsum("aem,ebn->abmn", wmat, omega)
    quad = quad - jet_transpose(quad, (0, 1, 3, 2))
    return lin + quad


def torsion_jet(e: Jet, wmix: Jet) -> Jet:
    de = tetrad_covariant_jet(e, wmix)
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

    def jet(self, points: np.ndarray, order: int, faults: list) -> Jet:
        if order >= MAX_ORDER:
            raise GeometryError(
                f"connection jets stop at order {MAX_ORDER - 1}; "
                f"the formula needs tetrad data one order higher"
            )
        ej = self.e.jet(points, order + 1, faults)
        return levi_civita_jet(ej, inverse_tetrad_jet(ej.truncated(order), faults))


class SummedConnection:
    """Pointwise sum of a base connection and a contorsion source."""

    def __init__(self, base: FrameSource, extra: FrameSource):
        self.base = base
        self.extra = extra

    def jet(self, points: np.ndarray, order: int, faults: list) -> Jet:
        return self.base.jet(points, order, faults) + self.extra.jet(points, order, faults)
