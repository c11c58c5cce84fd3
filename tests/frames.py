"""Frame sources the tests build scenarios from: the flat connection and
local frame rotations, with the transformed tetrad and connection they
induce.  Each evaluates at an (N, 4) array of points, the point axis
first, like the package's own sources (``geometry.FrameSource``)."""

from typing import Mapping, Sequence

import numpy as np

from tetradkit.exprkit import Chart, eval_jet_grid
from tetradkit.forms import ETA, eta_lower
from tetradkit.geometry import FrameSource, GeometryError, parse_grid
from tetradkit.jets import DIM, MAX_ORDER, Jet, jet_einsum, jet_matrix_inverse, jet_partial, jet_transpose


class LorentzError(GeometryError):
    """A frame-rotation field failed the metric-preservation check."""


class ZeroConnection:
    """The flat frame connection."""

    def jet(self, points: np.ndarray, order: int, faults: list) -> Jet:
        return Jet.zeros((len(points), DIM, DIM, DIM), order)


class LorentzField:
    """Pointwise internal-frame rotation Lambda[a, b] from expressions.

    Every evaluation checks that the value preserves the internal metric
    (Lambda^T eta Lambda = eta to 1e-10) at every point and fails loudly
    otherwise.
    """

    def __init__(self, texts: Sequence[Sequence[str]], chart: Chart, params: Mapping[str, float] | None = None):
        self.exprs = parse_grid(texts, chart, params, "frame rotation")

    def jet(self, points: np.ndarray, order: int, faults: list) -> Jet:
        lam = eval_jet_grid(self.exprs, points, order, faults)
        defect = np.swapaxes(lam.value, -1, -2) @ ETA @ lam.value - ETA
        worst = np.abs(defect).reshape(len(points), -1).max(axis=1)
        if np.max(worst) > 1e-10:
            i = int(np.argmax(worst))
            raise LorentzError(
                f"frame rotation at {tuple(np.asarray(points)[i])} distorts the internal metric "
                f"by {worst[i]:.3e}"
            )
        return lam


class TransformedTetrad:
    """Tetrad seen from a rotated frame: e'[a, mu] = Lambda[a, b] e[b, mu]."""

    def __init__(self, e: FrameSource, lam: FrameSource):
        self.e = e
        self.lam = lam

    def jet(self, points: np.ndarray, order: int, faults: list) -> Jet:
        return jet_einsum("ab,bm->am", self.lam.jet(points, order, faults), self.e.jet(points, order, faults))


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

    def jet(self, points: np.ndarray, order: int, faults: list) -> Jet:
        if order >= MAX_ORDER:
            raise GeometryError(
                f"transformed connection jets stop at order {MAX_ORDER - 1}; "
                "the derivative term needs rotation data one order higher"
            )
        lam = self.lam.jet(points, order + 1, faults)
        lam_inv = jet_matrix_inverse(lam, faults)
        w = self.omega.jet(points, order, faults)
        wmat = eta_lower(w, 1)
        conj = jet_einsum("acm,cb->abm", jet_einsum("ac,cbm->abm", lam, wmat), lam_inv)
        dlam = jet_partial(lam)  # [a, b, mu]
        inhom = jet_einsum("abm,bc->acm", dlam, lam_inv)
        wprime = eta_lower(conj - inhom, 1)  # eta^{cb} = eta
        skew = wprime.value + np.swapaxes(wprime.value, -3, -2)
        if np.max(np.abs(skew)) > 1e-8 * max(1.0, np.max(np.abs(wprime.value))):
            raise LorentzError("transformed connection lost internal antisymmetry")
        return (wprime - jet_transpose(wprime, (1, 0, 2))).scaled(0.5)


def lorentz_transform(
    e: FrameSource, omega: FrameSource, lam: FrameSource
) -> tuple[TransformedTetrad, TransformedConnection]:
    return TransformedTetrad(e, lam), TransformedConnection(omega, lam)
