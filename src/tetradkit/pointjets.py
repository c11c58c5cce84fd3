"""One sample point's jets, each derived once and read by every consumer.

A ``PointJets`` holds a tetrad source, a connection source, a point and
the matter model whose sources live on that frame.  It serves the two
source jets and the tensors derived from them: the inverse tetrad, the
metric and its inverse, the Christoffel symbols, the field strength F, the
torsion form and tensor, the Riemann and Einstein tensors, the tetrad
determinant, the stress and spin sources with their 3-forms, and the
geometric 3-forms of the two field equations, the torsion side by both of
its routes.  Each is computed at most once, by the ``geometry`` or
``fieldeqs`` function a caller would apply to the jets directly, at the
deepest order the point serves (``DEPTH`` for the source jets).  A lower
order is served by truncation.  Every order-k jet formula reads only
orders up to k, so a truncated jet holds the same bits as one derived at
the lower order.  A deeper order than the point serves raises
``JetError``.

Two rules keep a consumer's errors what they would be if it derived
everything itself:

* Nothing is computed before it is asked for, so no caller sees a fault
  from a quantity it did not read.
* A derivation that raises remembers the exception, and every later
  request for that quantity raises it again.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .fieldeqs import (
    MatterModel,
    curvature_three_form,
    derivative_torsion_three_form,
    determinant_jet,
    einstein_jet,
    riemann_jet,
    torsion_three_form,
)
from .forms import MixedForm
from .geometry import (
    FrameSource,
    LeviCivitaConnection,
    SummedConnection,
    christoffel_jet,
    field_strength_jet,
    inverse_tetrad_jet,
    metric_jet,
    torsion_jet,
    torsion_tensor_jet,
)
from .jets import Jet, jet_matrix_inverse

# Source jet order served from memory: the deepest any check, or the
# runner's residual scale, reads.
DEPTH = 2


class PointJets:
    """Lazily filled derivation of the field jets at one point.

    ``matter`` defaults to ``MatterModel.vacuum()``, whose sources are zero.
    """

    def __init__(
        self, e: FrameSource, omega: FrameSource, point: Sequence[float], matter: MatterModel | None = None
    ):
        self.e_source = e
        self.omega_source = omega
        self.point = point
        self.matter = MatterModel.vacuum() if matter is None else matter
        # the tetrad goes one order deeper when the connection is solved from it
        self._e_top = DEPTH + _reads_tetrad(omega, e)
        self._memo: dict[str, Jet | MixedForm | Exception] = {}

    def _serve(self, key: str, order: int, top: int, build: Callable[[int], Jet | MixedForm]):
        hit = self._memo.get(key)
        if hit is None:
            try:
                hit = build(top)
            except Exception as exc:
                hit = exc
            self._memo[key] = hit
        if isinstance(hit, Exception):
            raise hit
        return hit if hit.order == order else hit.truncated(order)

    # -- source jets -------------------------------------------------------

    def e(self, order: int) -> Jet:
        """Tetrad components e[a, mu]."""
        return self._serve(
            "e", order, self._e_top, lambda k: self.e_source.jet(self.point, k)
        )

    def omega(self, order: int) -> Jet:
        """Connection components omega[a, b, mu]."""
        return self._serve("omega", order, DEPTH, self._connection)

    def _connection(self, order: int) -> Jet:
        source = _on_tetrad(self.omega_source, self.e_source, _MemoTetrad(self))
        return source.jet(self.point, order)

    # -- derived tensors ---------------------------------------------------

    def inverse_tetrad(self, order: int) -> Jet:
        return self._serve(
            "einv", order, DEPTH, lambda k: inverse_tetrad_jet(self.e(k))
        )

    def metric(self, order: int) -> Jet:
        return self._serve("g", order, DEPTH, lambda k: metric_jet(self.e(k)))

    def inverse_metric(self, order: int) -> Jet:
        return self._serve(
            "ginv", order, DEPTH, lambda k: jet_matrix_inverse(self.metric(k))
        )

    def determinant(self, order: int) -> Jet:
        """det e, served through order ``DEPTH - 1``: the stress form reads
        it at orders 0 and 1 only."""
        return self._serve(
            "det", order, DEPTH - 1, lambda k: determinant_jet(self.e(k))
        )

    def field_strength(self, order: int) -> Jet:
        """F[a, b, mu, nu], from the connection one order deeper."""
        return self._serve(
            "F", order, DEPTH - 1, lambda k: field_strength_jet(self.omega(k + 1))
        )

    def torsion(self, order: int) -> Jet:
        """Torsion form theta[a, mu, nu], from the tetrad one order deeper."""
        return self._serve(
            "theta",
            order,
            DEPTH - 1,
            lambda k: torsion_jet(self.e(k + 1), self.omega(k)),
        )

    def christoffel(self, order: int) -> Jet:
        return self._serve(
            "gamma",
            order,
            DEPTH - 1,
            lambda k: christoffel_jet(
                self.e(k + 1), self.omega(k), self.inverse_tetrad(k + 1)
            ),
        )

    def torsion_tensor(self, order: int) -> Jet:
        """Torsion components q[mu, nu, sigma]."""
        return self._serve(
            "q",
            order,
            DEPTH - 1,
            lambda k: torsion_tensor_jet(self.torsion(k), self.inverse_tetrad(k)),
        )

    def riemann(self, order: int) -> Jet:
        """Riemann components r[mu, nu, omega, sigma], last index up."""
        return self._serve("riemann", order, DEPTH - 1, self._riemann)

    def _riemann(self, k: int) -> Jet:
        e = self.e(k)
        f = self.field_strength(k)
        return riemann_jet(e, self.inverse_tetrad(k), f)

    def einstein(self, order: int) -> Jet:
        """Einstein tensor components [mu, nu]."""
        return self._serve("einstein", order, DEPTH - 1, self._einstein)

    def _einstein(self, k: int) -> Jet:
        self.e(k)
        f = self.field_strength(k)
        einv = self.inverse_tetrad(k)
        return einstein_jet(self.riemann(k), einv, self.metric(k), f)

    def curvature_three_form(self, order: int) -> MixedForm:
        """Geometric side of the curvature equation."""
        return self._serve("curvature3", order, DEPTH - 1, self._curvature_three_form)

    def _curvature_three_form(self, k: int) -> MixedForm:
        return curvature_three_form(self.e(k), self.field_strength(k))

    def torsion_three_form(self, order: int) -> MixedForm:
        """Geometric side of the torsion equation, algebraic route."""
        return self._serve("torsion3", order, DEPTH - 1, self._torsion_three_form)

    def _torsion_three_form(self, k: int) -> MixedForm:
        return torsion_three_form(self.torsion(k), self.e(k))

    def derivative_torsion_three_form(self, order: int) -> MixedForm:
        """Geometric side of the torsion equation, derivative route, served
        at order 0 only: its two readers compare and use it there."""
        return self._serve(
            "torsion3d",
            order,
            0,
            lambda k: derivative_torsion_three_form(self.e(k + 1), self.omega(k)),
        )

    # -- matter sources, from ``matter``'s builders ------------------------

    def stress(self, order: int) -> Jet:
        """Stress components t[mu, nu]."""
        return self._serve("stress", order, DEPTH - 1, lambda k: self.matter.stress_jet(self, k))

    def spin(self, order: int) -> Jet:
        """Spin components s[mu, nu, sigma]."""
        return self._serve("spin", order, DEPTH - 1, lambda k: self.matter.spin_jet(self, k))

    def stress_form(self, order: int) -> MixedForm:
        """Stress 3-form, internal vector."""
        return self._serve("stress3", order, DEPTH - 1, lambda k: self.matter.stress_form(self, k))

    def spin_form(self, order: int) -> MixedForm:
        """Spin 3-form, internal pair."""
        return self._serve("spin3", order, DEPTH - 1, lambda k: self.matter.spin_form(self, k))


class _MemoTetrad:
    """A point's memoized tetrad seen as a frame source."""

    def __init__(self, jets: PointJets):
        self._jets = jets

    def jet(self, point: Sequence[float], order: int) -> Jet:
        return self._jets.e(order)


def _reads_tetrad(source: FrameSource, e: FrameSource) -> bool:
    """Whether a connection recipe solves from the tetrad source ``e``."""
    if isinstance(source, LeviCivitaConnection):
        return source.e is e
    if isinstance(source, SummedConnection):
        return _reads_tetrad(source.base, e) or _reads_tetrad(source.extra, e)
    return False


def _on_tetrad(source: FrameSource, e: FrameSource, tetrad: FrameSource) -> FrameSource:
    """The connection recipe with the tetrad source ``e`` replaced by ``tetrad``."""
    if isinstance(source, LeviCivitaConnection) and source.e is e:
        return LeviCivitaConnection(tetrad)
    if isinstance(source, SummedConnection):
        return SummedConnection(
            _on_tetrad(source.base, e, tetrad), _on_tetrad(source.extra, e, tetrad)
        )
    return source
