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

A Levi-Civita connection of the point's own tetrad is ``levi_civita_jet``
of the memoized tetrad and inverse, so a singular tetrad raises one error.

``chunk_jets`` serves a run's points a chunk at a time: it evaluates the
expression fields among the sources (the tetrad grid, the connection's
pair fields, and the stress and spin fields of explicit matter) for the
whole chunk, one walk per expression, and hands each point its own jet,
or its own fault, in place of evaluating the source.

Two rules keep a consumer's errors what they would be if it derived
everything itself:

* Nothing is computed before it is asked for, so no caller sees a fault
  from a quantity it did not read.
* A derivation that raises remembers the exception, and every later
  request for that quantity raises it again.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

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
    ContorsionField,
    FrameSource,
    LeviCivitaConnection,
    SpinConnectionField,
    SummedConnection,
    TetradField,
    christoffel_jet,
    field_strength_jet,
    inverse_tetrad_jet,
    levi_civita_jet,
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
    ``served`` maps a source to its jet at the point, at the order the point
    reads it, or to the fault the point raised for it; the point reads that
    in place of evaluating the source.
    """

    def __init__(
        self,
        e: FrameSource,
        omega: FrameSource,
        point: Sequence[float],
        matter: MatterModel | None = None,
        served: Mapping[FrameSource, Jet | Exception] | None = None,
    ):
        self.e_source = e
        self.omega_source = omega
        self.point = point
        self.matter = MatterModel.vacuum() if matter is None else matter
        self._served = served or {}
        # the tetrad goes one order deeper when the connection is derived from it
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
        return self._serve("e", order, self._e_top, lambda k: self.read(self.e_source, k))

    def omega(self, order: int) -> Jet:
        """Connection components omega[a, b, mu]."""
        return self._serve("omega", order, DEPTH, lambda k: self.read(self.omega_source, k))

    def read(self, source: FrameSource, order: int) -> Jet:
        """``source``'s jet at this point, unmemoized: what was served for
        it where something was, otherwise the source evaluated here."""
        return self._source(source).jet(self.point, order)

    def _source(self, source: FrameSource) -> FrameSource:
        """``source`` as this point reads it: a served source by what was
        served, and the Levi-Civita connection of its tetrad by ``_MemoLeviCivita``."""
        if self._served and source in self._served:
            return _Served(self._served[source])
        if isinstance(source, LeviCivitaConnection) and source.e is self.e_source:
            return _MemoLeviCivita(self)
        if isinstance(source, SummedConnection):
            return SummedConnection(self._source(source.base), self._source(source.extra))
        return source

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


def chunk_jets(
    e: FrameSource, omega: FrameSource, points: np.ndarray, matter: MatterModel | None = None
) -> Iterator[PointJets]:
    """A ``PointJets`` for each of the (N, 4) ``points`` in turn.

    The tetrad, when it is an expression grid, is evaluated for all of them
    at the order the points read it, every pair field of the connection
    (explicit entries or a contorsion) at ``DEPTH``, and the stress and spin
    fields of explicit matter at ``DEPTH - 1``, each in one walk per
    expression.  Each point is served its own jet or fault, so it still
    raises a fault only when it reads that source.  The batches live as
    long as the iteration.
    """
    fields = []
    if isinstance(e, TetradField):
        fields.append((e, DEPTH + _reads_tetrad(omega, e)))
    fields += [(field, DEPTH) for field in _pair_fields(omega)]
    fields += [(field, DEPTH - 1) for field in (matter.fields if matter else ())]
    batches = [(field, field.jet(points, order)) for field, order in fields]
    for i, point in enumerate(points):
        served = {field: batch.at(i) for field, batch in batches}
        yield PointJets(e, omega, point, matter, served)


class _Served:
    """A jet, or the fault that stands for it, already evaluated at a point."""

    def __init__(self, hit: Jet | Exception):
        self._hit = hit

    def jet(self, point: Sequence[float], order: int) -> Jet:
        if isinstance(self._hit, Exception):
            raise self._hit
        return self._hit if self._hit.order == order else self._hit.truncated(order)


class _MemoLeviCivita:
    """A point's Levi-Civita connection, from its memoized tetrad and inverse."""

    def __init__(self, jets: PointJets):
        self._jets = jets

    def jet(self, point: Sequence[float], order: int) -> Jet:
        return levi_civita_jet(self._jets.e(order + 1), self._jets.inverse_tetrad(order))


def _reads_tetrad(source: FrameSource, e: FrameSource) -> bool:
    """Whether a connection recipe derives from the tetrad source ``e``."""
    if isinstance(source, LeviCivitaConnection):
        return source.e is e
    if isinstance(source, SummedConnection):
        return _reads_tetrad(source.base, e) or _reads_tetrad(source.extra, e)
    return False


def _pair_fields(source: FrameSource) -> list:
    """The pair-entry expression fields a connection recipe sums."""
    if isinstance(source, (SpinConnectionField, ContorsionField)):
        return [source]
    if isinstance(source, SummedConnection):
        return _pair_fields(source.base) + _pair_fields(source.extra)
    return []
