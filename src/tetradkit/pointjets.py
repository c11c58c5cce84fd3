"""One derivation of the field jets at sample points, each quantity derived
once and read by every consumer.

A ``PointJets`` holds a tetrad source, a connection source, its points and
the matter model whose sources live on that frame.  It serves the two
source jets and the tensors derived from them: the connection omega^a_c
that covariant derivatives take, the inverse tetrad, the metric and its
inverse, the Christoffel symbols, the field strength F, the torsion form
and tensor, the Riemann and Einstein tensors, the tetrad determinant, the
stress and spin sources with their 3-forms, and the geometric 3-forms of
the two field equations, the torsion side by both of its routes, each
3-form by its dual vector.  Each is computed at most once,
by the ``geometry`` or ``fieldeqs`` function a caller would apply to the
jets directly, at the deepest order a reader of this recipe asks of it
(``DEPTH`` for the source jets).  A lower order is served by truncation.
Every order-k jet formula reads only orders up to k, so a truncated jet
holds the same bits as one derived at the lower order.  A deeper order
raises ``JetError``.

The points are an (N, 4) array, a chunk; a single point is a chunk of
one.  Every jet carries the point axis first, and each point's slice holds
the bits that point's derivation as a chunk of one would hold.  A source
is evaluated for the whole chunk, ``source.jet(points, order, faults)``,
and only by the quantity that reads it (e, omega, stress, spin), which is
memoized at that source's top order, so each expression field runs its
program once per chunk.  A Levi-Civita connection of the derivation's own
tetrad is ``levi_civita_jet`` of the memoized tetrad and inverse, and a
sum is read by its parts.

A fault at a point (a domain fault of an expression, a singular tetrad or
metric) stays with that point.  Each quantity keeps one slot per point,
holding the first fault its derivation met at that point, in its read
order (a source writes its faults into that list), and the point is
carried on as a benign constant, as ``jets._carry`` does for expressions,
so the other points compute on.  ``record()`` starts a read record: each
quantity read after it copies its faults into the record's empty slots,
so a consumer's fault at a point is the first fault, in its read order,
among the quantities it read.  Nothing is computed before it is asked
for.
"""

from __future__ import annotations

from typing import Callable

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
from .forms import MixedForm, eta_lower
from .geometry import (
    FrameSource,
    LeviCivitaConnection,
    SummedConnection,
    christoffel_jet,
    field_strength_jet,
    inverse_tetrad_jet,
    levi_civita_jet,
    metric_jet,
    torsion_jet,
    torsion_tensor_jet,
)
from .jets import DIM, Jet, jet_matrix_inverse

# Source jet order served from memory: the deepest any check, or the
# runner's residual scale, reads.
DEPTH = 2


class PointJets:
    """Lazily filled derivation of the field jets at a chunk of points.

    ``points`` is an (N, 4) array; ``matter`` defaults to
    ``MatterModel.vacuum()``, whose sources are zero.
    """

    def __init__(
        self,
        e: FrameSource,
        omega: FrameSource,
        points,
        matter: MatterModel | None = None,
    ):
        self.e_source = e
        self.omega_source = omega
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != DIM:
            raise ValueError(
                f"PointJets needs an (N, {DIM}) array of points, got shape {self.points.shape}"
            )
        self.matter = MatterModel.vacuum() if matter is None else matter
        # the tetrad goes one order deeper, and its inverse to DEPTH, when
        # the connection is derived from it; only manufactured sources read
        # the torsion, Riemann and Einstein tensors above order 0
        reads_tetrad = _reads_tetrad(omega, e)
        self._e_top = DEPTH + reads_tetrad
        self._source_top = DEPTH - 1 if self.matter.mode == "manufactured" else 0
        self._memo: dict[str, tuple] = {}
        # where an operation on the chunk's jets stores a point's fault: the
        # list of the derivation under way, or else the read record
        self.faults: list = [None] * len(self.points)

    # -- faults ------------------------------------------------------------

    def record(self) -> list:
        """Start a read record and return it: one slot per point, None until
        a quantity read from now on holds a fault there."""
        self.faults = [None] * len(self.points)
        return self.faults

    def _note(self, met: list) -> None:
        reads = self.faults
        for i, fault in enumerate(met):
            if fault is not None and reads[i] is None:
                reads[i] = fault

    def _serve(self, key: str, order: int, top: int, build: Callable[[int], Jet]):
        hit = self._memo.get(key)
        if hit is None:
            outer = self.faults
            self.faults = [None] * len(self.points)
            try:
                value = build(top)
                met = self.faults if any(self.faults) else None
            finally:
                self.faults = outer
            hit = self._memo[key] = (value, met)
        value, met = hit
        if met is not None:
            self._note(met)
        return value if value.order == order else value.truncated(order)

    # -- source jets -------------------------------------------------------

    def e(self, order: int) -> Jet:
        """Tetrad components e[a, mu]."""
        return self._serve("e", order, self._e_top, lambda k: self.read(self.e_source, k))

    def omega(self, order: int) -> Jet:
        """Connection components omega[a, b, mu]."""
        return self._serve("omega", order, DEPTH, lambda k: self.read(self.omega_source, k))

    def omega_lowered(self, order: int) -> Jet:
        """omega^a_c, the second index lowered: what covariant derivatives take."""
        return self._serve("wmix", order, DEPTH, lambda k: eta_lower(self.omega(k), 1))

    def read(self, source: FrameSource, order: int) -> Jet:
        """``source``'s jet at these points, unmemoized: the Levi-Civita
        connection of the tetrad from the memoized tetrad and inverse, a sum
        by its parts, and anything else evaluated at the points, its faults
        written into the current record."""
        if isinstance(source, LeviCivitaConnection) and source.e is self.e_source:
            return levi_civita_jet(self.e(order + 1), self.inverse_tetrad(order))
        if isinstance(source, SummedConnection):
            return self.read(source.base, order) + self.read(source.extra, order)
        return source.jet(self.points, order, self.faults)

    # -- derived tensors ---------------------------------------------------

    def inverse_tetrad(self, order: int) -> Jet:
        return self._serve(
            "einv", order, self._e_top - 1, lambda k: inverse_tetrad_jet(self.e(k), self.faults)
        )

    def metric(self, order: int) -> Jet:
        return self._serve("g", order, DEPTH - 1, lambda k: metric_jet(self.e(k)))

    def inverse_metric(self, order: int) -> Jet:
        """g^-1, served through order ``DEPTH - 1`` like g: the stress form
        and the component conservation law read it at orders 0 and 1 only."""
        return self._serve(
            "ginv", order, DEPTH - 1, lambda k: jet_matrix_inverse(self.metric(k), self.faults)
        )

    def determinant(self, order: int) -> Jet:
        """det e, served through order ``DEPTH - 1``: the stress form reads
        it at orders 0 and 1 only."""
        return self._serve(
            "det", order, DEPTH - 1, lambda k: determinant_jet(self.e(k))
        )

    def field_strength(self, order: int) -> Jet:
        """F[a, b, mu, nu], from the connection one order deeper; checked
        antisymmetric in each pair here, once, for all its readers."""
        return self._serve(
            "F", order, DEPTH - 1, lambda k: MixedForm(2, 2, field_strength_jet(self.omega(k + 1))).jet
        )

    def torsion(self, order: int) -> Jet:
        """Torsion form theta[a, mu, nu], from the tetrad one order deeper;
        checked antisymmetric in (mu, nu) here, once, for all its readers."""
        return self._serve(
            "theta",
            order,
            DEPTH - 1,
            lambda k: MixedForm(2, 1, torsion_jet(self.e(k + 1), self.omega_lowered(k))).jet,
        )

    def christoffel(self, order: int) -> Jet:
        """Gamma, served at order 0 only: every reader takes its value."""
        return self._serve(
            "gamma",
            order,
            0,
            lambda k: christoffel_jet(
                self.e(k + 1), self.omega_lowered(k), self.inverse_tetrad(k + 1)
            ),
        )

    def torsion_tensor(self, order: int) -> Jet:
        """Torsion components q[mu, nu, sigma]."""
        return self._serve(
            "q",
            order,
            self._source_top,
            lambda k: torsion_tensor_jet(self.torsion(k), self.inverse_tetrad(k)),
        )

    def riemann(self, order: int) -> Jet:
        """Riemann components r[mu, nu, omega, sigma], last index up."""
        return self._serve("riemann", order, self._source_top, self._riemann)

    def _riemann(self, k: int) -> Jet:
        e = self.e(k)
        f = self.field_strength(k)
        return riemann_jet(e, self.inverse_tetrad(k), f)

    def einstein(self, order: int) -> Jet:
        """Einstein tensor components [mu, nu]."""
        return self._serve("einstein", order, self._source_top, self._einstein)

    def _einstein(self, k: int) -> Jet:
        self.e(k)
        f = self.field_strength(k)
        einv = self.inverse_tetrad(k)
        return einstein_jet(self.riemann(k), einv, self.metric(k), f)

    def curvature_three_form(self, order: int) -> Jet:
        """Geometric side of the curvature equation, by its dual vector."""
        return self._serve(
            "curvature3", order, DEPTH - 1, lambda k: curvature_three_form(self.e(k), self.field_strength(k))
        )

    def torsion_three_form(self, order: int) -> Jet:
        """Geometric side of the torsion equation, algebraic route, by its
        dual vector."""
        return self._serve(
            "torsion3", order, DEPTH - 1, lambda k: torsion_three_form(self.torsion(k), self.e(k))
        )

    def derivative_torsion_three_form(self, order: int) -> Jet:
        """Geometric side of the torsion equation, derivative route, by its
        dual vector, served at order 0 only: its two readers compare and use
        it there."""
        return self._serve(
            "torsion3d",
            order,
            0,
            lambda k: derivative_torsion_three_form(self.e(k + 1), self.omega_lowered(k)),
        )

    # -- matter sources, from ``matter``'s builders ------------------------

    def stress(self, order: int) -> Jet:
        """Stress components t[mu, nu]."""
        return self._serve("stress", order, DEPTH - 1, lambda k: self.matter.stress_jet(self, k))

    def spin(self, order: int) -> Jet:
        """Spin components s[mu, nu, sigma]."""
        return self._serve("spin", order, DEPTH - 1, lambda k: self.matter.spin_jet(self, k))

    def stress_form(self, order: int) -> Jet:
        """Stress 3-form, internal vector, by its dual vector."""
        return self._serve("stress3", order, DEPTH - 1, lambda k: self.matter.stress_form(self, k))

    def spin_form(self, order: int) -> Jet:
        """Spin 3-form, internal pair, by its dual vector."""
        return self._serve("spin3", order, DEPTH - 1, lambda k: self.matter.spin_form(self, k))


def _reads_tetrad(source: FrameSource, e: FrameSource) -> bool:
    """Whether a connection recipe derives from the tetrad source ``e``."""
    if isinstance(source, LeviCivitaConnection):
        return source.e is e
    if isinstance(source, SummedConnection):
        return _reads_tetrad(source.base, e) or _reads_tetrad(source.extra, e)
    return False
