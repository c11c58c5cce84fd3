"""Internal-space algebra: mixed forms, wedge products, epsilon contractions.

A MixedForm(k, p) holds components antisymmetric separately in k spacetime
indices and p internal indices.  Components are stored densely as a jet, so
every form can also carry exact derivative data; a plain array is accepted
and treated as an order-0 jet.  Component axes are ordered internal first,
then spacetime.

Sign conventions, fixed once here and used everywhere:

* two-factor antisymmetrization carries no 1/2: A_[m B_n] = A_m B_n - A_n B_m;
* the wedge of forms with degrees (k, p) and (l, q) satisfies
  a ^ b = (-1)^((k+p)(l+q)) b ^ a, realized by a Koszul factor (-1)^(p*l)
  in front of the signed shuffle sums over each index block;
* the internal metric is diag(+1, +1, +1, -1) with the timelike direction
  last, and the alternating symbol has eps_{0123} = +1 with all indices down;
* a spacetime 4-form is c * eps_{mu nu rho sigma}, one coefficient c per
  internal index; where only c is wanted it is computed from the dual
  vectors of 3-forms (``three_form_dual``) and held on its own.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .jets import DIM, Jet, _dist_perms, _perm_sign, jet_einsum, jet_map, jet_partial, jet_transpose

ETA = np.diag([1.0, 1.0, 1.0, -1.0])

_LABELS = "abcdefgh"


def _build_epsilon() -> np.ndarray:
    eps = np.zeros((DIM,) * 4)
    for perm in itertools.permutations(range(DIM)):
        eps[perm] = _perm_sign(perm)
    return eps


EPSILON = _build_epsilon()


# The (1|3) block shuffles of 0123: index mu first, then the other three in
# order, signed by the shuffle's parity.
_COMPLEMENTS = (np.array([1, 0, 0, 0]), np.array([2, 2, 1, 1]), np.array([3, 3, 3, 2]))
_DUAL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


class DegreeError(ValueError):
    """Form degrees out of range for a 4-dimensional base and fiber."""


class AntisymmetryError(ValueError):
    """Components violate a required antisymmetry."""


@functools.cache
def _block_shuffle_axes(start: int, n1: int, n2: int, nax: int) -> tuple:
    """Signed (n1, n2) block shuffles as (sign, transposition) pairs for an
    array of rank ``nax`` whose blocks begin at axis ``start``; the
    transposition is None for the identity."""
    identity = tuple(range(nax))
    out = []
    for perm in _dist_perms(n1 + n2, n1):
        axes = tuple(range(start)) + tuple(start + s for s in perm) + tuple(
            range(start + n1 + n2, nax)
        )
        out.append((_perm_sign(perm), None if axes == identity else axes))
    return tuple(out)


def _alt_blocks(jet: Jet, start: int, n1: int, n2: int) -> Jet:
    """Signed shuffle sum merging two adjacent antisymmetric axis blocks;
    ``start`` counts component axes."""
    if n1 == 0 or n2 == 0:
        return jet
    data = []
    for arr in jet.data:
        acc = None
        for sign, axes in _block_shuffle_axes(jet.lead + start, n1, n2, arr.ndim):
            piece = arr if axes is None else arr.transpose(axes)
            # adding or subtracting gives the bits of adding sign * piece;
            # after the first sum the accumulator is the sum's own array
            if acc is None:
                acc = piece if sign > 0 else -piece
                fresh = sign < 0
            elif not fresh:
                acc = acc + piece if sign > 0 else acc - piece
                fresh = True
            elif sign > 0:
                acc += piece
            else:
                acc -= piece
        data.append(acc)
    return Jet._trusted(jet.order, data, jet.lead)


def _check_antisym(arr: np.ndarray, lead: int, start: int, n: int, what: str):
    """Raise unless ``arr`` is antisymmetric in the ``n`` axes from
    ``start``, relative to each point's largest entry (floored at one)."""
    if n < 2:
        return
    points = arr.shape[:lead] + (-1,)
    scale = np.fmax(1.0, np.abs(arr).reshape(points).max(axis=-1))
    for i in range(n - 1):
        axes = list(range(arr.ndim))
        a, b = lead + start + i, lead + start + i + 1
        axes[a], axes[b] = axes[b], axes[a]
        defect = np.abs(arr + arr.transpose(axes)).reshape(points).max(axis=-1)
        if np.any(defect > 1e-12 * scale):
            raise AntisymmetryError(f"components not antisymmetric in {what} indices")


@dataclass
class MixedForm:
    """Spacetime k-form with values in antisymmetric internal rank p."""

    k: int
    p: int
    jet: Jet

    def __init__(self, k: int, p: int, components, *, _checked: bool = False):
        if not (0 <= k <= DIM and 0 <= p <= DIM):
            raise DegreeError(f"degrees (k={k}, p={p}) outside 0..{DIM}")
        jet = components if isinstance(components, Jet) else Jet.constant(np.asarray(components, float), 0)
        if len(jet.comp_shape) != p + k or jet.comp_shape != (DIM,) * (p + k):
            raise DegreeError(
                f"component shape {jet.comp_shape} does not match degrees (k={k}, p={p})"
            )
        if not _checked:
            for d in jet.data:
                _check_antisym(d, jet.lead, 0, p, "internal")
                _check_antisym(d, jet.lead, p, k, "spacetime")
        self.k = k
        self.p = p
        self.jet = jet

    @classmethod
    def _wrap(cls, k: int, p: int, jet: Jet) -> "MixedForm":
        return cls(k, p, jet, _checked=True)

    @classmethod
    def zero(cls, k: int, p: int, order: int = 0, points: tuple[int, ...] = ()) -> "MixedForm":
        """The zero form, at each of ``points`` (a point-axis shape) if given."""
        return cls._wrap(k, p, Jet.zeros(points + (DIM,) * (p + k), order, len(points)))

    @property
    def order(self) -> int:
        return self.jet.order

    @property
    def values(self) -> np.ndarray:
        return self.jet.value

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def truncated(self, order: int) -> "MixedForm":
        return MixedForm._wrap(self.k, self.p, self.jet.truncated(order))

    def _like(self, other: "MixedForm", what: str):
        if (self.k, self.p) != (other.k, other.p):
            raise DegreeError(
                f"cannot {what} forms of degrees (k={self.k}, p={self.p}) "
                f"and (k={other.k}, p={other.p})"
            )

    def __add__(self, other: "MixedForm") -> "MixedForm":
        self._like(other, "add")
        return MixedForm._wrap(self.k, self.p, self.jet + other.jet)

    def __sub__(self, other: "MixedForm") -> "MixedForm":
        self._like(other, "subtract")
        return MixedForm._wrap(self.k, self.p, self.jet - other.jet)

    def __neg__(self) -> "MixedForm":
        return MixedForm._wrap(self.k, self.p, -self.jet)

    def scaled(self, factor: float) -> "MixedForm":
        return MixedForm._wrap(self.k, self.p, self.jet.scaled(factor))


def internal_wedge(x: MixedForm, y: MixedForm) -> MixedForm:
    """Graded wedge over both spacetime and internal index blocks."""
    k, l, p, q = x.k, y.k, x.p, y.p
    if k + l > DIM or p + q > DIM:
        raise DegreeError(f"wedge degree overflow: (k={k + l}, p={p + q})")
    xi, xs = _LABELS[:p], _LABELS[p : p + k]
    off = p + k
    yi, ys = _LABELS[off : off + q], _LABELS[off + q : off + q + l]
    spec = f"{xi}{xs},{yi}{ys}->{xi}{yi}{xs}{ys}"
    raw = jet_einsum(spec, x.jet, y.jet)
    merged = _alt_blocks(raw, 0, p, q)
    merged = _alt_blocks(merged, p + q, k, l)
    if (p * l) % 2:
        merged = -merged
    return MixedForm._wrap(k + l, p + q, merged)


def epsilon_trace(x: MixedForm) -> MixedForm:
    """Contract a full internal 4-block with the alternating symbol.

    Normalized so the wedge of the four internal basis vectors (unit
    coefficient) traces to eps of their index order; a scalar 1 for 0123.
    """
    if x.p != DIM:
        raise DegreeError(f"epsilon_trace needs internal degree {DIM}, got {x.p}")
    jet = jet_map(lambda arr: np.einsum("abcd,abcd...->...", EPSILON, arr) / 24.0, x.jet)
    return MixedForm._wrap(x.k, 0, jet)


def raise_lower(x, slot: int, direction: str, metric: np.ndarray = ETA):
    """Raise or lower one index slot with the given lowering metric.

    ``metric`` is always the index-lowering matrix; raising applies its
    inverse.  Works on plain arrays and on jets (metric held constant).
    """
    if direction not in ("raise", "lower"):
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    mat = np.asarray(metric, float)
    if direction == "raise":
        mat = np.linalg.inv(mat)

    def apply(arr: np.ndarray) -> np.ndarray:
        if not 0 <= slot < arr.ndim:
            raise ValueError(f"slot {slot} out of range for tensor of rank {arr.ndim}")
        return np.moveaxis(np.tensordot(arr, mat, axes=([slot], [0])), -1, slot)

    if isinstance(x, Jet):
        # guard the slot against derivative axes
        if not 0 <= slot < len(x.comp_shape):
            raise ValueError(f"slot {slot} out of range for component rank {len(x.comp_shape)}")
        return jet_map(apply, x)
    return apply(np.asarray(x, float))


def eta_lower(x, axis: int):
    """Lower one internal index with eta, on an array or on every derivative
    tensor of a jet; eta is its own inverse, so this also raises.

    eta is diagonal, so this flips the sign of the timelike entries along
    component axis ``axis``.  The result equals the contraction with ETA
    except for the sign of zeros.
    """
    if isinstance(x, Jet):
        return Jet._trusted(x.order, [eta_lower(d, x.lead + axis) for d in x.data], x.lead)
    return x * _eta_signs(x.ndim - axis - 1)


@functools.cache
def _eta_signs(trailing: int) -> np.ndarray:
    """eta's diagonal shaped to broadcast over ``trailing`` later axes."""
    return np.diagonal(ETA).reshape((DIM,) + (1,) * trailing)


def interior_product(direction: np.ndarray, x: MixedForm) -> MixedForm:
    """Contract a spacetime vector into the first spacetime slot.

    The direction is treated as constant: derivative data of the result
    only tracks the form, so use order 0 when the direction varies.
    """
    if x.k == 0:
        raise DegreeError("interior product needs spacetime degree >= 1")
    direction = np.asarray(direction, float)
    p = x.p
    jet = jet_map(lambda arr: np.tensordot(direction, arr, axes=([0], [p])), x.jet)
    return MixedForm._wrap(x.k - 1, p, jet)


def exterior_derivative(x: MixedForm) -> MixedForm:
    """Plain exterior derivative from the form's own jet data."""
    if x.k + 1 > DIM:
        raise DegreeError("exterior derivative overflows spacetime degree 4")
    if x.order < 1:
        raise DegreeError("exterior derivative needs jet data of order >= 1")
    p, k = x.p, x.k
    shifted = jet_partial(x.jet)  # comp: int(p), st(k), then the new axis last
    perm = list(range(p)) + [p + k] + list(range(p, p + k))
    moved = jet_transpose(shifted, perm)
    return MixedForm._wrap(k + 1, p, _alt_blocks(moved, p, 1, k))


def three_form_dual(x: MixedForm) -> Jet:
    """The dual vector of a spacetime 3-form, d[mu] = s_mu x[compl mu].

    compl mu is the other three indices in order and s = (+, -, +, -), the
    sign of the (1|3) shuffle that puts mu in front of them.  The result has
    the internal axes first and mu last.  Wedging with a 1-form or taking
    the exterior derivative gives a 4-form whose coefficient contracts
    against d: (a ^ x)_0123 = a_mu d^mu and (dx)_0123 = d_mu d^mu.
    """
    if x.k != 3:
        raise DegreeError(f"three_form_dual needs spacetime degree 3, got {x.k}")
    jet = x.jet
    where = (slice(None),) * (jet.lead + x.p) + _COMPLEMENTS
    data = []
    for arr in jet.data:
        dual = arr[where]  # a gather: an array of its own
        dual *= _DUAL_SIGNS.reshape((DIM,) + (1,) * (arr.ndim - len(where)))
        data.append(dual)
    return Jet._trusted(jet.order, data, jet.lead)


def covariant_D(omega: Jet, alpha: Jet, variances: tuple[int, ...]) -> Jet:
    """Covariant derivative of internal-indexed components, new slot first.

    ``alpha`` has its internal axes leading (one per entry of ``variances``,
    +1 up or -1 down) followed by any passenger axes.  The result inserts the
    derivative direction as a new axis right after the internal block:
    upper slots add +omega^a_c alpha^{..c..}, lower ones -omega^c_a alpha_{..c..}.
    The new slot is not antisymmetrized against anything, so this is not a
    form operation; it is the raw derivative the form operators build on.
    The connection terms are built only to the order of the partial
    derivative term, ``alpha.order - 1``.
    """
    ni = len(variances)
    nc = len(alpha.comp_shape)
    if ni > nc:
        raise DegreeError(f"{ni} variances for component rank {nc}")
    shifted = jet_partial(alpha)  # new derivative axis arrives last
    out = jet_transpose(shifted, list(range(ni)) + [nc] + list(range(ni, nc)))
    if ni == 0:
        return out
    alpha = alpha.truncated(out.order)
    wmat = eta_lower(omega, 1)  # omega^a_c
    xi, xs = _LABELS[:ni], _LABELS[ni:nc]
    for slot, variance in enumerate(variances):
        xi_in = xi[:slot] + "q" + xi[slot + 1 :]
        xi_out = xi[:slot] + "p" + xi[slot + 1 :]
        if variance > 0:
            wspec = "pqm"  # contract lower index of omega^p_q with the slot
        else:
            wspec = "qpm"  # contract upper index; sign flips below
        term = jet_einsum(f"{wspec},{xi_in}{xs}->{xi_out}m{xs}", wmat, alpha)
        out = out + term if variance > 0 else out - term
    return out


def covariant_exterior_derivative(
    omega: Jet, x: MixedForm, variances: tuple[int, ...] = ()
) -> MixedForm:
    """Exterior derivative twisted by a spin connection.

    ``omega`` is the connection jet with components [a, b, mu] and both
    internal indices up; ``variances`` gives +1 (up) or -1 (down) for each
    internal slot of ``x``.  Antisymmetrizing the raw covariant derivative
    over the new and old spacetime slots gives the (k+1)-form.
    """
    if len(variances) != x.p:
        raise DegreeError(f"need one variance per internal slot ({x.p}), got {len(variances)}")
    if x.k + 1 > DIM:
        raise DegreeError("covariant exterior derivative overflows spacetime degree 4")
    if x.order < 1:
        raise DegreeError("covariant exterior derivative needs jet data of order >= 1")
    raw = covariant_D(omega, x.jet, variances)
    return MixedForm._wrap(x.k + 1, x.p, _alt_blocks(raw, x.p, 1, x.k))
