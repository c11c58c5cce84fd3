"""Internal-space algebra: mixed forms, wedge products, epsilon contractions.

A MixedForm(k, p) holds components antisymmetric separately in k spacetime
indices and p internal indices, as a jet, so every form can also carry
exact derivative data; a plain array, point axis first, is accepted and
treated as an order-0 jet.  Component axes are ordered internal first,
then spacetime, behind the point axis.  A run holds forms of degree 0-2
this way and higher degrees as plain jets: a 3-form x by its dual vector
d[.., mu] = s_mu x[.., compl mu] (compl mu the other three indices in
order, s = (+, -, +, -) the sign of the (1|3) shuffle that puts mu
first), a 4-form by its one coefficient (below).
``two_form_dual`` and ``twisted_divergence`` take the twisted exterior
derivative from one storage to the next.

Sign conventions, fixed once here and used everywhere:

* two-factor antisymmetrization carries no 1/2: A_[m B_n] = A_m B_n - A_n B_m;
* the wedge of forms with degrees (k, p) and (l, q) satisfies
  a ^ b = (-1)^((k+p)(l+q)) b ^ a, realized by a Koszul factor (-1)^(p*l)
  in front of the signed shuffle sums over each index block;
* the internal metric is diag(+1, +1, +1, -1) with the timelike direction
  last, and the alternating symbol has eps_{0123} = +1 with all indices down;
* a spacetime 4-form is c * eps_{mu nu rho sigma}, one coefficient c per
  internal index, computed from the dual vectors of 3-forms and held on
  its own.
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


def _pair_complements() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each pair (nu, mu): the other two indices m < n and
    eps_{nu mu m n}, zero where nu = mu."""
    rows, cols, signs = np.zeros((DIM, DIM), int), np.zeros((DIM, DIM), int), np.zeros((DIM, DIM))
    for nu, mu, m, n in np.argwhere(EPSILON):
        if m < n:
            rows[nu, mu], cols[nu, mu], signs[nu, mu] = m, n, EPSILON[nu, mu, m, n]
    return rows, cols, signs


_PAIR_ROWS, _PAIR_COLS, _PAIR_SIGNS = _pair_complements()


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
        for sign, axes in _block_shuffle_axes(1 + start, n1, n2, arr.ndim):
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
    return Jet._trusted(jet.order, data)


def _check_antisym(arr: np.ndarray, start: int, n: int, what: str):
    """Raise unless ``arr``, point axis first, is antisymmetric in the ``n``
    component axes from ``start``, relative to each point's largest entry
    (floored at one)."""
    if n < 2:
        return
    points = (len(arr), -1)
    scale = np.fmax(1.0, np.abs(arr).reshape(points).max(axis=-1))
    for i in range(n - 1):
        axes = list(range(arr.ndim))
        a, b = 1 + start + i, 2 + start + i
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
                _check_antisym(d, 0, p, "internal")
                _check_antisym(d, p, k, "spacetime")
        self.k = k
        self.p = p
        self.jet = jet

    @classmethod
    def _wrap(cls, k: int, p: int, jet: Jet) -> "MixedForm":
        return cls(k, p, jet, _checked=True)

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
        return Jet._trusted(x.order, [eta_lower(d, 1 + axis) for d in x.data])
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


def two_form_dual(x: Jet, at: int) -> Jet:
    """The dual x*[.., nu, mu] = (1/2) eps_{nu mu m n} x[.., m, n] of a
    spacetime 2-form in component axes ``at`` and ``at + 1``, by a signed
    gather of the entries with m < n: ``x`` must be antisymmetric there."""
    where = (slice(None),) * (1 + at) + (_PAIR_ROWS, _PAIR_COLS)
    data = []
    for arr in x.data:
        dual = arr[where]  # a gather: an array of its own
        dual *= _PAIR_SIGNS.reshape((DIM, DIM) + (1,) * (arr.ndim - len(where)))
        data.append(dual)
    return Jet._trusted(x.order, data)


def slot_action(mat: Jet, x: Jet, variances: tuple[int, ...], spec: str, acc: Jet | None = None):
    """``acc`` plus ``mat`` acting on each leading internal slot of ``x``:
    +mat^p_q on an upper one, -mat^q_p on a lower one.  ``spec`` is one
    term's contraction, ``{w}`` for mat's internal pair and ``{i}``, ``{o}``
    for x's internal labels (``_LABELS``) before and after."""
    xi = _LABELS[: len(variances)]
    for slot, variance in enumerate(variances):
        i, o = xi[:slot] + "q" + xi[slot + 1 :], xi[:slot] + "p" + xi[slot + 1 :]
        term = jet_einsum(spec.format(w="pq" if variance > 0 else "qp", i=i, o=o), mat, x)
        if acc is None:
            acc = term if variance > 0 else -term
        else:
            acc = acc + term if variance > 0 else acc - term
    return acc


def twisted_divergence(wmix: Jet, y: Jet, variances: tuple[int, ...]) -> Jet:
    """D_mu y[.., mu], one order below ``y``, its internal axes leading as
    in ``covariant_D``, which also takes ``wmix``.  Of a 3-form's dual
    vector this is the coefficient of the form's twisted derivative; of a
    2-form's ``two_form_dual``, the dual vector of its twisted derivative."""
    if y.order < 1:
        raise DegreeError("twisted divergence needs jet data of order >= 1")
    last = len(y.comp_shape)
    out = Jet._trusted(y.order - 1, [np.trace(d, 0, last, last + 1) for d in y.data[1:]])
    if not variances:
        return out
    xs = _LABELS[len(variances) : len(y.comp_shape) - 1]
    spec = f"{{w}}m,{{i}}{xs}m->{{o}}{xs}"
    return slot_action(wmix.truncated(out.order), y.truncated(out.order), variances, spec, out)


def covariant_D(wmix: Jet, alpha: Jet, variances: tuple[int, ...]) -> Jet:
    """Covariant derivative of internal-indexed components, new slot first,
    by the connection omega^a_c, ``wmix`` = ``eta_lower(omega, 1)``.

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
    xs = _LABELS[ni:nc]
    spec = f"{{w}}m,{{i}}{xs}->{{o}}m{xs}"
    return slot_action(wmix.truncated(out.order), alpha.truncated(out.order), variances, spec, out)


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
    raw = covariant_D(eta_lower(omega, 1), x.jet, variances)
    return MixedForm._wrap(x.k + 1, x.p, _alt_blocks(raw, x.p, 1, x.k))
