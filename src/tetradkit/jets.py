"""Truncated multivariate jets over a chunk of points: values plus exact
partial derivatives.

A jet of order K stores, at each of N points, a component tensor together
with all of its partial derivative tensors up to order K with respect to
the four chart coordinates.  ``data[k]`` has shape
``(N,) + comp_shape + (4,)*k``: the point axis first, then the component
axes, then k derivative axes, kept fully symmetric, so mixed partials
agree by construction.  A single point is a chunk of one.  Arithmetic
propagates derivatives by the chain and Leibniz rules, which keeps every
derivative exact (no differencing).

Every operation below acts on each point's slice as it would on a chunk of
that point alone, with the same bits.  One that can leave its function's
domain takes a fault list from its caller and records each faulted
point's exception there instead of raising.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

DIM = 4
MAX_ORDER = 3

# labels reserved for derivative axes in einsum specs
_DLAB = "XYZ"


class JetError(ValueError):
    """Malformed jet data or unsupported jet operation."""


class JetDomainError(ArithmeticError):
    """A jet operation left the domain of the underlying function."""


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@functools.cache
def _dist_perms(k: int, i: int) -> tuple[tuple[int, ...], ...]:
    """Ways to hand i of k symmetric derivative slots to the left factor.

    Each returned tuple maps output slot -> source axis, where source axes
    0..i-1 belong to the left factor and i..k-1 to the right one.
    """
    perms = []
    for comb in itertools.combinations(range(k), i):
        rest = [t for t in range(k) if t not in comb]
        perm = [0] * k
        for src, dst in enumerate(comb):
            perm[dst] = src
        for src, dst in enumerate(rest):
            perm[dst] = i + src
        perms.append(tuple(perm))
    return tuple(perms)


@functools.cache
def _shuffle_axes(front: int, k: int, i: int) -> tuple[tuple[int, ...] | None, ...]:
    """Transpositions that apply each ``_dist_perms(k, i)`` shuffle to the
    derivative axes behind ``front`` other axes; None for the identity."""
    identity = tuple(range(front + k))
    out = []
    for perm in _dist_perms(k, i):
        axes = tuple(range(front)) + tuple(front + s for s in perm)
        out.append(None if axes == identity else axes)
    return tuple(out)


def _check_order(order: int):
    if not 0 <= order <= MAX_ORDER:
        raise JetError(f"jet order must be in 0..{MAX_ORDER}, got {order}")


class Jet:
    """Component tensors with derivative tensors up to a fixed order, behind
    one point axis."""

    __slots__ = ("order", "data")

    def __init__(self, order: int, data: Sequence[np.ndarray]):
        _check_order(order)
        if len(data) != order + 1:
            raise JetError(f"expected {order + 1} derivative tensors, got {len(data)}")
        arrays = [np.asarray(d, dtype=float) for d in data]
        shape = arrays[0].shape
        if not shape:
            raise JetError("a jet's values need a leading point axis")
        for k, arr in enumerate(arrays):
            if arr.shape != shape + (DIM,) * k:
                raise JetError(
                    f"derivative tensor {k} has shape {arr.shape}, "
                    f"expected {shape + (DIM,) * k}"
                )
        self.order = order
        self.data = arrays

    @classmethod
    def _trusted(cls, order: int, data: list) -> "Jet":
        """Constructor for jets built by package code, without validation:
        ``data`` must already hold float arrays of the shapes ``__init__``
        enforces."""
        jet = object.__new__(cls)
        jet.order = order
        jet.data = data
        return jet

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        """The constant jet of ``value``, point axis first."""
        _check_order(order)
        value = np.asarray(value, dtype=float)
        return cls._trusted(
            order, [value] + [np.zeros(value.shape + (DIM,) * k) for k in range(1, order + 1)]
        )

    @classmethod
    def coordinate(cls, index: int, value, order: int) -> "Jet":
        """Scalar jet of the coordinate function x_index at points where it
        takes the values ``value``, one per point."""
        _check_order(order)
        value = np.array(value, dtype=float)
        data = [value]
        if order >= 1:
            d1 = np.zeros(value.shape + (DIM,))
            d1[..., index] = 1.0
            data.append(d1)
        for k in range(2, order + 1):
            data.append(np.zeros(value.shape + (DIM,) * k))
        return cls._trusted(order, data)

    @classmethod
    def zeros(cls, shape: tuple[int, ...], order: int) -> "Jet":
        """The zero jet whose values have ``shape``, point axis first."""
        _check_order(order)
        return cls._trusted(order, [np.zeros(shape + (DIM,) * k) for k in range(order + 1)])

    # -- basic views -------------------------------------------------------

    @property
    def comp_shape(self) -> tuple[int, ...]:
        return self.data[0].shape[1:]

    @property
    def value(self) -> np.ndarray:
        return self.data[0]

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise JetError(f"cannot extend a jet of order {self.order} to order {order}")
        return Jet._trusted(order, self.data[: order + 1])

    def __repr__(self) -> str:
        return f"Jet(order={self.order}, comp_shape={self.comp_shape}, value={self.value!r})"

    # -- linear arithmetic -------------------------------------------------

    def _binary_linear(self, other: "Jet", op) -> "Jet":
        if not isinstance(other, Jet):
            other = Jet.constant(np.broadcast_to(float(other), self.value.shape), self.order)
        if other.comp_shape != self.comp_shape:
            raise JetError(f"component shapes differ: {self.comp_shape} vs {other.comp_shape}")
        k = min(self.order, other.order)
        return Jet._trusted(k, [op(self.data[i], other.data[i]) for i in range(k + 1)])

    def __add__(self, other) -> "Jet":
        return self._binary_linear(other, np.add)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        return self._binary_linear(other, np.subtract)

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __neg__(self) -> "Jet":
        return Jet._trusted(self.order, [-d for d in self.data])

    def scaled(self, factor: float) -> "Jet":
        return Jet._trusted(self.order, [factor * d for d in self.data])

    # -- products ----------------------------------------------------------

    def __mul__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            return self.scaled(float(other))
        if self.comp_shape != () or other.comp_shape != ():
            raise JetError("operator * is for scalar jets; use jet_einsum for tensors")
        return _mul_scalar(self, other)

    def __rmul__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            return self.scaled(float(other))
        return NotImplemented

    def __truediv__(self, other: float) -> "Jet":
        """Division by a number; a jet divides through ``jet_reciprocal``,
        which records where it vanishes."""
        if other == 0:
            raise JetDomainError("division by zero")
        return self.scaled(1.0 / float(other))


def _mul_scalar(a: Jet, b: Jet) -> Jet:
    """Leibniz product of two scalar jets, or of two jets of one component
    shape entry by entry (a batch of scalar jets)."""
    K = min(a.order, b.order)
    A, B = a.data, b.data
    data = [A[0] * B[0]]
    if K >= 1:
        data.append(A[1] * B[0][..., None] + A[0][..., None] * B[1])
    if K >= 2:
        cross = A[1][..., :, None] * B[1][..., None, :]
        data.append(
            A[2] * B[0][..., None, None]
            + cross
            + cross.swapaxes(-1, -2)
            + A[0][..., None, None] * B[2]
        )
    if K >= 3:
        t21 = A[2][..., None] * B[1][..., None, None, :]
        s21 = t21 + t21.swapaxes(-1, -2) + t21.swapaxes(-3, -1).swapaxes(-2, -1)
        t12 = A[1][..., :, None, None] * B[2][..., None, :, :]
        s12 = t12 + t12.swapaxes(-3, -2) + t12.swapaxes(-3, -1)
        data.append(A[3] * B[0][..., None, None, None] + s21 + s12 + A[0][..., None, None, None] * B[3])
    return Jet._trusted(K, data)


def _mul_coordinate(f: Jet, index: int, x: np.ndarray, left: bool) -> Jet:
    """``_mul_scalar`` of ``f`` and the jet of the coordinate x_index with
    values ``x``, on the right (on the left with ``left``), less the products
    by the coordinate's zero derivatives: each entry sums the same nonzero
    terms in the same order, so the numbers agree up to the sign of a zero."""
    K = f.order
    F = f.data
    data = [F[0] * x]
    if K >= 1:
        d1 = F[1] * x[..., None]
        d1[..., index] += F[0]
        data.append(d1)
    if K >= 2:
        d2 = F[2] * x[..., None, None]
        d2[..., :, index] += F[1]
        d2[..., index, :] += F[1]
        if left:
            # there the two cross terms meet on the diagonal before x * F2
            d2[..., index, index] = 2.0 * F[1][..., index] + F[2][..., index, index] * x
        data.append(d2)
    if K >= 3:
        cross = np.zeros_like(F[3])
        cross[..., index] = F[2].swapaxes(-1, -2) if left else F[2]
        cross[..., index, :] += F[2]
        cross[..., index, :, :] += F[2]
        data.append(F[3] * x[..., None, None, None] + cross)
    return Jet._trusted(K, data)


def jet_einsum(spec: str, a: Jet, b: Jet) -> Jet:
    """Component-wise einsum of two jets with Leibniz-distributed derivatives.

    ``spec`` addresses only component axes (e.g. ``"ab,bc->ac"``); derivative
    axes are appended automatically and distributed over both factors with
    the appropriate shuffle symmetrization.  Labels X, Y, Z are reserved.
    The spec must be a pure pairwise contraction: every label appears once
    per operand, a label shared by both operands is summed, and every other
    label is an output axis.  The spec names no point axis: the product is
    taken point by point, and a chunk of one is shared by every point of
    the other operand.
    """
    K = min(a.order, b.order)
    plan = _einsum_plan(spec, K, a.comp_shape, b.comp_shape)
    return Jet._trusted(K, [_leibniz_sum(terms, a.data, b.data) for terms in plan])


def _leibniz_sum(terms: tuple, A: Sequence[np.ndarray], B: Sequence[np.ndarray], acc=None):
    """Add the given Leibniz terms of one derivative order onto ``acc``.

    ``terms`` is a slice of one order of an ``_einsum_plan``; ``A`` and ``B``
    hold the factors' derivative tensors by order.  Returns None when there
    is nothing to add and ``acc`` is None.  ``acc`` is not written to: a
    sum lands in a new array, which later terms are added to in place.
    """
    fresh = False
    for i, j, gemm, outs in terms:
        prod = gemm(A[i], B[j])
        for axes in outs:
            piece = prod if axes is None else prod.transpose(axes)
            if acc is None:
                acc = piece
            elif fresh:
                acc += piece
            else:
                acc, fresh = acc + piece, True
    return acc


class _Gemm:
    """One pairwise contraction as a matrix product.

    Each operand is brought to a matrix with the contracted axes on the
    inner side, by a transposition and a reshape (or, when its contracted
    axes already lead, a reshape and a transposed view).  The product is
    reshaped to the free axes of the left operand followed by those of the
    right one, in their operand order; ``labels`` names those axes.  The
    point axis stays first, as a stack of such matrices with each point's
    matrix laid out as it would be alone, so the stacked product gives each
    point the bits of its own product.
    """

    __slots__ = ("perm_a", "shape_a", "flip_a", "perm_b", "shape_b", "flip_b", "shape_out", "labels")

    def __init__(self, la: str, lb: str, dims: dict, contracted: str):
        free_a = "".join(c for c in la if c not in contracted)
        free_b = "".join(c for c in lb if c not in contracted)
        self.labels = free_a + free_b
        na = math.prod(dims[c] for c in free_a)
        nb = math.prod(dims[c] for c in free_b)
        nc = math.prod(dims[c] for c in contracted)
        # left operand as (free_a, contracted); right as (contracted, free_b)
        self.perm_a, self.flip_a = _matrix_layout(la, contracted, free_a, True)
        self.perm_b, self.flip_b = _matrix_layout(lb, contracted, free_b, False)
        self.shape_a = (-1, nc, na) if self.flip_a else (-1, na, nc)
        self.shape_b = (-1, nb, nc) if self.flip_b else (-1, nc, nb)
        self.shape_out = tuple(dims[c] for c in self.labels)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.perm_a is not None:
            x = x.transpose(self.perm_a)
        x = x.reshape(self.shape_a)
        if self.flip_a:
            x = x.swapaxes(-1, -2)
        if self.perm_b is not None:
            y = y.transpose(self.perm_b)
        y = y.reshape(self.shape_b)
        if self.flip_b:
            y = y.swapaxes(-1, -2)
        prod = x @ y
        return prod.reshape(prod.shape[:-2] + self.shape_out)


def _matrix_layout(labels: str, contracted: str, free: str, inner_last: bool):
    """Transposition (None for the identity) and flip flag that bring an
    operand to a matrix whose contracted axes, in ``contracted`` order, sit on
    the inner side of the product: last for the left operand, first for the
    right one.  The flip is a transposed view, which the product takes as it
    is, so an operand whose contracted block already sits on the outer side
    needs no copy.  The point axis stays in front."""
    natural = free + contracted if inner_last else contracted + free
    flipped = contracted + free if inner_last else free + contracted
    for order, flip in ((natural, False), (flipped, True)):
        if labels == order:
            return None, flip
    perm = (0,) + tuple(1 + labels.index(c) for c in natural)
    return perm, False


def _pairwise_labels(spec: str, shape_a: tuple, shape_b: tuple):
    """Split a pure pairwise contraction spec into its parts, or raise."""
    try:
        ins, out = spec.split("->")
        in1, in2 = ins.split(",")
    except ValueError:
        raise JetError(f"jet_einsum spec {spec!r} needs the form 'ab,bc->ac'") from None
    for labels, what in ((in1, "left operand"), (in2, "right operand"), (out, "output")):
        if not all(c.isalpha() and c.isascii() and c not in _DLAB for c in labels):
            raise JetError(
                f"jet_einsum spec {spec!r}: bad {what} labels {labels!r}; X, Y, Z are reserved"
            )
        if len(set(labels)) != len(labels):
            raise JetError(f"jet_einsum spec {spec!r}: repeated label in the {what}")
    shared = set(in1) & set(in2)
    if shared & set(out):
        raise JetError(
            f"jet_einsum spec {spec!r}: labels {sorted(shared & set(out))} are kept "
            "and summed at once; only pure contractions are supported"
        )
    if set(out) != (set(in1) | set(in2)) - shared:
        raise JetError(f"jet_einsum spec {spec!r}: output must hold exactly the unshared labels")
    if (len(in1), len(in2)) != (len(shape_a), len(shape_b)):
        raise JetError(
            f"jet_einsum spec {spec!r} does not fit component shapes {shape_a}, {shape_b}"
        )
    dims = dict(zip(in1, shape_a))
    for c, n in zip(in2, shape_b):
        if dims.setdefault(c, n) != n:
            raise JetError(f"jet_einsum spec {spec!r}: label {c!r} has sizes {dims[c]} and {n}")
    return in1, in2, out, "".join(c for c in in1 if c in shared), dims


@functools.cache
def _einsum_plan(spec: str, K: int, shape_a: tuple, shape_b: tuple) -> tuple:
    """``jet_einsum``'s work for one spec and operand component shapes (the
    point count is not part of the plan), per derivative order k up to K:
    (left order i, right order k - i, kernel, output transpositions) terms,
    one transposition per derivative shuffle.

    Each transposition maps the kernel's product (the point axis, then left
    free axes, then right free axes) to the point axis, the output axes and
    the shuffled derivative axes; None stands for the identity.
    """
    in1, in2, out, contracted, dims = _pairwise_labels(spec, shape_a, shape_b)
    dims.update(dict.fromkeys(_DLAB, DIM))
    plan = []
    for k in range(K + 1):
        terms = []
        for i in range(k + 1):
            d1, d2 = _DLAB[:i], _DLAB[i:k]
            gemm = _Gemm(in1 + d1, in2 + d2, dims, contracted)
            to_out = [0] + [1 + gemm.labels.index(c) for c in out + d1 + d2]
            identity = list(range(len(to_out)))
            outs = []
            for shuffle in _shuffle_axes(1 + len(out), k, i):
                axes = to_out if shuffle is None else [to_out[s] for s in shuffle]
                outs.append(None if axes == identity else tuple(axes))
            terms.append((i, k - i, gemm, tuple(outs)))
        plan.append(tuple(terms))
    return tuple(plan)


def jet_transpose(a: Jet, perm: Sequence[int]) -> Jet:
    """Permute component axes; point and derivative axes stay in place."""
    nc = len(a.comp_shape)
    if sorted(perm) != list(range(nc)):
        raise JetError(f"bad component permutation {perm} for shape {a.comp_shape}")
    axes = [0] + [1 + p for p in perm]
    return Jet._trusted(
        a.order, [np.transpose(a.data[k], axes + list(range(1 + nc, 1 + nc + k))) for k in range(a.order + 1)]
    )


def jet_partial(a: Jet) -> Jet:
    """Expose the first derivative slot as a new trailing component axis.

    The result has order reduced by one; its component shape gains a final
    axis of size 4 holding the derivative direction.  Because derivative
    axes are symmetric this is exact.
    """
    if a.order < 1:
        raise JetError("jet_partial needs a jet of order >= 1")
    return Jet._trusted(a.order - 1, [a.data[k + 1] for k in range(a.order)])


def matrix_inverse(m: np.ndarray, faults: list, wrap=None) -> np.ndarray:
    """``np.linalg.inv`` of each matrix of a stack.

    A matrix that has no inverse stores its ``LinAlgError``, or ``wrap`` of
    it, in its slot of ``faults``, unless the slot holds an earlier fault,
    and is inverted as the identity; every other matrix gets the bits of
    its inverse alone.
    """
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        out = np.empty_like(m)
    for i, row in enumerate(m):
        try:
            out[i] = np.linalg.inv(row)
        except np.linalg.LinAlgError as exc:
            exc.__traceback__ = None
            out[i] = np.eye(len(row))
            if faults[i] is None:
                faults[i] = exc if wrap is None else wrap(exc)
    return out


def _singular(exc: Exception) -> JetDomainError:
    return JetDomainError(f"singular matrix in jet inverse: {exc}")


def jet_matrix_inverse(a: Jet, faults: list, wrap=_singular) -> Jet:
    """Jet of the matrix inverse of a jet-valued square matrix.

    A point whose matrix is singular records ``wrap`` of its
    ``LinAlgError``, by default a ``JetDomainError``, in ``faults`` as
    ``matrix_inverse`` does.
    """
    shape = a.comp_shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise JetError(f"matrix inverse needs a square matrix jet, got shape {shape}")
    n = shape[0]
    x0 = matrix_inverse(a.data[0], faults, wrap)
    data = [x0]
    plan = _einsum_plan("ij,jk->ik", a.order, shape, shape)
    for k in range(1, a.order + 1):
        # D^k(M M^-1) = 0  =>  M0 . Xk = -sum_{i>=1} shuffles(D^i M . X_{k-i})
        rhs = _leibniz_sum(plan[k][1:], a.data, data)
        data.append(-(x0 @ rhs.reshape(rhs.shape[:1] + (n, -1))).reshape(rhs.shape))
    return Jet._trusted(a.order, data)


# -- scalar chain rule ----------------------------------------------------


def _compose_scalar(a: Jet, d: np.ndarray) -> Jet:
    """Faa di Bruno through u with u^(m)(f0) = d[m], entry by entry: ``d``
    has shape (4,) + the shape of ``a``'s values."""
    K = a.order
    data = [d[0]]
    if K >= 1:
        f1 = a.data[1]
        data.append(d[1][..., None] * f1)
    if K >= 2:
        f2 = a.data[2]
        f11 = f1[..., :, None] * f1[..., None, :]
        data.append(d[1][..., None, None] * f2 + d[2][..., None, None] * f11)
    if K >= 3:
        f3 = a.data[3]
        t12 = f1[..., :, None, None] * f2[..., None, :, :]
        sym12 = t12 + t12.swapaxes(-3, -2) + t12.swapaxes(-3, -1)
        data.append(
            d[1][..., None, None, None] * f3
            + d[2][..., None, None, None] * sym12
            + d[3][..., None, None, None] * (f11[..., None] * f1[..., None, None, :])
        )
    return Jet._trusted(K, data)


# What an entry that has faulted is carried as: the constant 1.
_CARRIED = (1.0, 0.0, 0.0, 0.0)


def _carry(a: Jet, dead: np.ndarray) -> Jet:
    """``a`` with the entries where ``dead`` holds replaced by the constant 1,
    so that no later operation on them overflows or divides by zero."""
    data = [d.copy() for d in a.data]
    data[0][dead] = 1.0
    for d in data[1:]:
        d[dead] = 0.0
    return Jet._trusted(a.order, data)


def _chain(a: Jet, derivs: Callable[[float], Sequence[float]], faults: list) -> Jet:
    """Compose every entry of ``a`` with a scalar function u, where
    ``derivs(x)`` gives u and its first three derivatives at x and raises
    outside u's domain.

    ``faults`` holds one slot per point, None while the point is live: a
    point's first entry, in C order, whose ``derivs`` raises stores the
    exception there, its traceback cleared, and every entry of a point
    with a stored fault is carried as the constant 1.
    """
    entries = a.value.reshape(len(faults), -1).tolist() if faults else []
    rows = []
    for i, xs in enumerate(entries):
        if faults[i] is None:
            try:
                rows += [derivs(x) for x in xs]
                continue
            except (ArithmeticError, ValueError) as exc:
                exc.__traceback__ = None
                faults[i] = exc
        rows += [_CARRIED] * len(xs)
    dead = [f is not None for f in faults]
    if any(dead):
        a = _carry(a, np.array(dead))
    return _compose_scalar(a, np.array(rows, dtype=float).T.reshape((4,) + a.value.shape))


# Each function below composes entry by entry through ``_chain``, whose
# ``faults`` slots record a faulted point.


def jet_sin(a: Jet, faults: list) -> Jet:
    def derivs(x: float):
        s, c = math.sin(x), math.cos(x)
        return s, c, -s, -c

    return _chain(a, derivs, faults)


def jet_cos(a: Jet, faults: list) -> Jet:
    def derivs(x: float):
        s, c = math.sin(x), math.cos(x)
        return c, -s, -c, s

    return _chain(a, derivs, faults)


def jet_tan(a: Jet, faults: list) -> Jet:
    def derivs(x: float):
        u0 = math.tan(x)
        u1 = 1.0 + u0 * u0
        u2 = 2.0 * u0 * u1
        return u0, u1, u2, 2.0 * (u1 * u1 + u0 * u2)

    return _chain(a, derivs, faults)


def jet_exp(a: Jet, faults: list) -> Jet:
    def derivs(x: float):
        u = math.exp(x)
        return u, u, u, u

    return _chain(a, derivs, faults)


def jet_log(a: Jet, faults: list) -> Jet:
    def derivs(x: float):
        if x <= 0.0:
            raise JetDomainError(f"log of non-positive value {x}")
        return math.log(x), 1.0 / x, -1.0 / x**2, 2.0 / x**3

    return _chain(a, derivs, faults)


def jet_sqrt(a: Jet, faults: list) -> Jet:
    def derivs(x: float):
        if x < 0.0:
            raise JetDomainError(f"sqrt of negative value {x}")
        if x == 0.0:
            raise JetDomainError("sqrt has no derivatives at 0")
        r = math.sqrt(x)
        return r, 0.5 / r, -0.25 / (r * x), 0.375 / (r * x * x)

    return _chain(a, derivs, faults)


def jet_reciprocal(a: Jet, faults: list) -> Jet:
    def derivs(x: float):
        if x == 0.0:
            raise JetDomainError("division by zero")
        return 1.0 / x, -1.0 / x**2, 2.0 / x**3, -6.0 / x**4

    return _chain(a, derivs, faults)


def jet_pow_int(a: Jet, n: int, faults: list) -> Jet:
    """Integer power as repeated multiplication, valid on negative bases.

    Uses binary powering, which is still a product of copies of the base.
    """
    if n == 0:
        return Jet.constant(np.ones(a.value.shape), a.order)
    base = a if n > 0 else jet_reciprocal(a, faults)
    out = None
    m = abs(n)
    while m:
        if m & 1:
            out = base if out is None else _mul_scalar(out, base)
        m >>= 1
        if m:
            base = _mul_scalar(base, base)
    return out


def jet_pow_real(a: Jet, p: float, faults: list) -> Jet:
    def derivs(x: float):
        if x <= 0.0:
            raise JetDomainError(f"real power of non-positive base {x}")
        c0 = x**p
        return c0, p * c0 / x, p * (p - 1.0) * c0 / x**2, p * (p - 1.0) * (p - 2.0) * c0 / x**3

    return _chain(a, derivs, faults)
