"""Truncated multivariate jets: values plus exact partial derivatives.

A jet of order K at a point stores a component tensor together with all of
its partial derivative tensors up to order K with respect to the four chart
coordinates.  ``data[k]`` has shape ``comp_shape + (4,)*k``; the trailing k
axes are derivative axes and are kept fully symmetric, so mixed partials
agree by construction.  Arithmetic propagates derivatives by the chain and
Leibniz rules, which keeps every derivative exact (no differencing).
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
def _shuffle_axes(lead: int, k: int, i: int) -> tuple[tuple[int, ...] | None, ...]:
    """Transpositions that apply each ``_dist_perms(k, i)`` shuffle to the
    derivative axes behind ``lead`` component axes; None for the identity."""
    identity = tuple(range(lead + k))
    out = []
    for perm in _dist_perms(k, i):
        axes = tuple(range(lead)) + tuple(lead + s for s in perm)
        out.append(None if axes == identity else axes)
    return tuple(out)


def _check_order(order: int):
    if not 0 <= order <= MAX_ORDER:
        raise JetError(f"jet order must be in 0..{MAX_ORDER}, got {order}")


class Jet:
    """Component tensor with derivative tensors up to a fixed order."""

    __slots__ = ("order", "data")

    def __init__(self, order: int, data: Sequence[np.ndarray]):
        _check_order(order)
        if len(data) != order + 1:
            raise JetError(f"expected {order + 1} derivative tensors, got {len(data)}")
        arrays = [np.asarray(d, dtype=float) for d in data]
        comp = arrays[0].shape
        for k, arr in enumerate(arrays):
            if arr.shape != comp + (DIM,) * k:
                raise JetError(
                    f"derivative tensor {k} has shape {arr.shape}, "
                    f"expected {comp + (DIM,) * k}"
                )
        self.order = order
        self.data = arrays

    @classmethod
    def _trusted(cls, order: int, data: list) -> "Jet":
        """Constructor for jets built by package code, without validation.

        ``data`` must already hold float arrays of the shapes ``__init__``
        enforces; only a NumPy scalar in slot 0 (what arithmetic on 0-d
        arrays returns) is turned back into a 0-d array.
        """
        if type(data[0]) is not np.ndarray:
            data[0] = np.asarray(data[0], dtype=float)
        jet = object.__new__(cls)
        jet.order = order
        jet.data = data
        return jet

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        _check_order(order)
        value = np.asarray(value, dtype=float)
        return cls._trusted(
            order, [value] + [np.zeros(value.shape + (DIM,) * k) for k in range(1, order + 1)]
        )

    @classmethod
    def coordinate(cls, index: int, value: float, order: int) -> "Jet":
        """Scalar jet of the coordinate function x_index."""
        _check_order(order)
        data = [np.asarray(float(value))]
        if order >= 1:
            d1 = np.zeros(DIM)
            d1[index] = 1.0
            data.append(d1)
        for k in range(2, order + 1):
            data.append(np.zeros((DIM,) * k))
        return cls._trusted(order, data)

    @classmethod
    def zeros(cls, comp_shape: tuple[int, ...], order: int) -> "Jet":
        _check_order(order)
        return cls._trusted(order, [np.zeros(comp_shape + (DIM,) * k) for k in range(order + 1)])

    # -- basic views -------------------------------------------------------

    @property
    def comp_shape(self) -> tuple[int, ...]:
        return self.data[0].shape

    @property
    def value(self) -> np.ndarray:
        return self.data[0]

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise JetError(f"cannot extend a jet of order {self.order} to order {order}")
        return Jet._trusted(order, self.data[: order + 1])

    def copy(self) -> "Jet":
        return Jet(self.order, [d.copy() for d in self.data])

    def __repr__(self) -> str:
        return f"Jet(order={self.order}, comp_shape={self.comp_shape}, value={self.value!r})"

    # -- linear arithmetic -------------------------------------------------

    def _binary_linear(self, other: "Jet", op) -> "Jet":
        if not isinstance(other, Jet):
            other = Jet.constant(np.broadcast_to(float(other), self.comp_shape), self.order)
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

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            if other == 0:
                raise JetDomainError("division by zero")
            return self.scaled(1.0 / float(other))
        return self * jet_reciprocal(other)

    def __rtruediv__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            return jet_reciprocal(self).scaled(float(other))
        return NotImplemented


def _mul_scalar(a: Jet, b: Jet) -> Jet:
    K = min(a.order, b.order)
    A, B = a.data, b.data
    data = [A[0] * B[0]]
    if K >= 1:
        data.append(A[1] * B[0] + A[0] * B[1])
    if K >= 2:
        cross = np.multiply.outer(A[1], B[1])
        data.append(A[2] * B[0] + cross + cross.T + A[0] * B[2])
    if K >= 3:
        t21 = np.multiply.outer(A[2], B[1])
        s21 = t21 + t21.transpose(0, 2, 1) + t21.transpose(2, 0, 1)
        t12 = np.multiply.outer(A[1], B[2])
        s12 = t12 + t12.transpose(1, 0, 2) + t12.transpose(2, 1, 0)
        data.append(A[3] * B[0] + s21 + s12 + A[0] * B[3])
    return Jet._trusted(K, data)


def jet_einsum(spec: str, a: Jet, b: Jet) -> Jet:
    """Component-wise einsum of two jets with Leibniz-distributed derivatives.

    ``spec`` addresses only component axes (e.g. ``"ab,bc->ac"``); derivative
    axes are appended automatically and distributed over both factors with
    the appropriate shuffle symmetrization.  Labels X, Y, Z are reserved.
    """
    K = min(a.order, b.order)
    A, B = a.data, b.data
    data = []
    for terms in _einsum_plan(spec, K):
        acc = None
        for subscripts, i, j, shuffles in terms:
            term = np.einsum(subscripts, A[i], B[j])
            for axes in shuffles:
                piece = term if axes is None else term.transpose(axes)
                acc = piece.copy() if acc is None else acc + piece
        data.append(acc)
    return Jet._trusted(K, data)


@functools.cache
def _einsum_plan(spec: str, K: int) -> tuple:
    """``jet_einsum``'s work for one spec, per derivative order k up to K:
    (subscripts, left order, right order, shuffle transpositions) terms."""
    ins, out = spec.split("->")
    in1, in2 = ins.split(",")
    plan = []
    for k in range(K + 1):
        terms = []
        for i in range(k + 1):
            d1, d2 = _DLAB[:i], _DLAB[i:k]
            subscripts = f"{in1}{d1},{in2}{d2}->{out}{d1}{d2}"
            terms.append((subscripts, i, k - i, _shuffle_axes(len(out), k, i)))
        plan.append(tuple(terms))
    return tuple(plan)


def jet_map(fn: Callable[[np.ndarray], np.ndarray], a: Jet) -> Jet:
    """Apply a fixed linear map to every derivative tensor of a jet.

    Valid only for maps with constant coefficients (contraction with a
    constant tensor, transposition, slicing): those commute with taking
    derivatives.
    """
    return Jet(a.order, [fn(d) for d in a.data])


def jet_transpose(a: Jet, perm: Sequence[int]) -> Jet:
    """Permute component axes; derivative axes stay in place."""
    nc = len(a.comp_shape)
    if sorted(perm) != list(range(nc)):
        raise JetError(f"bad component permutation {perm} for shape {a.comp_shape}")
    return Jet._trusted(
        a.order,
        [np.transpose(a.data[k], list(perm) + list(range(nc, nc + k))) for k in range(a.order + 1)],
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


def jet_stack(jets: Sequence[Jet], axis: int = 0) -> Jet:
    """Stack jets with identical component shapes along a new component axis."""
    order = min(j.order for j in jets)
    data = []
    for k in range(order + 1):
        data.append(np.stack([j.data[k] for j in jets], axis=axis))
    return Jet._trusted(order, data)


def jet_matrix_inverse(a: Jet) -> Jet:
    """Jet of the matrix inverse of a jet-valued square matrix."""
    shape = a.comp_shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise JetError(f"matrix inverse needs a square matrix jet, got shape {shape}")
    n = shape[0]
    try:
        x0 = np.linalg.inv(a.data[0])
    except np.linalg.LinAlgError as exc:
        raise JetDomainError(f"singular matrix in jet inverse: {exc}") from exc
    data = [x0]
    for k in range(1, a.order + 1):
        # D^k(M M^-1) = 0  =>  M0 . Xk = -sum_{i>=1} shuffles(D^i M . X_{k-i})
        rhs = np.zeros((n, n) + (DIM,) * k)
        for i in range(1, k + 1):
            d1, d2 = _DLAB[:i], _DLAB[i:k]
            term = np.einsum(f"ij{d1},jk{d2}->ik{d1}{d2}", a.data[i], data[k - i])
            for axes in _shuffle_axes(2, k, i):
                rhs += term if axes is None else term.transpose(axes)
        data.append(-np.einsum("ij,jk...->ik...", x0, rhs))
    return Jet._trusted(a.order, data)


# -- scalar chain rule ----------------------------------------------------


def _compose_scalar(a: Jet, derivs: Sequence[float]) -> Jet:
    """Faa di Bruno for a scalar jet through u with u^(m)(f0) = derivs[m]."""
    if a.comp_shape != ():
        raise JetError("chain rule composition is for scalar jets")
    K = a.order
    data = [np.asarray(float(derivs[0]))]
    if K >= 1:
        f1 = a.data[1]
        data.append(derivs[1] * f1)
    if K >= 2:
        f2 = a.data[2]
        data.append(derivs[1] * f2 + derivs[2] * np.multiply.outer(f1, f1))
    if K >= 3:
        f3 = a.data[3]
        t12 = np.multiply.outer(f1, f2)
        sym12 = t12 + t12.transpose(1, 0, 2) + t12.transpose(2, 1, 0)
        data.append(
            derivs[1] * f3
            + derivs[2] * sym12
            + derivs[3] * np.multiply.outer(np.multiply.outer(f1, f1), f1)
        )
    return Jet._trusted(K, data)


def jet_sin(a: Jet) -> Jet:
    s, c = math.sin(float(a.value)), math.cos(float(a.value))
    return _compose_scalar(a, [s, c, -s, -c])


def jet_cos(a: Jet) -> Jet:
    s, c = math.sin(float(a.value)), math.cos(float(a.value))
    return _compose_scalar(a, [c, -s, -c, s])


def jet_tan(a: Jet) -> Jet:
    u0 = math.tan(float(a.value))
    u1 = 1.0 + u0 * u0
    u2 = 2.0 * u0 * u1
    u3 = 2.0 * (u1 * u1 + u0 * u2)
    return _compose_scalar(a, [u0, u1, u2, u3])


def jet_exp(a: Jet) -> Jet:
    u = math.exp(float(a.value))
    return _compose_scalar(a, [u, u, u, u])


def jet_log(a: Jet) -> Jet:
    x = float(a.value)
    if x <= 0.0:
        raise JetDomainError(f"log of non-positive value {x}")
    return _compose_scalar(a, [math.log(x), 1.0 / x, -1.0 / x**2, 2.0 / x**3])


def jet_sqrt(a: Jet) -> Jet:
    x = float(a.value)
    if x < 0.0:
        raise JetDomainError(f"sqrt of negative value {x}")
    if x == 0.0:
        raise JetDomainError("sqrt has no derivatives at 0")
    r = math.sqrt(x)
    return _compose_scalar(a, [r, 0.5 / r, -0.25 / (r * x), 0.375 / (r * x * x)])


def jet_reciprocal(a: Jet) -> Jet:
    x = float(a.value)
    if x == 0.0:
        raise JetDomainError("division by zero")
    return _compose_scalar(a, [1.0 / x, -1.0 / x**2, 2.0 / x**3, -6.0 / x**4])


def jet_pow_int(a: Jet, n: int) -> Jet:
    """Integer power as repeated multiplication, valid on negative bases.

    Uses binary powering, which is still a product of copies of the base.
    """
    if n == 0:
        return Jet.constant(1.0, a.order)
    base = a if n > 0 else jet_reciprocal(a)
    out = None
    m = abs(n)
    while m:
        if m & 1:
            out = base if out is None else _mul_scalar(out, base)
        m >>= 1
        if m:
            base = _mul_scalar(base, base)
    return out


def jet_pow_real(a: Jet, p: float) -> Jet:
    x = float(a.value)
    if x <= 0.0:
        raise JetDomainError(f"real power of non-positive base {x}")
    c0 = x**p
    return _compose_scalar(
        a,
        [c0, p * c0 / x, p * (p - 1.0) * c0 / x**2, p * (p - 1.0) * (p - 2.0) * c0 / x**3],
    )
