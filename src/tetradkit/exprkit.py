"""Charts, the coordinate expression DSL, and jet evaluation.

Expressions are parsed from text into a small AST over chart coordinates,
named real parameters, literals, arithmetic, powers and the unary functions
sin, cos, tan, exp, log, sqrt.  Evaluation produces either plain values or
jets (value plus exact partials up to order 3), at one point or at an
array of points in one walk over the tree.  A finite-difference oracle
is provided for testing jet evaluation against an independent route; it
shares nothing with the chain rule code except the AST itself.

Grammar (EBNF), with power binding tighter than unary minus, binary
operators left-associative and power right-associative:

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" factor ] ;
    atom     = number | symbol | name "(" expr ")" | "(" expr ")" ;

The exponent of "^" must fold to a constant at parse time; an integer
exponent means repeated multiplication (valid on negative bases), a real
exponent requires a positive base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import mpmath
import numpy as np

from .jets import (
    DIM,
    MAX_ORDER,
    Jet,
    JetDomainError,
    _carry,
    _mul_scalar,
    jet_cos,
    jet_exp,
    jet_log,
    jet_pow_int,
    jet_pow_real,
    jet_reciprocal,
    jet_sin,
    jet_sqrt,
    jet_stack,
    jet_tan,
)

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")


class ExpressionError(ValueError):
    """Base class for DSL errors."""


class SyntaxFault(ExpressionError):
    """Bad token stream; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ExpressionError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown symbol '{name}' (at position {position})")
        self.name = name
        self.position = position


class ArityError(ExpressionError):
    pass


class DomainFault(ExpressionError):
    """Evaluation left the domain of a subexpression."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


class ChartError(ValueError):
    pass


class ChartDomainError(ChartError):
    """A point (or derivative stencil) fell outside the chart box."""


@dataclass(frozen=True)
class Chart:
    """A 4-coordinate box with named coordinates.

    bounds[i] is the (lower, upper) interval for coordinate i; evaluation is
    only defined for points inside the box.
    """

    coord_names: tuple[str, str, str, str]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.coord_names) != DIM:
            raise ChartError(f"a chart needs exactly {DIM} coordinates")
        if len(set(self.coord_names)) != DIM:
            raise ChartError(f"coordinate names must be distinct: {self.coord_names}")
        if len(self.bounds) != DIM:
            raise ChartError(f"a chart needs exactly {DIM} coordinate intervals")
        for name, (lo, hi) in zip(self.coord_names, self.bounds):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ChartError(f"bad interval for coordinate '{name}': [{lo}, {hi}]")

    def index_of(self, name: str) -> int:
        try:
            return self.coord_names.index(name)
        except ValueError:
            raise ChartError(f"no coordinate named '{name}' in chart {self.coord_names}") from None

    def require_inside(self, point: Sequence[float]) -> np.ndarray:
        """The point, or an (N, 4) array of points, as floats; raises
        ``ChartDomainError`` for the first one outside the box."""
        point = np.asarray(point, dtype=float)
        if point.ndim not in (1, 2) or point.shape[-1] != DIM:
            raise ChartError(f"a point needs {DIM} components, got shape {point.shape}")
        lo, hi = np.array(self.bounds).T
        if not ((lo <= point).all() and (point <= hi).all()):
            inside = ((lo <= point) & (point <= hi)).all(axis=-1)
            bad = point if point.ndim == 1 else point[np.argmin(inside)]
            raise ChartDomainError(f"point {tuple(bad)} outside chart box {self.bounds}")
        return point


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class CoordRef:
    index: int
    name: str


@dataclass(frozen=True)
class ParamRef:
    name: str
    value: float


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: Union[int, float]


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Const, CoordRef, ParamRef, Neg, BinOp, Pow, Call]


@dataclass(frozen=True)
class Expression:
    """A parsed expression bound to its chart (and parameter values)."""

    root: Node
    chart: Chart

    def __str__(self) -> str:
        return format_expression(self)


# -- tokenizer -------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident op lparen rparen end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            num = text[i:j]
            if num.count(".") > 1:
                raise SyntaxFault(f"malformed number '{num}'", i)
            tokens.append(_Token("num", num, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token("comma", ch, i))
            i += 1
            continue
        raise SyntaxFault(f"unexpected character '{ch}'", i)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser ----------------------------------------------------------------


def check_parameter_names(params: Mapping[str, float], chart: Chart):
    """Raise ``ExpressionError`` for a parameter named like a chart
    coordinate or a function."""
    for name in params:
        if name in chart.coord_names:
            raise ExpressionError(f"parameter '{name}' shadows a chart coordinate")
        if name in FUNCTIONS:
            raise ExpressionError(f"parameter '{name}' shadows a function name")


class _Parser:
    def __init__(self, tokens: list[_Token], chart: Chart, params: Mapping[str, float]):
        self.tokens = tokens
        self.i = 0
        self.chart = chart
        self.params = dict(params)
        check_parameter_names(self.params, chart)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise SyntaxFault(f"expected {what}, found '{tok.text or 'end of input'}'", tok.pos)
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise SyntaxFault(f"unexpected trailing input '{tok.text}'", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            exp_node = self.factor()  # recursion makes ^ right-associative
            return Pow(base, self._fold_exponent(exp_node, tok.pos))
        return base

    def _fold_exponent(self, node: Node, pos: int) -> Union[int, float]:
        try:
            return _fold_constant(node)
        except ValueError:
            raise SyntaxFault("exponent must be a constant (literal or parameter)", pos) from None

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            text = tok.text
            if "." in text or "e" in text or "E" in text:
                return Const(float(text))
            return Const(float(int(text)))
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "lparen":
                if name not in FUNCTIONS:
                    raise UnknownSymbolError(name, tok.pos)
                self.next()
                args = [self.expr()]
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.expr())
                self.expect("rparen", "')'")
                if len(args) != 1:
                    raise ArityError(f"{name}() takes 1 argument, got {len(args)}")
                return Call(name, args[0])
            if name in self.chart.coord_names:
                return CoordRef(self.chart.index_of(name), name)
            if name in self.params:
                return ParamRef(name, float(self.params[name]))
            raise UnknownSymbolError(name, tok.pos)
        raise SyntaxFault(f"expected a value, found '{tok.text or 'end of input'}'", tok.pos)


def _fold_constant(node: Node) -> Union[int, float]:
    """Fold a coordinate-free subtree to a number, preserving int-ness."""
    if isinstance(node, Const):
        v = node.value
        return int(v) if v.is_integer() else v
    if isinstance(node, ParamRef):
        return node.value
    if isinstance(node, Neg):
        return -_fold_constant(node.operand)
    if isinstance(node, BinOp):
        a, b = _fold_constant(node.left), _fold_constant(node.right)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise ValueError("division by zero in constant")
        return a / b
    if isinstance(node, Pow):
        base = _fold_constant(node.base)
        if isinstance(node.exponent, int):
            return base**node.exponent
        return float(base) ** node.exponent
    raise ValueError("not a constant subtree")


def parse_expression(text: str, chart: Chart, params: Mapping[str, float] | None = None) -> Expression:
    """Parse DSL text against a chart and a parameter table."""
    tokens = _tokenize(text)
    root = _Parser(tokens, chart, params or {}).parse()
    return Expression(root, chart)


# -- printer ---------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt(node: Node, parent_prec: int, right_side: bool = False) -> str:
    if isinstance(node, Const):
        v = node.value
        text = repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
        return text
    if isinstance(node, (CoordRef, ParamRef)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_fmt(node.arg, 0)})"
    if isinstance(node, Neg):
        inner = _fmt(node.operand, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] or right_side else text
    if isinstance(node, Pow):
        base = _fmt(node.base, _PREC["^"] + 1)
        exp_text = repr(node.exponent)
        if node.exponent < 0:
            exp_text = f"({exp_text})"
        text = f"{base}^{exp_text}"
        return f"({text})" if parent_prec > _PREC["^"] else text
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        left = _fmt(node.left, prec)
        # left associativity: the right child needs parens at equal precedence
        right = _fmt(node.right, prec + 1, right_side=node.op in "+-" or node.op in "*/")
        text = f"{left} {node.op} {right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"unknown node {node!r}")


def format_expression(expr: Expression) -> str:
    """Render an Expression back to DSL text; reparsing gives the same AST."""
    return _fmt(expr.root, 0)


# -- evaluation ------------------------------------------------------------


def _node_str(node: Node) -> str:
    return _fmt(node, 0)


class JetBatch:
    """Jets at N points: ``jet`` has the point axis first in its component
    shape, and ``faults[i]`` is the exception point i raised, or None.  A
    faulted point's entries in ``jet`` are a stand-in, not its values."""

    __slots__ = ("jet", "faults")

    def __init__(self, jet: Jet, faults: tuple):
        self.jet = jet
        self.faults = faults

    def at(self, i: int) -> Jet | Exception:
        """Point i's jet, or its fault."""
        fault = self.faults[i]
        if fault is not None:
            return fault
        return Jet._trusted(self.jet.order, [d[i] for d in self.jet.data])


def first_faults(fault_lists, n: int) -> tuple:
    """Each of n points' first fault across per-part fault lists, in part
    order."""
    out = [None] * n
    for faults in fault_lists:
        for i, fault in enumerate(faults):
            if out[i] is None:
                out[i] = fault
    return tuple(out)


def eval_jet(expr: Expression, point: Sequence[float], order: int) -> Jet | JetBatch:
    """Evaluate an expression to scalar jets of the requested order.

    ``point`` is one point, giving its Jet (or raising its fault), or an
    (N, 4) array of points, giving a ``JetBatch``: one walk over the tree
    serves them all, and each point keeps the first fault it met in the
    walk's post-order.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ExpressionError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    points = expr.chart.require_inside(point)
    walk = _Walk(points.reshape(-1, DIM), order)
    batch = JetBatch(walk.jet(expr.root), tuple(walk.faults))
    if points.ndim == 2:
        return batch
    hit = batch.at(0)
    if isinstance(hit, Exception):
        raise hit
    return hit


_CALLS = {
    "sin": jet_sin,
    "cos": jet_cos,
    "tan": jet_tan,
    "exp": jet_exp,
    "log": jet_log,
    "sqrt": jet_sqrt,
}


class _Walk:
    """One post-order walk over an expression tree at N points.

    Every node's jet carries the point axis first.  A point whose chain-rule
    coefficients raise records the fault in ``faults`` (a ``JetDomainError``
    as a ``DomainFault`` naming the node) and is carried as the constant 1
    from there on, so it raises and warns no more.  Other points compute what
    a walk at that point alone would, bit for bit.
    """

    def __init__(self, points: np.ndarray, order: int):
        self.points = points
        self.order = order
        self.faults: list = [None] * len(points)
        self.dead: np.ndarray | None = None

    def jet(self, node: Node) -> Jet:
        if isinstance(node, (Const, ParamRef)):
            return Jet.constant(np.full(len(self.points), node.value), self.order)
        if isinstance(node, CoordRef):
            return Jet.coordinate(node.index, self.points[:, node.index], self.order)
        if isinstance(node, Neg):
            return -self.jet(node.operand)
        if isinstance(node, BinOp):
            a = self.jet(node.left)
            b = self.jet(node.right)
            if node.op == "/":
                b = self._chain(node, jet_reciprocal, b)
            a, b = self._live(a), self._live(b)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            return _mul_scalar(a, b)
        if isinstance(node, Pow):
            base = self.jet(node.base)
            if isinstance(node.exponent, int):
                return self._chain(node, jet_pow_int, base, node.exponent)
            return self._chain(node, jet_pow_real, base, node.exponent)
        if isinstance(node, Call):
            return self._chain(node, _CALLS[node.func], self.jet(node.arg))
        raise TypeError(f"unknown node {node!r}")

    def _live(self, a: Jet) -> Jet:
        return a if self.dead is None else _carry(a, self.dead)

    def _chain(self, node: Node, fn, a: Jet, *args) -> Jet:
        """``fn(a, *args)`` with per-point faults, named after ``node``."""
        faults = self.faults
        live = faults.count(None)
        out = fn(self._live(a), *args, faults=faults)
        if faults.count(None) != live:
            text = _node_str(node)
            for i, fault in enumerate(faults):
                if isinstance(fault, JetDomainError):
                    faults[i] = DomainFault(str(fault), text)
            self.dead = np.array([f is not None for f in faults])
        return out


def evaluate(expr: Expression, point: Sequence[float]) -> float:
    """Plain value of the expression at a point."""
    return float(eval_jet(expr, point, 0).value)


def eval_jet_grid(exprs, point: Sequence[float], order: int) -> Jet | JetBatch:
    """Evaluate a nested sequence of Expressions into one tensor jet.

    The nesting structure becomes leading component axes, behind the point
    axis for an (N, 4) array of points.  A point's fault is the first one
    in grid order.
    """
    if isinstance(exprs, Expression):
        return eval_jet(exprs, point, order)
    parts = [eval_jet_grid(e, point, order) for e in exprs]
    if isinstance(parts[0], JetBatch):
        return JetBatch(
            jet_stack([p.jet for p in parts], axis=1),
            first_faults([p.faults for p in parts], len(parts[0].faults)),
        )
    return jet_stack(parts, axis=0)


# -- finite-difference oracle (tests only) ---------------------------------


def _eval_mp(node: Node, coords: Sequence) -> mpmath.mpf:
    """Value-only evaluation with mpmath numbers; independent of jet code."""
    if isinstance(node, Const):
        return mpmath.mpf(node.value)
    if isinstance(node, ParamRef):
        return mpmath.mpf(node.value)
    if isinstance(node, CoordRef):
        return coords[node.index]
    if isinstance(node, Neg):
        return -_eval_mp(node.operand, coords)
    if isinstance(node, BinOp):
        a = _eval_mp(node.left, coords)
        b = _eval_mp(node.right, coords)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise DomainFault("division by zero", _node_str(node))
        return a / b
    if isinstance(node, Pow):
        base = _eval_mp(node.base, coords)
        if isinstance(node.exponent, int):
            if node.exponent < 0 and base == 0:
                raise DomainFault("division by zero", _node_str(node))
            return mpmath.power(base, node.exponent)
        if base <= 0:
            raise DomainFault(f"real power of non-positive base {float(base)}", _node_str(node))
        return mpmath.power(base, node.exponent)
    if isinstance(node, Call):
        arg = _eval_mp(node.arg, coords)
        if node.func == "log":
            if arg <= 0:
                raise DomainFault(f"log of non-positive value {float(arg)}", _node_str(node))
            return mpmath.log(arg)
        if node.func == "sqrt":
            if arg < 0:
                raise DomainFault(f"sqrt of negative value {float(arg)}", _node_str(node))
            return mpmath.sqrt(arg)
        return getattr(mpmath, node.func)(arg)
    raise TypeError(f"unknown node {node!r}")


def finite_difference_oracle(
    expr: Expression,
    point: Sequence[float],
    order: int,
    step: float = 1e-5,
    dps: int = 40,
) -> Jet:
    """Estimate the jet by nested central differences of expression values.

    Each derivative index applies one symmetric two-point stencil of width
    2*step, so a partial of order k touches 2**k shifted points.  Values are
    evaluated with mpmath working precision ``dps`` so the estimate is
    truncation-limited (error O(step**2) per direction), and shared stencil
    points are cached.  The stencil must stay inside the chart box.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ExpressionError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    point = expr.chart.require_inside(point)
    for i, (lo, hi) in enumerate(expr.chart.bounds):
        if point[i] - order * step < lo or point[i] + order * step > hi:
            raise ChartDomainError(
                f"difference stencil of order {order}, step {step} leaves the chart "
                f"box in coordinate '{expr.chart.coord_names[i]}'"
            )

    cache: dict[tuple[int, ...], mpmath.mpf] = {}

    with mpmath.workdps(dps):
        h = mpmath.mpf(step)
        base = [mpmath.mpf(float(x)) for x in point]

        def value_at(offsets: tuple[int, ...]) -> mpmath.mpf:
            if offsets not in cache:
                coords = [base[i] + offsets[i] * h for i in range(DIM)]
                cache[offsets] = _eval_mp(expr.root, coords)
            return cache[offsets]

        def central(indices: tuple[int, ...], offsets: tuple[int, ...]) -> mpmath.mpf:
            if not indices:
                return value_at(offsets)
            mu, rest = indices[0], indices[1:]
            up = list(offsets)
            up[mu] += 1
            dn = list(offsets)
            dn[mu] -= 1
            return (central(rest, tuple(up)) - central(rest, tuple(dn))) / (2 * h)

        data = [np.asarray(float(value_at((0,) * DIM)))]
        for k in range(1, order + 1):
            arr = np.zeros((DIM,) * k)
            for idx in np.ndindex(*(DIM,) * k):
                key = tuple(sorted(idx))
                if idx == key:
                    arr[idx] = float(central(key, (0,) * DIM))
            # symmetrize from the computed representatives
            for idx in np.ndindex(*(DIM,) * k):
                key = tuple(sorted(idx))
                if idx != key:
                    arr[idx] = arr[key]
            data.append(arr)
    return Jet(order, data)
