"""Charts, the coordinate expression DSL, and jet evaluation.

Expressions are parsed from text into a small AST over chart coordinates,
named real parameters, literals, arithmetic, powers and the unary functions
sin, cos, tan, exp, log, sqrt.  Evaluation produces jets (value plus exact
partials up to order 3) at an (N, 4) array of points in one walk over the
tree, each point's first fault in the slot of a list the caller passes;
``evaluate`` gives one point's plain value.

Grammar (EBNF), with power binding tighter than unary minus, binary
operators left-associative and power right-associative:

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" factor ] ;
    atom     = number | symbol | name "(" expr ")" | "(" expr ")" ;

The exponent of "^" must fold to a real constant at parse time; an
integer exponent means repeated multiplication (valid on negative bases),
a real exponent requires a positive base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .jets import (
    DIM,
    MAX_ORDER,
    Jet,
    JetDomainError,
    _carry,
    _mul_coordinate,
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
        object.__setattr__(self, "_box", np.array(self.bounds, dtype=float).T)

    def index_of(self, name: str) -> int:
        try:
            return self.coord_names.index(name)
        except ValueError:
            raise ChartError(f"no coordinate named '{name}' in chart {self.coord_names}") from None

    def require_inside(self, points) -> np.ndarray:
        """An (N, 4) array of points as floats; raises ``ChartDomainError``
        for the first one outside the box."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != DIM:
            raise ChartError(f"points need shape (N, {DIM}), got {points.shape}")
        lo, hi = self._box
        if not ((lo <= points).all() and (points <= hi).all()):
            bad = points[np.argmin(((lo <= points) & (points <= hi)).all(axis=1))]
            raise ChartDomainError(f"point {tuple(bad)} outside chart box {self.bounds}")
        return points


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
            value = _fold_constant(node)
        except ArithmeticError as exc:
            raise ExpressionError(
                f"exponent '{_node_str(node)}' has no real value: {exc} (at position {pos})"
            ) from None
        if value is None:
            raise SyntaxFault("exponent must be a constant (literal or parameter)", pos)
        return value

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


def _fold_constant(node: Node) -> Union[int, float, None]:
    """Fold a coordinate-free subtree to a number, preserving int-ness, or
    give None for a subtree that names a coordinate or a function.  A
    constant with no real value raises an ``ArithmeticError`` naming why."""
    if isinstance(node, Const):
        v = node.value
        return int(v) if v.is_integer() else v
    if isinstance(node, ParamRef):
        return node.value
    if isinstance(node, Neg):
        a = _fold_constant(node.operand)
        return None if a is None else -a
    if isinstance(node, BinOp):
        a = _fold_constant(node.left)
        b = None if a is None else _fold_constant(node.right)
        if b is None:
            return None
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return a / b
    if isinstance(node, Pow):
        base, p = _fold_constant(node.base), node.exponent
        if base is None:
            return None
        if base == 0 and p < 0:
            raise ZeroDivisionError("division by zero")
        if isinstance(p, int):
            return base**p
        if base < 0:
            raise ArithmeticError(f"negative base {base} to the non-integer power {p}")
        return float(base) ** p
    return None


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


def eval_jet(expr: Expression, points, order: int, faults: list) -> Jet:
    """Evaluate an expression to the scalar jet of the requested order at
    an (N, 4) array of points, from one walk over the tree.  A point's
    first fault, in the walk's post-order, goes into its empty slot of
    ``faults``.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ExpressionError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    points = expr.chart.require_inside(points)
    walk = _Walk(points, order, faults)
    value = walk.value(expr.root)
    return Jet.constant(np.full(len(points), value), order) if type(value) is float else walk.jet(value)


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

    A node's value is a float when its subtree names no coordinate, the
    ``CoordRef`` itself for a bare coordinate, and otherwise a jet with the
    point axis first.  No derivative known to be zero is built: a constant
    folds with the IEEE operations its jet would take, a product or sum
    with a constant acts on the other factor's arrays, a product with a
    coordinate adds its unit derivative (``_mul_coordinate``), and each
    coordinate's jet is built once.  Every live point's numbers are those
    of the full jet arithmetic, up to the sign of a zero.

    A point whose slot in ``faults`` holds a fault is dead: each operand
    jet is carried as the constant 1 there, so it raises and warns no more.
    A live point whose chain-rule coefficients raise records the fault in
    its slot (a ``JetDomainError`` as a ``DomainFault`` naming the node) and
    dies; a constant's fault is every live point's.  Other points compute
    what a walk at that point alone would, bit for bit.
    """

    def __init__(self, points: np.ndarray, order: int, faults: list):
        self.points = points
        self.order = order
        self.faults = faults
        self.dead = np.array([f is not None for f in faults]) if any(faults) else None
        self.coords: dict[int, Jet] = {}

    def value(self, node: Node):
        kind = type(node)
        if kind is BinOp:
            a = self.value(node.left)
            b = self.value(node.right)
            if node.op == "*":
                return self._product(a, b)
            if node.op == "/":
                return self._product(a, self._unary(node, jet_reciprocal, b))
            return self._sum(node.op, a, b)
        if kind is CoordRef:
            return node
        if kind is Const or kind is ParamRef:
            return node.value
        if kind is Neg:
            a = self.value(node.operand)
            return -a if type(a) is float else -self.jet(a)
        if kind is Pow:
            fn = jet_pow_int if isinstance(node.exponent, int) else jet_pow_real
            return self._unary(node, fn, self.value(node.base), node.exponent)
        if kind is Call:
            return self._unary(node, _CALLS[node.func], self.value(node.arg))
        raise TypeError(f"unknown node {node!r}")

    def jet(self, value) -> Jet:
        """The jet of a coordinate or jet value."""
        if type(value) is not CoordRef:
            return value
        jet = self.coords.get(value.index)
        if jet is None:
            jet = self.coords[value.index] = Jet.coordinate(value.index, self.points[:, value.index], self.order)
        return jet

    def _live(self, value) -> Jet:
        a = self.jet(value)
        return a if self.dead is None else _carry(a, self.dead)

    def _product(self, a, b):
        if type(a) is float:
            return a * b if type(b) is float else self._live(b).scaled(a)
        if type(b) is float:
            return self._live(a).scaled(b)
        if type(b) is CoordRef:
            return _mul_coordinate(self._live(a), b.index, self.points[:, b.index], left=False)
        if type(a) is CoordRef:
            return _mul_coordinate(self._live(b), a.index, self.points[:, a.index], left=True)
        return _mul_scalar(self._live(a), self._live(b))

    def _sum(self, op: str, a, b):
        if type(a) is float and type(b) is float:
            return a + b if op == "+" else a - b
        if type(b) is float:
            f = self._live(a)
            value = f.data[0] + b if op == "+" else f.data[0] - b
            return Jet._trusted(f.order, [value] + f.data[1:])
        if type(a) is float:
            f = self._live(b)
            if op == "+":
                return Jet._trusted(f.order, [a + f.data[0]] + f.data[1:])
            return Jet._trusted(f.order, [a - f.data[0]] + [-d for d in f.data[1:]])
        ufunc = np.add if op == "+" else np.subtract
        a, b = self._live(a), self._live(b)
        return Jet._trusted(self.order, [ufunc(x, y) for x, y in zip(a.data, b.data)])

    def _unary(self, node: Node, fn, a, *args):
        """``fn(a, *args)`` with per-point faults named after ``node``; for a
        constant ``a`` a float, by the jet code at a chunk of one."""
        faults = self.faults
        if type(a) is float:
            met = [None]
            value = fn(Jet._trusted(0, [np.array([a])]), *args, faults=met).value[0]
            if met[0] is None:
                return float(value)
            self._record(node, [met[0] if f is None else f for f in faults])
            return 1.0
        live = faults.count(None)
        out = fn(self._live(a), *args, faults=faults)
        if faults.count(None) != live:
            self._record(node, faults)
        return out

    def _record(self, node: Node, met: list):
        """Record the fault each live point met, a ``JetDomainError`` as a
        ``DomainFault`` naming ``node``, and mark those points dead."""
        text = _node_str(node)
        for i, fault in enumerate(met):
            if self.dead is None or not self.dead[i]:
                if isinstance(fault, JetDomainError):
                    fault = DomainFault(str(fault), text)
                self.faults[i] = fault
        self.dead = np.array([f is not None for f in self.faults])


def evaluate(expr: Expression, point: Sequence[float]) -> float:
    """Plain value of the expression at one point, by ``eval_jet`` at a
    chunk of one; raises the point's fault."""
    faults = [None]
    value = eval_jet(expr, [point], 0, faults).value[0]
    if faults[0] is not None:
        raise faults[0]
    return float(value)


def eval_jet_grid(exprs, points, order: int, faults: list) -> Jet:
    """Evaluate a nested sequence of Expressions into one tensor jet at an
    (N, 4) array of points.

    The nesting structure becomes leading component axes, behind the point
    axis.  Every entry writes its faults into ``faults`` as ``eval_jet``
    does, so a point's fault is the first one in grid order.
    """
    if isinstance(exprs, Expression):
        return eval_jet(exprs, points, order, faults)
    return jet_stack([eval_jet_grid(e, points, order, faults) for e in exprs], axis=0)
