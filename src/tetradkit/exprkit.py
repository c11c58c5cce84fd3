"""Charts, the coordinate expression DSL, and jet evaluation.

Expressions are parsed from text into a small AST over chart coordinates,
named real parameters, literals, arithmetic, powers and the unary functions
sin, cos, tan, exp, log, sqrt.  A ``JetProgram`` compiles trees once and
runs them as jets (value plus exact partials up to order 3) at an (N, 4)
array of points, each point's first fault in the slot of a list the caller
passes; ``evaluate`` gives one point's plain value.

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

import copy
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


_CALLS = {
    "sin": jet_sin,
    "cos": jet_cos,
    "tan": jet_tan,
    "exp": jet_exp,
    "log": jet_log,
    "sqrt": jet_sqrt,
}


class _Op:
    """One operation of a program, one row of its store."""

    __slots__ = ("kind", "key", "args", "const", "rank", "node", "level", "row")

    def __init__(self, kind, key, args, const, rank, node):
        self.kind, self.key, self.args, self.const, self.rank, self.node = kind, key, args, const, rank, node
        self.level = 1 + max(getattr(x, "level", 0) for x in args)


class JetProgram:
    """Expression trees compiled once into one straight-line jet program,
    run at an (N, 4) array of points level by level.

    Compiling mirrors a walk over the trees in rank order, the trees in
    order and each in post-order.  A constant subtree folds to a float by
    the IEEE operations its jet would take, a product or sum with a
    constant scales or shifts the other operand, and a product with a
    coordinate adds its unit derivative (``_mul_coordinate``): no
    derivative known to be zero is built.  A run keeps each operation's jet
    in a row of a store per order, shape (N, rows) + (4,)*k; each level
    runs one kernel per group of one kind and parameter, its rows the
    points of one scalar jet, so a row holds the bits of its operation
    alone.  ``layout`` gives, per entry of ``shape`` in C order, its tree's
    index, ``-1 - index`` for the negation, or None for zero.

    A point's fault is that of its lowest-ranked faulting operation (a
    ``JetDomainError`` as a ``DomainFault`` naming the node), put in its
    empty slot of ``faults``; a constant whose fold faults is every
    point's fault at its rank.  A slot filled before the run ranks below
    all.  An operation but a negation takes its operands as the constant 1
    where a fault ranked below it is known, so that point raises and warns
    no more; a live point's numbers are those of the walk.
    """

    def __init__(self, exprs: Sequence[Expression], shape: tuple = (), layout=None):
        self.exprs, self.shape = tuple(exprs), tuple(shape)
        self.chart = exprs[0].chart if exprs else None
        self.ops: list[_Op] = []
        self.fault = None  # (rank, exception, node) of the first faulting fold
        roots = [self._value(expr.root) for expr in exprs] + [0.0]  # the last for zero
        layout = range(len(exprs)) if layout is None else layout
        picks = [len(exprs) if i is None else i if i >= 0 else -1 - i for i in layout]
        consts = [i for i, v in enumerate(roots) if type(v) is float]
        coords = sorted({x.index for op in self.ops for x in op.args if type(x) is CoordRef}
                        | {v.index for v in roots if type(v) is CoordRef})
        self.consts, self.coords = np.array([roots[i] for i in consts]), np.array(coords, dtype=np.intp)
        self.leaves = len(consts) + len(coords)
        row = {i: r for r, i in enumerate(consts)}
        coord_row = {index: len(consts) + i for i, index in enumerate(coords)}
        ref = lambda v: v.row if type(v) is _Op else coord_row[v.index]
        groups: dict[tuple, list[_Op]] = {}
        for op in self.ops:
            groups.setdefault((op.level, op.kind, op.key), []).append(op)
        self.groups, self.rows = [], self.leaves
        for (_, kind, key), ops in sorted(groups.items(), key=lambda item: item[0][0]):
            for op in ops:
                op.row, self.rows = self.rows, self.rows + 1
            operands = [np.array([ref(op.args[j]) for op in ops], dtype=np.intp) for j in range(len(ops[0].args))]
            const = np.array([op.const for op in ops]) if kind in ("scale", "shift", "rsub") else None
            ranks = np.array([op.rank for op in ops])
            self.groups.append((kind, key, ops[0].row, self.rows, operands, const, ranks, [op.node for op in ops]))
        self.take = np.array([row[i] if i in row else ref(roots[i]) for i in picks], dtype=np.intp)
        negated = np.array([i is not None and i < 0 for i in layout])
        self.negated = negated if negated.any() else None

    def _op(self, kind, key, args, const=None, node=None) -> _Op:
        self.ops.append(_Op(kind, key, args, const, len(self.ops), node))
        return self.ops[-1]

    def _value(self, node: Node):
        kind = type(node)
        if kind is BinOp:
            a = self._value(node.left)
            b = self._value(node.right)
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
            a = self._value(node.operand)
            return -a if type(a) is float else self._op("neg", None, (a,))
        if kind is Pow:
            fn = jet_pow_int if isinstance(node.exponent, int) else jet_pow_real
            return self._unary(node, fn, self._value(node.base), node.exponent)
        if kind is Call:
            return self._unary(node, _CALLS[node.func], self._value(node.arg))
        raise TypeError(f"unknown node {node!r}")

    def _product(self, a, b):
        if type(a) is float:
            return a * b if type(b) is float else self._op("scale", None, (b,), a)
        if type(b) is float:
            return self._op("scale", None, (a,), b)
        if type(b) is CoordRef:
            return self._op("mulx", (b.index, False), (a,))
        if type(a) is CoordRef:
            return self._op("mulx", (a.index, True), (b,))
        return self._op("mul", None, (a, b))

    def _sum(self, op: str, a, b):
        if type(a) is float and type(b) is float:
            return a + b if op == "+" else a - b
        if type(b) is float:
            # f - c is f + (-c), bit for bit
            return self._op("shift", None, (a,), b if op == "+" else -b)
        if type(a) is float:
            return self._op("shift" if op == "+" else "rsub", None, (b,), a)
        return self._op(op, None, (a, b))

    def _unary(self, node: Node, fn, a, *args):
        """``fn(a, *args)``, a constant ``a`` folded by the jet code."""
        if type(a) is not float:
            return self._op("chain", (fn,) + args, (a,), node=node)
        met = [None]
        value = fn(Jet._trusted(0, [np.array([a])]), *args, faults=met).value[0]
        if met[0] is not None and self.fault is None:
            self.fault = (len(self.ops) - 0.5, met[0], node)
        return 1.0 if met[0] is not None else float(value)

    def jet(self, points, order: int, faults: list) -> Jet:
        """The jet of the trees at ``points``, shape (N,) + ``shape``, each
        point's fault in its empty slot of ``faults``."""
        if not 0 <= order <= MAX_ORDER:
            raise ExpressionError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        points = self.chart.require_inside(points) if self.chart else np.asarray(points, dtype=float)
        data = []
        for s in self._run(points, order, faults):
            d = np.take(s, self.take, axis=1)
            if self.negated is not None:
                np.negative(d, out=d, where=self.negated.reshape((-1,) + (1,) * (d.ndim - 2)))
            data.append(d.reshape((len(points),) + self.shape + d.shape[2:]))
        return Jet._trusted(order, data)

    def _run(self, points: np.ndarray, order: int, faults: list) -> list:
        n, c = len(points), len(self.consts)
        store = [np.empty((n, self.rows) + (DIM,) * k) for k in range(order + 1)]
        store[0][:, :c] = self.consts
        store[0][:, c : self.leaves] = np.take(points, self.coords, axis=1)
        for s in store[1:]:
            s[:, : self.leaves] = 0.0
        if order:
            store[1][:, np.arange(c, self.leaves), self.coords] = 1.0
        known, met = None, {}  # each point's lowest fault rank so far, and that fault
        if any(faults) or self.fault:
            known = np.array([np.inf if f is None else -1.0 for f in faults])
            if self.fault:
                rank, exc, node = self.fault
                met = dict.fromkeys(np.flatnonzero(known > rank).tolist(), (copy.copy(exc), node))
                known[known > rank] = rank
        for kind, key, start, stop, operands, const, ranks, nodes in self.groups:
            dead = None if known is None or kind == "neg" else known[:, None] < ranks
            args = []
            for rows in operands:
                a = Jet._trusted(order, [np.take(s, rows, axis=1) for s in store])
                args.append(_carry(a, dead) if dead is not None and dead.any() else a)
            a = args[0].data
            if kind == "neg":
                out = [-d for d in a]
            elif kind == "scale":
                out = [const.reshape((-1,) + (1,) * k) * d for k, d in enumerate(a)]
            elif kind == "shift":
                out = [a[0] + const] + a[1:]
            elif kind == "rsub":
                out = [const - a[0]] + [-d for d in a[1:]]
            elif kind == "+" or kind == "-":
                out = [(np.add if kind == "+" else np.subtract)(x, y) for x, y in zip(a, args[1].data)]
            elif kind == "mul":
                out = _mul_scalar(args[0], args[1]).data
            elif kind == "mulx":
                out = _mul_coordinate(args[0], key[0], points[:, key[0], None], key[1]).data
            else:
                # each row of each point a slot; a dead one is carried
                slots = [None] * a[0].size if dead is None else [d or None for d in dead.ravel().tolist()]
                live = slots.count(None)
                flat = Jet._trusted(order, [d.reshape((-1,) + d.shape[2:]) for d in a])
                out = [d.reshape(a[0].shape + d.shape[1:]) for d in key[0](flat, *key[1:], faults=slots).data]
                if slots.count(None) != live:
                    known = np.full(n, np.inf) if known is None else known
                    for j, exc in enumerate(slots):
                        p, i = divmod(j, stop - start)
                        if exc is not None and exc is not True and ranks[i] < known[p]:
                            known[p], met[p] = ranks[i], (exc, nodes[i])
            for s, d in zip(store, out):
                s[:, start:stop] = d
        for p, (exc, node) in met.items():
            faults[p] = DomainFault(str(exc), _node_str(node)) if isinstance(exc, JetDomainError) else exc
        return store


def eval_jet(expr: Expression, points, order: int, faults: list) -> Jet:
    """Evaluate an expression to the scalar jet of the requested order at
    an (N, 4) array of points, as a program of one tree (``JetProgram``),
    each point's first fault in its empty slot of ``faults``."""
    return eval_jet_grid(expr, points, order, faults)


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
    (N, 4) array of points, by a ``JetProgram`` of its entries in grid
    order.

    The nesting structure becomes leading component axes, behind the point
    axis, and a point's fault is its first one in grid order, each tree
    taken in post-order.
    """
    grid = np.array(exprs, dtype=object)
    return JetProgram(list(grid.ravel()), grid.shape).jet(points, order, faults)
