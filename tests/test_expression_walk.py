"""Expression programs (``exprkit.JetProgram``, and ``eval_jet``, a program
of one tree) against the full tree walk they shortcut
(``reference.tree_walk_jet``, entry by entry for a field): the same faults,
and at every live point the same numbers up to the sign of a zero wherever
the reference is finite, in the reference's memory layout; and the work the
shortcuts leave out, counted over a run."""

import sys

import numpy as np
import pytest

from reference import tree_walk_field, tree_walk_jet
from tetradkit import jets
from tetradkit.exprkit import eval_jet, parse_expression
from tetradkit.jets import Jet
from tetradkit.runner import run_checks, sample_points
from tetradkit.scenarios import builtin_scenario, scenario_from_dict

from helpers import UNIT_CHART, random_smooth_text
from test_batched_eval import _expression_fields
from test_report_parity import DOCUMENTS

PARAMS = {"a": 0.7, "b": -1.3}

# every node kind, with constants, parameters, coordinates and other
# subtrees on either side of each operator
CORPUS = [
    "2.5", "-3", "a", "a*b - 1/a + (b - 2)*3", "x0", "-x1", "-(2)",
    "x0 + 1", "1 + x0", "x0 - 2", "2 - x0", "x0 + x1", "x0 - x1", "a - x2",
    "3*x0", "x0*3", "x0/4", "a/x0", "x0*x1", "x1*x0", "x0*x0", "x0/x1",
    "sin(x0)*x1", "x1*sin(x0)", "x2*(x0*x1)", "(x0*x1)*x2", "x3*x3*x3*x3",
    "sin(x0)*cos(x1)", "exp(x2)/(2 + x1)", "(1 + x0)*(x1 - x3) - x2",
    "x0^2", "x1^3", "x0^(-2)", "(x0 + 2)^0.5", "(2 + x1)^(-1.5)", "x0^0", "x0^1",
    "sin(x0)", "cos(x1)", "tan(x2)", "exp(x3)", "log(x0 + 2)", "sqrt(x1 + 2)",
    "sin(a)*x0", "exp(a) + x1", "log(a)", "a^2", "2^a", "(-2)^3", "b^(-2)",
    "sqrt(a)*x1", "log(x0)", "sqrt(x1)", "1/x0", "x0/(a - a)", "log(b)*x0", "b/a + x0",
    "0*x0", "-x0*0", "2*exp(800*x0)", "x0*exp(800*x0)", "exp(800*x0)*x1",
    # a Leibniz product's second derivatives are symmetric only up to rounding
    "x3*(sqrt(2 + x1^2)*cos(x3*x0)*(x1*x0))", "sqrt(2 + x1^2)*cos(x3*x0)*(x1*x0)*x3",
]

POINTS = sample_points(UNIT_CHART, 100, 19)
# x0 at 0 (log, sqrt and 1/x0 fault), in the window where exp(800*x0)'s
# derivatives overflow and past it (math.exp overflows)
POINTS[:4, 0] = (0.0, -0.5, 0.8865, 0.95)


def _assert_same(got: Jet, got_faults: list, want: Jet, want_faults: list, what: str):
    assert [(type(f), str(f)) for f in got_faults] == [(type(f), str(f)) for f in want_faults], what
    live = np.array([f is None for f in want_faults])
    assert got.order == want.order, what
    for k, (g, w) in enumerate(zip(got.data, want.data)):
        assert g.shape == w.shape, (what, k)
        g, w = g[live], w[live]
        agree = (g == w) | ~np.isfinite(w)
        assert agree.all(), (what, k, g[~agree][:3], w[~agree][:3])


def _both(fn, faults):
    """``fn`` by ``eval_jet`` and by the reference walk, each with its own
    copy of the fault list, as a run evaluates: overflow quiet."""
    out = []
    for walk in (eval_jet, tree_walk_jet):
        slots = list(faults)
        with np.errstate(over="ignore", invalid="ignore"):
            out.append((fn(walk, slots), slots))
    return out


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_grid_matches_the_tree_walk(name):
    sc = scenario_from_dict(DOCUMENTS[name](), source=name)
    points = sample_points(sc.chart, 100, 0)
    for field in _expression_fields(sc):
        for order in range(4):
            f1, f2 = [None] * len(points), [None] * len(points)
            with np.errstate(over="ignore", invalid="ignore"):
                got = field.jet(points, order, f1)
                want = tree_walk_field(field, points, order, f2)
            _assert_same(got, f1, want, f2, f"{name} {type(field).__name__} order {order}")
            # the layout of the stacked (grid) or zero-filled (pair) reference
            assert [d.strides for d in got.data] == [d.strides for d in want.data]


@pytest.mark.parametrize("dead", [False, True], ids=["live", "some-dead"])
def test_corpus_matches_the_tree_walk(dead):
    rng = np.random.default_rng(5)
    texts = CORPUS + [random_smooth_text(rng) for _ in range(40)]
    faults = [None] * len(POINTS)
    if dead:
        # points dead before the walk are carried, never walked
        for i in range(0, len(POINTS), 7):
            faults[i] = ArithmeticError("earlier")
    for text in texts:
        expr = parse_expression(text, UNIT_CHART, PARAMS)
        for order in range(4):
            (got, f1), (want, f2) = _both(lambda walk, f: walk(expr, POINTS, order, f), faults)
            _assert_same(got, f1, want, f2, f"{text!r} order {order}")
            # one point alone, a chunk of one, takes the same route as in the batch
            (one, _), (ref, _) = _both(lambda walk, f: walk(expr, POINTS[5:6], order, f), [None])
            _assert_same(one, [None], ref, [None], f"{text!r} order {order} at one point")


def _rebind(monkeypatch, original, wrapper):
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("tetradkit"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)


def test_a_run_builds_no_jet_known_to_be_zero(monkeypatch):
    """A 100-point random-fields run built 1,224 constant jets, 1,998
    coordinate jets and 1,998 Leibniz products with the full tree walk."""
    counts = {"constant": 0, "coordinate": 0, "_mul_scalar": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("constant", "coordinate"):
        monkeypatch.setattr(Jet, name, classmethod(counting(name, getattr(Jet, name).__func__)))
    _rebind(monkeypatch, jets._mul_scalar, counting("_mul_scalar", jets._mul_scalar))
    run_checks(builtin_scenario("random-fields"), points=100, seed=0)
    assert counts["constant"] < 1224 // 2
    assert counts["coordinate"] < 1998 // 2
    assert counts["_mul_scalar"] < 1998 // 2
