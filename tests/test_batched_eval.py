"""Expression trees walked once for many points: bit-identical to one point
at a time, with each point's fault kept to itself."""

import math

import numpy as np
import pytest

from tetradkit import exprkit
from tetradkit.exprkit import Chart, DomainFault, JetBatch, eval_jet, eval_jet_grid, parse_expression
from tetradkit.geometry import ContorsionField, SpinConnectionField, SummedConnection
from tetradkit.pointjets import DEPTH, PointJets, chunk_jets
from tetradkit.runner import CHUNK, run_checks, sample_points
from tetradkit.scenarios import BUILTIN_NAMES, builtin_document, builtin_scenario, scenario_from_dict

CHART = Chart(("x0", "x1", "x2", "x3"), ((-1.0, 1.0),) * 4)


def _horizon_document():
    doc = builtin_document("schwarzschild")
    doc["name"] = "schwarzschild-horizon"
    doc["chart"]["bounds"][0] = [1.0, 10.0]
    return doc


def _explicit_matter_document():
    # the stress faults at x < -0.5, so a chunk serves faults and jets
    doc = builtin_document("flrw")
    doc["name"] = "flrw-explicit-matter"
    stress = [["0.1*y" if i == j else "0" for j in range(4)] for i in range(4)]
    stress[0][0] = "log(x + 0.5)"
    doc["matter"] = {"mode": "explicit", "stress": stress, "spin": {"01": ["0.2*x", "0", "z^2", "0"]}}
    return doc


SCENARIOS = {name: (lambda name=name: builtin_document(name)) for name in BUILTIN_NAMES}
SCENARIOS["schwarzschild-horizon"] = _horizon_document
SCENARIOS["flrw-explicit-matter"] = _explicit_matter_document


def _same(one, many_at_i):
    """A point's jet or fault alone equals its entry in a batch, bit for bit."""
    if isinstance(one, Exception):
        assert type(many_at_i) is type(one)
        assert str(many_at_i) == str(one)
        return
    assert not isinstance(many_at_i, Exception), many_at_i
    assert many_at_i.order == one.order
    for alone, batched in zip(one.data, many_at_i.data):
        assert batched.shape == alone.shape
        assert batched.tobytes() == alone.tobytes()


def _alone(fn, *args):
    """``fn(*args)``, or the fault it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return exc


def _expression_fields(sc):
    fields = [sc.tetrad]
    stack = [sc.connection]
    while stack:
        source = stack.pop()
        if isinstance(source, SummedConnection):
            stack += [source.base, source.extra]
        elif isinstance(source, (SpinConnectionField, ContorsionField)):
            fields.append(source)
    return fields + list(sc.matter.fields)


def _trees(field):
    """The expression trees of a grid or a pair field."""
    rows = field.exprs.values() if isinstance(field.exprs, dict) else field.exprs
    return [expr for row in rows for expr in row]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batch_equals_one_point_at_a_time(name):
    sc = scenario_from_dict(SCENARIOS[name](), source=name)
    points = sample_points(sc.chart, 40, 3)
    for field in _expression_fields(sc):
        for order in range(4):
            batch = field.jet(points, order)
            assert isinstance(batch, JetBatch)
            for i, point in enumerate(points):
                _same(_alone(field.jet, point, order), batch.at(i))
        for expr in _trees(field):
            batch = eval_jet(expr, points, 3)
            for i, point in enumerate(points):
                _same(_alone(eval_jet, expr, point, 3), batch.at(i))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chunk_serves_what_each_point_derives_alone(name):
    sc = scenario_from_dict(SCENARIOS[name](), source=name)
    points = sample_points(sc.chart, 40, 5)
    served = list(chunk_jets(sc.tetrad, sc.connection, points, sc.matter))
    assert [jets.point.tobytes() for jets in served] == [x.tobytes() for x in points]
    for jets, point in zip(served, points):
        alone = PointJets(sc.tetrad, sc.connection, point, sc.matter)
        for read in (
            lambda j: j.e(DEPTH),
            lambda j: j.omega(DEPTH),
            lambda j: j.einstein(1),
            lambda j: j.stress(DEPTH - 1),
            lambda j: j.spin(DEPTH - 1),
        ):
            _same(_alone(read, alone), _alone(read, jets))


# (expression, x0, type, message) at points where some faults and some do not
FAULTS = [
    ("log(x0)", -0.5, DomainFault, "log of non-positive value -0.5 in 'log(x0)'"),
    ("log(x0)", 0.0, DomainFault, "log of non-positive value 0.0 in 'log(x0)'"),
    ("sqrt(x0)", -0.25, DomainFault, "sqrt of negative value -0.25 in 'sqrt(x0)'"),
    ("sqrt(x0)", 0.0, DomainFault, "sqrt has no derivatives at 0 in 'sqrt(x0)'"),
    ("x0^0.5", -0.25, DomainFault, "real power of non-positive base -0.25 in 'x0^0.5'"),
    ("1/x0", 0.0, DomainFault, "division by zero in '1 / x0'"),
    ("1/x0", 1e-200, ZeroDivisionError, "float division by zero"),
    ("(x0 - 0.5)^(-3)", 0.5, DomainFault, "division by zero in '(x0 - 0.5)^(-3)'"),
    ("exp(800*x0)", 0.9, OverflowError, "math range error"),
]
LIVE = (0.25, 0.75, 0.6)


@pytest.mark.parametrize("text, bad, kind, message", FAULTS, ids=[f"{t}@{b}" for t, b, *_ in FAULTS])
def test_fault_corpus(text, bad, kind, message):
    expr = parse_expression(text, CHART)
    x0 = [LIVE[0], bad, LIVE[1], bad, LIVE[2]]
    points = np.array([[x, 0.1 * i, -0.2, 0.3] for i, x in enumerate(x0)])
    batch = eval_jet(expr, points, 3)
    for i, point in enumerate(points):
        _same(_alone(eval_jet, expr, point, 3), batch.at(i))
        if x0[i] == bad:
            assert type(batch.faults[i]) is kind
            assert str(batch.faults[i]) == message
            # a recorded fault holds no frames, which would pin the walk
            assert batch.faults[i].__traceback__ is None
        else:
            assert batch.faults[i] is None


def test_first_fault_in_post_order_wins():
    points = np.array([[-0.9, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
    # the log comes first in post-order, so the overflow after it is never met
    batch = eval_jet(parse_expression("log(x0) + exp(-800*x0)", CHART), points, 2)
    assert str(batch.faults[0]) == "log of non-positive value -0.9 in 'log(x0)'"
    batch = eval_jet(parse_expression("exp(-800*x0) + log(x0)", CHART), points, 2)
    assert type(batch.faults[0]) is OverflowError
    assert batch.faults[1] is None


def test_a_faulted_point_is_carried_without_warnings():
    # at x0 = -0.9 a walk that kept computing would overflow in the power;
    # tier-1 turns any RuntimeWarning into an error
    points = np.array([[-0.9, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
    expr = parse_expression("log(x0) + (1 - x0)^1100", CHART)
    batch = eval_jet(expr, points, 3)
    assert isinstance(batch.faults[0], DomainFault)
    _same(eval_jet(expr, points[1], 3), batch.at(1))


def test_first_fault_in_grid_order_wins():
    grid = [
        [parse_expression(t, CHART) for t in ("1/x0", "log(x0)")],
        [parse_expression(t, CHART) for t in ("sqrt(x0)", "exp(800*x0)")],
    ]
    points = np.array([[x, 0.0, 0.0, 0.0] for x in (-0.5, 0.0, 0.9, 0.5)])
    batch = eval_jet_grid(grid, points, 2)
    assert str(batch.faults[0]) == "log of non-positive value -0.5 in 'log(x0)'"
    assert str(batch.faults[1]) == "division by zero in '1 / x0'"
    assert type(batch.faults[2]) is OverflowError
    assert batch.faults[3] is None
    for i, point in enumerate(points):
        _same(_alone(eval_jet_grid, grid, point, 2), batch.at(i))


def test_pair_entries_fault_in_insertion_order():
    field = SpinConnectionField(
        {"12": ["0", "sqrt(x0)", "0", "0"], "01": ["log(x0)", "0", "0", "0"]}, CHART
    )
    batch = field.jet(np.array([[-0.5, 0.0, 0.0, 0.0]]), 1)
    assert str(batch.faults[0]) == "sqrt of negative value -0.5 in 'sqrt(x0)'"


def test_a_served_fault_is_raised_only_when_read():
    doc = builtin_document("minkowski")
    doc["tetrad"][0][0] = "1 + sqrt(x0)"
    doc["connection"]["entries"]["01"][0] = "log(x1)"
    sc = scenario_from_dict(doc)
    points = np.array([[0.5, -0.5, 0.0, 0.0], [-0.5, 0.5, 0.0, 0.0]])
    first, second = chunk_jets(sc.tetrad, sc.connection, points, sc.matter)
    first.e(2)
    with pytest.raises(DomainFault, match="log of non-positive value -0.5"):
        first.omega(2)
    second.omega(2)
    with pytest.raises(DomainFault, match="sqrt of negative value -0.5"):
        second.metric(0)


def test_each_tree_is_walked_once_per_chunk(monkeypatch):
    sc = builtin_scenario("random-fields")
    walks = {}
    original = exprkit.eval_jet

    def counting(expr, point, order):
        walks[id(expr)] = walks.get(id(expr), 0) + 1
        return original(expr, point, order)

    monkeypatch.setattr(exprkit, "eval_jet", counting)
    run_checks(sc, points=100, seed=0)
    trees = [expr for row in sc.tetrad.exprs for expr in row]
    trees += [expr for row in sc.connection.exprs.values() for expr in row]
    assert len(trees) == 40
    assert {walks.get(id(expr)) for expr in trees} == {math.ceil(100 / CHUNK)}
    assert len(walks) == 40


def test_explicit_matter_is_walked_once_per_chunk(monkeypatch):
    sc = scenario_from_dict(_explicit_matter_document())
    walks = {}
    original = exprkit.eval_jet

    def counting(expr, point, order):
        walks[id(expr)] = walks.get(id(expr), 0) + 1
        return original(expr, point, order)

    monkeypatch.setattr(exprkit, "eval_jet", counting)
    run_checks(sc, points=100, seed=0)
    trees = [expr for field in sc.matter.fields for expr in _trees(field)]
    assert len(trees) == 16 + 4
    assert {walks.get(id(expr)) for expr in trees} == {math.ceil(100 / CHUNK)}
