"""Expression programs run once for many points: bit-identical to one point
at a time, a chunk of one, with each point's fault kept to itself in the
caller's list."""

import math

import numpy as np
import pytest

from tetradkit.exprkit import Chart, DomainFault, JetProgram, eval_jet, eval_jet_grid, parse_expression
from tetradkit.geometry import ContorsionField, SpinConnectionField, SummedConnection
from tetradkit.jets import Jet, JetDomainError

from frames import ZeroConnection
from tetradkit.pointjets import DEPTH, PointJets
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


def _row(jet, i):
    """Point i's row of a chunk jet, as a chunk of one."""
    return Jet._trusted(jet.order, [d[i : i + 1] for d in jet.data])


def _chunk(fn, points, *args):
    """``fn`` over a chunk with a fresh fault list: the jet, point axis
    first, and the list."""
    faults = [None] * len(points)
    jet = fn(points, *args, faults)
    assert all(len(d) == len(points) for d in jet.data)
    return jet, faults


def _at(jet, faults, i):
    """Point i's fault, or its row of a chunk jet."""
    return faults[i] or _row(jet, i)


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


def _alone(fn, point, *args):
    """``fn`` at ``point`` alone, a chunk of one: its jet, or its fault."""
    faults = [None]
    jet = fn([point], *args, faults)
    return faults[0] or jet


def _eval(expr):
    return lambda points, *args: eval_jet(expr, points, *args)


def _expression_fields(sc):
    fields = [sc.tetrad]
    stack = [sc.connection]
    while stack:
        source = stack.pop()
        if isinstance(source, SummedConnection):
            stack += [source.base, source.extra]
        elif isinstance(source, (SpinConnectionField, ContorsionField)):
            fields.append(source)
    return fields + [f for f in (sc.matter._stress, sc.matter._spin) if f is not None]


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
            jet, faults = _chunk(field.jet, points, order)
            for i, point in enumerate(points):
                _same(_alone(field.jet, point, order), _at(jet, faults, i))
        for expr in _trees(field):
            jet, faults = _chunk(_eval(expr), points, 3)
            for i, point in enumerate(points):
                _same(_alone(_eval(expr), point, 3), _at(jet, faults, i))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chunk_serves_what_each_point_derives_alone(name):
    sc = scenario_from_dict(SCENARIOS[name](), source=name)
    points = sample_points(sc.chart, 40, 5)
    chunk = PointJets(sc.tetrad, sc.connection, points, sc.matter)
    assert chunk.points.tobytes() == points.tobytes()
    top = 1 if sc.matter.mode == "manufactured" else 0
    for read in (
        lambda j: j.e(DEPTH),
        lambda j: j.omega(DEPTH),
        lambda j: j.einstein(top),
        lambda j: j.stress(DEPTH - 1),
        lambda j: j.spin(DEPTH - 1),
    ):
        faults = chunk.record()
        served = read(chunk)
        for i, point in enumerate(points):
            alone = PointJets(sc.tetrad, sc.connection, [point], sc.matter)
            fault = alone.record()
            got = read(alone)
            _same(fault[0] or got, faults[i] or _row(served, i))


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
    faults = [None] * len(points)
    jet = eval_jet(expr, points, 3, faults)
    for i, point in enumerate(points):
        _same(_alone(_eval(expr), point, 3), _at(jet, faults, i))
        if x0[i] == bad:
            assert type(faults[i]) is kind
            assert str(faults[i]) == message
            # a recorded fault holds no frames, which would pin the walk
            assert faults[i].__traceback__ is None
        else:
            assert faults[i] is None


def test_first_fault_in_post_order_wins():
    points = np.array([[-0.9, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
    # the log comes first in post-order, so the overflow after it is never met
    faults = [None, None]
    eval_jet(parse_expression("log(x0) + exp(-800*x0)", CHART), points, 2, faults)
    assert str(faults[0]) == "log of non-positive value -0.9 in 'log(x0)'"
    faults = [None, None]
    eval_jet(parse_expression("exp(-800*x0) + log(x0)", CHART), points, 2, faults)
    assert type(faults[0]) is OverflowError
    assert faults[1] is None


def test_a_filled_slot_is_neither_walked_nor_renamed():
    # point 0's slot holds an earlier fault, so the overflow there is never
    # met, and only the fault the walk meets itself becomes a DomainFault
    earlier = JetDomainError("earlier")
    faults = [earlier, None, None]
    points = np.array([[x, 0.0, 0.0, 0.0] for x in (0.9, -0.5, 0.25)])
    expr = parse_expression("log(x0) * exp(800*x0)", CHART)
    jet = eval_jet(expr, points, 2, faults)
    assert faults[0] is earlier
    assert str(faults[1]) == "log of non-positive value -0.5 in 'log(x0)'"
    assert faults[2] is None
    _same(_alone(_eval(expr), points[2], 2), _row(jet, 2))


def test_a_faulted_point_is_carried_without_warnings():
    # at x0 = -0.9 a walk that kept computing would overflow in the power;
    # tier-1 turns any RuntimeWarning into an error
    points = np.array([[-0.9, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
    expr = parse_expression("log(x0) + (1 - x0)^1100", CHART)
    faults = [None, None]
    jet = eval_jet(expr, points, 3, faults)
    assert isinstance(faults[0], DomainFault)
    _same(_alone(_eval(expr), points[1], 3), _at(jet, faults, 1))


def test_first_fault_in_grid_order_wins():
    grid = [
        [parse_expression(t, CHART) for t in ("1/x0", "log(x0)")],
        [parse_expression(t, CHART) for t in ("sqrt(x0)", "exp(800*x0)")],
    ]
    points = np.array([[x, 0.0, 0.0, 0.0] for x in (-0.5, 0.0, 0.9, 0.5)])
    jet, faults = _chunk(lambda p, *a: eval_jet_grid(grid, p, *a), points, 2)
    assert str(faults[0]) == "log of non-positive value -0.5 in 'log(x0)'"
    assert str(faults[1]) == "division by zero in '1 / x0'"
    assert type(faults[2]) is OverflowError
    assert faults[3] is None
    for i, point in enumerate(points):
        _same(_alone(lambda p, *a: eval_jet_grid(grid, p, *a), point, 2), _at(jet, faults, i))


def test_pair_entries_fault_in_insertion_order():
    field = SpinConnectionField(
        {"12": ["0", "sqrt(x0)", "0", "0"], "01": ["log(x0)", "0", "0", "0"]}, CHART
    )
    _, faults = _chunk(field.jet, np.array([[-0.5, 0.0, 0.0, 0.0]]), 1)
    assert str(faults[0]) == "sqrt of negative value -0.5 in 'sqrt(x0)'"


def test_a_served_fault_is_raised_only_when_read():
    # a chunk records each point's fault in the record of whoever reads it
    doc = builtin_document("minkowski")
    doc["tetrad"][0][0] = "1 + sqrt(x0)"
    doc["connection"]["entries"]["01"][0] = "log(x1)"
    sc = scenario_from_dict(doc)
    points = np.array([[0.5, -0.5, 0.0, 0.0], [-0.5, 0.5, 0.0, 0.0]])
    chunk = PointJets(sc.tetrad, sc.connection, points, sc.matter)
    faults = chunk.record()
    chunk.omega(2)
    assert faults[1] is None
    assert isinstance(faults[0], DomainFault)
    assert "log of non-positive value -0.5" in str(faults[0])
    faults = chunk.record()
    chunk.metric(0)
    assert faults[0] is None
    assert isinstance(faults[1], DomainFault)
    assert "sqrt of negative value -0.5" in str(faults[1])


@pytest.mark.parametrize("name", ["random-fields", "flrw-explicit-matter"])
def test_each_program_runs_once_per_chunk(name, monkeypatch):
    """Each expression field runs its one program once per chunk, and each
    tree of the scenario is compiled into exactly one program."""
    sc = scenario_from_dict(SCENARIOS[name](), source=name)
    runs = {}
    original = JetProgram.jet

    def counting(program, points, order, faults):
        runs[id(program)] = runs.get(id(program), 0) + 1
        return original(program, points, order, faults)

    monkeypatch.setattr(JetProgram, "jet", counting)
    run_checks(sc, points=100, seed=0)
    fields = _expression_fields(sc)
    assert len(fields) == (2 if name == "random-fields" else 3)
    assert {runs.get(id(field.program)) for field in fields} == {math.ceil(100 / CHUNK)}
    assert len(runs) == len(fields)
    compiled = [id(expr) for field in fields for expr in field.program.exprs]
    assert sorted(compiled) == sorted(id(expr) for field in fields for expr in _trees(field))
    assert len(set(compiled)) == len(compiled) == (16 + 24 if name == "random-fields" else 16 + 16 + 4)


def test_the_lowest_ranked_fault_wins_whatever_its_level():
    # the sqrt of the first entry sits three levels up, the log of the
    # second one level up: at x0 = -0.9 both fault, the log first in level
    # order and the sqrt first in rank order; at -0.5 only the log faults
    grid = [[parse_expression(t, CHART) for t in ("sqrt(2*(x0 + 0.75))", "log(x0)")]]
    tree = parse_expression("sqrt(2*(x0 + 0.75)) + log(x0)", CHART)
    points = np.array([[x, 0.0, 0.0, 0.0] for x in (-0.9, -0.5, 0.5)])
    for fn in (lambda p, *a: eval_jet_grid(grid, p, *a), _eval(tree)):
        jet, faults = _chunk(fn, points, 2)
        assert str(faults[0]).startswith("sqrt of negative value -0.3")
        assert str(faults[1]) == "log of non-positive value -0.5 in 'log(x0)'"
        assert faults[2] is None
        for i, point in enumerate(points):
            _same(_alone(fn, point, 2), _at(jet, faults, i))


@pytest.mark.parametrize("name", ["schwarzschild", "schwarzschild-horizon", "flat-contorsion", "random-fields"])
def test_a_chunked_connection_is_each_points_connection(name):
    sc = scenario_from_dict(SCENARIOS[name](), source=name)
    points = sample_points(sc.chart, 20, 6)
    jet, faults = _chunk(sc.connection.jet, points, 1)
    chunk = PointJets(sc.tetrad, sc.connection, points, sc.matter)
    record = chunk.record()
    served = chunk.omega(1)
    assert [str(f) for f in faults] == [str(f) for f in record]
    assert any(faults) == (name == "schwarzschild-horizon")
    for i, point in enumerate(points):
        _same(_alone(sc.connection.jet, point, 1), _at(jet, faults, i))
        if faults[i] is None:
            _same(_row(served, i), _row(jet, i))


def test_the_zero_connection_keeps_the_point_axis():
    jet, faults = _chunk(ZeroConnection().jet, np.zeros((3, 4)), 2)
    assert not any(faults)
    assert [d.shape for d in jet.data] == [(3, 4, 4, 4), (3, 4, 4, 4, 4), (3, 4, 4, 4, 4, 4)]
    assert not any(d.any() for d in jet.data)
