"""PointJets: one memoized derivation per chunk of points, bit-identical
to deriving each quantity directly, row by row as at a chunk of one, lazy,
and remembering faults."""

import re
import sys

import numpy as np
import numpy.testing as npt
import pytest

from tetradkit import forms, pointjets, runner
from tetradkit.exprkit import DomainFault
from tetradkit.fieldeqs import (
    MatterModel,
    curvature_three_form,
    derivative_torsion_three_form,
    determinant_jet,
    einstein_jet,
    riemann_jet,
    spin_tensor_to_form,
    stress_tensor_to_form,
    torsion_q_jet,
    torsion_three_form,
)
from tetradkit.forms import AntisymmetryError, eta_lower
from tetradkit.geometry import (
    LeviCivitaConnection,
    SummedConnection,
    christoffel_jet,
    field_strength_jet,
    inverse_tetrad_jet,
    levi_civita_jet,
    metric_jet,
    torsion_jet,
)
from tetradkit.jets import Jet, JetError, jet_matrix_inverse
from tetradkit.pointjets import PointJets
from tetradkit.runner import CHECKS, CHUNK, run_checks, sample_points
from tetradkit.scenarios import BUILTIN_NAMES, builtin_document, builtin_scenario, scenario_from_dict


def _ok(jet):
    """A fault list for a derivation from ``jet`` at points that do not
    fault."""
    return [None] * len(jet.value)


def _at(source, x, k):
    return source.jet(x, k, [None] * len(x))


def _inverse(ej):
    return inverse_tetrad_jet(ej, _ok(ej))


def _riemann(e, w, x, k):
    ek = _at(e, x, k)
    return riemann_jet(ek, _inverse(ek), field_strength_jet(_at(w, x, k + 1)))


def _einstein(e, w, x, k):
    ek = _at(e, x, k)
    f = field_strength_jet(_at(w, x, k + 1))
    return einstein_jet(_riemann(e, w, x, k), _inverse(ek), metric_jet(ek), f)


def _inverse_metric(ek):
    g = metric_jet(ek)
    return jet_matrix_inverse(g, _ok(g))


def _stress_form(e, w, m, x, k):
    ek = _at(e, x, k)
    t = m.stress_jet(PointJets(e, w, x, m), k)
    return stress_tensor_to_form(t, _inverse(ek), _inverse_metric(ek), determinant_jet(ek), m.kappa)


# quantity -> (deepest order served from memory, direct route at order k);
# a top of None follows the recipe (``_recipe_top``)
DIRECT = {
    "e": (2, lambda e, w, m, x, k: _at(e, x, k)),
    "omega": (2, lambda e, w, m, x, k: _at(w, x, k)),
    "omega_lowered": (2, lambda e, w, m, x, k: eta_lower(_at(w, x, k), 1)),
    "inverse_tetrad": (None, lambda e, w, m, x, k: _inverse(_at(e, x, k))),
    "metric": (1, lambda e, w, m, x, k: metric_jet(_at(e, x, k))),
    "inverse_metric": (1, lambda e, w, m, x, k: _inverse_metric(_at(e, x, k))),
    "determinant": (1, lambda e, w, m, x, k: determinant_jet(_at(e, x, k))),
    "field_strength": (1, lambda e, w, m, x, k: field_strength_jet(_at(w, x, k + 1))),
    "torsion": (1, lambda e, w, m, x, k: torsion_jet(_at(e, x, k + 1), eta_lower(_at(w, x, k), 1))),
    "christoffel": (
        0,
        lambda e, w, m, x, k: christoffel_jet(
            _at(e, x, k + 1), eta_lower(_at(w, x, k), 1), _inverse(_at(e, x, k + 1))
        ),
    ),
    "torsion_tensor": (
        None,
        lambda e, w, m, x, k: torsion_q_jet(_at(e, x, k + 1), eta_lower(_at(w, x, k), 1), [None] * len(x)),
    ),
    "riemann": (None, lambda e, w, m, x, k: _riemann(e, w, x, k)),
    "einstein": (None, lambda e, w, m, x, k: _einstein(e, w, x, k)),
    "curvature_three_form": (
        1,
        lambda e, w, m, x, k: curvature_three_form(_at(e, x, k), field_strength_jet(_at(w, x, k + 1))),
    ),
    "torsion_three_form": (
        1,
        lambda e, w, m, x, k: torsion_three_form(
            torsion_jet(_at(e, x, k + 1), eta_lower(_at(w, x, k), 1)), _at(e, x, k)
        ),
    ),
    "derivative_torsion_three_form": (
        0,
        lambda e, w, m, x, k: derivative_torsion_three_form(_at(e, x, k + 1), eta_lower(_at(w, x, k), 1)),
    ),
    "stress": (1, lambda e, w, m, x, k: m.stress_jet(PointJets(e, w, x, m), k)),
    "spin": (1, lambda e, w, m, x, k: m.spin_jet(PointJets(e, w, x, m), k)),
    "stress_form": (1, _stress_form),
    "spin_form": (
        1,
        lambda e, w, m, x, k: spin_tensor_to_form(
            m.spin_jet(PointJets(e, w, x, m), k), _at(e, x, k), m.kappa
        ),
    ),
}


def _recipe_top(quantity, sc):
    """The inverse tetrad is read at order 2 only by the Levi-Civita
    connection of the tetrad; the torsion, Riemann and Einstein tensors at
    order 1 only by manufactured sources."""
    if quantity == "inverse_tetrad":
        summed = sc.connection.base if isinstance(sc.connection, SummedConnection) else sc.connection
        return 2 if isinstance(summed, LeviCivitaConnection) else 1
    return 1 if sc.matter.mode == "manufactured" else 0


def _tops(sc):
    return {q: _recipe_top(q, sc) if top is None else top for q, (top, _) in DIRECT.items()}


@pytest.mark.parametrize("name", ["random-fields", "flat-polar", "schwarzschild"])
def test_served_jets_equal_direct_derivation(name):
    sc = builtin_scenario(name)
    e, omega = sc.tetrad, sc.connection
    matter = sc.matter
    tops = _tops(sc)
    for x in sample_points(sc.chart, 3, 0)[:, None]:
        jets = PointJets(e, omega, x, matter)
        for quantity, (_, direct) in DIRECT.items():
            top = tops[quantity]
            # highest order first, so the lower ones are truncations
            for k in range(top, -1, -1):
                served = getattr(jets, quantity)(k)
                want = direct(e, omega, matter, x, k)
                assert served.order == want.order == k, (quantity, k)
                for got_k, want_k in zip(served.data, want.data):
                    npt.assert_array_equal(got_k, want_k, err_msg=f"{quantity} order {k}")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_chunk_row_is_the_points_own_derivation(name):
    # each point of a 5-point chunk against a chunk of that point alone,
    # bit for bit, at every order the recipe serves
    sc = builtin_scenario(name)
    points = sample_points(sc.chart, 5, 3)
    chunk = PointJets(sc.tetrad, sc.connection, points, sc.matter)
    alone = [PointJets(sc.tetrad, sc.connection, points[i : i + 1], sc.matter) for i in range(5)]
    for quantity, top in _tops(sc).items():
        for k in range(top, -1, -1):
            rows = getattr(chunk, quantity)(k)
            assert len(rows.value) == 5 and rows.order == k
            for i in range(5):
                one = getattr(alone[i], quantity)(k)
                for d, d_one in zip(rows.data, one.data):
                    assert d_one.shape == (1,) + d.shape[1:]
                    npt.assert_array_equal(d[i], d_one[0], err_msg=f"{quantity} order {k}")


def test_points_must_be_an_n_by_4_array():
    # a bare point of shape (4,) is not read as four points
    sc = builtin_scenario("minkowski")
    for bad in (np.zeros(4), np.zeros((2, 3)), np.zeros((1, 2, 4))):
        shape = re.escape(str(bad.shape))
        with pytest.raises(ValueError, match=rf"\(N, 4\) array of points, got shape {shape}"):
            PointJets(sc.tetrad, sc.connection, bad)


def test_a_request_deeper_than_served_raises():
    sc = builtin_scenario("random-fields")
    e, omega = sc.tetrad, sc.connection
    jets = PointJets(e, omega, sample_points(sc.chart, 1, 0))
    with pytest.raises(JetError):
        jets.omega(3)
    with pytest.raises(JetError):
        jets.derivative_torsion_three_form(1)


def _record_serves(monkeypatch):
    """Record, per memo key, the top order it is built at and the deepest
    order any reader, derivations included, asks of it."""
    built, asked = {}, {}
    original = PointJets._serve

    def serve(self, key, order, top, build):
        if key not in self._memo:
            built[key] = max(built.get(key, top), top)
        asked[key] = max(asked.get(key, order), order)
        return original(self, key, order, top, build)

    monkeypatch.setattr(PointJets, "_serve", serve)
    return built, asked


def test_christoffel_and_inverse_metric_are_built_to_what_is_read(monkeypatch):
    # every reader of Gamma takes its value, and g^-1 is read at order 1 at most
    built, _ = _record_serves(monkeypatch)
    run_checks(builtin_scenario("random-fields"), points=2, seed=0)
    assert (built["gamma"], built["ginv"]) == (0, 1)


def test_no_memo_key_is_built_deeper_than_it_is_read(monkeypatch):
    built, asked = _record_serves(monkeypatch)
    for name in BUILTIN_NAMES:
        run_checks(builtin_scenario(name), points=2, seed=0)
    deeper = {key: (top, asked[key]) for key, top in built.items() if top > asked[key]}
    assert not deeper


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_no_memo_key_is_built_deeper_than_its_scenario_reads(monkeypatch, name):
    # the tops follow the recipe: on vacuum the torsion and Einstein tensors
    # are read at order 0, and with an explicit connection the inverse
    # tetrad at order 1
    built, asked = _record_serves(monkeypatch)
    run_checks(builtin_scenario(name), points=2, seed=0)
    deeper = {key: (top, asked[key]) for key, top in built.items() if top > asked[key]}
    assert not deeper


def test_each_source_is_evaluated_once():
    sc = builtin_scenario("schwarzschild")
    e = sc.tetrad
    calls = []

    class Counting:
        def jet(self, points, order, faults):
            calls.append(order)
            return e.jet(points, order, faults)

    counted = Counting()
    # manufactured sources read the Einstein tensor at order 1
    x = sample_points(sc.chart, 1, 0)
    jets = PointJets(counted, LeviCivitaConnection(counted), x, MatterModel("manufactured"))
    for k in (1, 0, 2):
        jets.omega(k)
        jets.e(k)
        jets.einstein(k - 1 if k else 0)
    # the Levi-Civita formula reads the memoized tetrad one order deeper
    assert calls == [3]


def test_levi_civita_reads_the_points_inverse_tetrad(monkeypatch):
    # one inverse per chunk of points, which the connection formula reads;
    # a run never evaluates the recipe's own jet
    calls = []
    for function in (inverse_tetrad_jet, levi_civita_jet):
        def counting(*args, function=function):
            # the jet the function derives from: the tetrad, or the inverse
            calls.append((function.__name__, args[function is levi_civita_jet].order))
            return function(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("tetradkit") and vars(module).get(function.__name__) is function:
                monkeypatch.setattr(module, function.__name__, counting)
    monkeypatch.setattr(LeviCivitaConnection, "jet", None)
    run_checks(builtin_scenario("schwarzschild"), points=CHUNK + 5, seed=0)
    assert calls == [("inverse_tetrad_jet", 2), ("levi_civita_jet", 2)] * 2


@pytest.mark.parametrize(
    "function, first_order",
    [
        pytest.param(function, order, id=function.__name__)
        for function, order in (
            (field_strength_jet, 2),
            (curvature_three_form, 1),
            (torsion_three_form, 1),
            (derivative_torsion_three_form, 1),
            (spin_tensor_to_form, 1),
            (stress_tensor_to_form, 1),
        )
    ],
)
def test_derived_once_per_point(monkeypatch, function, first_order):
    # every check, d2-law and commutator included, reads the chunk's F, its
    # geometric 3-forms and its manufactured source forms, derived once per
    # chunk of points; the first argument's order is recorded, and the
    # derivative route to the torsion side takes the tetrad one order above
    # its own
    calls = []

    def counting(first, *rest):
        calls.append(first.order)
        return function(first, *rest)

    for name, module in list(sys.modules.items()):
        bound = vars(module).get(function.__name__)
        if name.startswith("tetradkit") and bound is function:
            monkeypatch.setattr(module, function.__name__, counting)
    run_checks(builtin_scenario("random-fields"), points=CHUNK + 5, seed=0)
    assert calls == [first_order] * 2


def test_explicit_sources_are_evaluated_once_per_point(monkeypatch):
    doc = builtin_document("flrw")
    doc["matter"] = {
        "mode": "explicit",
        "stress": [["0.1*x*y + 0.05", "0.02*t", "0", "0.01"],
                   ["0.02*t", "0.2 + 0.1*z*z", "0.03*x", "0"],
                   ["0", "0.03*x", "0.15 - 0.05*t*y", "0.02*z"],
                   ["0.01", "0", "0.02*z", "0.3 + 0.1*x*t"]],
        "spin": {"01": ["0.1*t", "0.05", "0.02*x*y", "0"], "23": ["0", "0.03*z", "0.04", "0.01*t*t"]},
    }
    calls = {"stress_jet": [], "spin_jet": []}
    for attr, seen in calls.items():
        original = getattr(MatterModel, attr)

        def counting(self, jets, order, original=original, seen=seen):
            seen.append(order)
            return original(self, jets, order)

        monkeypatch.setattr(MatterModel, attr, counting)
    # once per chunk of points
    run_checks(scenario_from_dict(doc), points=CHUNK + 5, seed=0)
    assert calls == {"stress_jet": [1] * 2, "spin_jet": [1] * 2}


def _horizon_scenario():
    doc = builtin_document("schwarzschild")
    doc["name"] = "schwarzschild-horizon"
    doc["chart"]["bounds"][0] = [1.0, 10.0]
    return scenario_from_dict(doc)


def test_horizon_faults_one_row_per_check_inside_only():
    sc = _horizon_scenario()
    report = run_checks(sc, points=40, seed=0)
    applicable = [c.name for c in CHECKS if c.applies(sc)]
    pts = sample_points(sc.chart, 40, 0)
    inside = [list(map(float, x)) for x in pts if x[0] < 2.0]
    assert inside
    for x in inside:
        rows = [r for r in report.errors if r["point"] == x]
        assert sorted(r["check"] for r in rows) == sorted(applicable)
        assert all(r["message"].startswith("DomainFault: ") for r in rows)
    assert len(report.errors) == len(inside) * len(applicable)


def test_each_check_reports_the_fault_of_what_it_reads_first():
    # at x0 < 0 both fields fault, with different messages: the tetrad on
    # the sqrt, the connection on the log
    doc = builtin_document("minkowski")
    doc["name"] = "both-fault"
    doc["tetrad"][0][0] = "1 + sqrt(x0)"
    doc["connection"]["entries"]["01"][0] = "log(x0)"
    sc = scenario_from_dict(doc)
    report = run_checks(sc, points=20, seed=0)
    faulted = {tuple(x) for x in sample_points(sc.chart, 20, 0).tolist() if x[0] < 0}
    assert faulted
    by_check = {}
    for row in report.errors:
        assert tuple(row["point"]) in faulted
        by_check.setdefault(row["check"], set()).add(row["message"].split(" value")[0])
    connection_only = {"second-bianchi", "d2-law", "commutator"}
    for name in (c.name for c in CHECKS if c.applies(sc)):
        want = "log of non-positive" if name in connection_only else "sqrt of negative"
        assert by_check[name] == {f"DomainFault: {want}"}, name


def test_a_fault_is_remembered_and_recorded_again():
    doc = builtin_document("minkowski")
    doc["tetrad"][0][0] = "1 + sqrt(x0)"
    sc = scenario_from_dict(doc)
    e, omega = sc.tetrad, sc.connection
    jets = PointJets(e, omega, np.array([[-0.5, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]]))
    first = jets.record()
    jets.metric(1)
    assert isinstance(first[0], DomainFault) and first[1] is None
    again = jets.record()
    jets.inverse_tetrad(0)
    assert again[0] is first[0] and again[1] is None
    clean = jets.record()
    jets.omega(2)  # the connection does not read the tetrad
    assert clean == [None, None]


def test_field_strength_and_torsion_are_checked_once_per_chunk(monkeypatch):
    # each is validated where the chunk derives it, one call per derivative
    # tensor and index block, and no reader checks it again
    calls = []
    original = forms._check_antisym

    def counting(arr, start, n, what):
        calls.append(arr.shape[1:])
        return original(arr, start, n, what)

    monkeypatch.setattr(forms, "_check_antisym", counting)
    run_checks(builtin_scenario("flat-contorsion"), points=CHUNK + 5, seed=0)
    # F[a, b, mu, nu] and theta[a, mu, nu] at orders 0 and 1, two blocks each
    per_chunk = [(4,) * 4] * 2 + [(4,) * 5] * 2 + [(4,) * 3] * 2 + [(4,) * 4] * 2
    assert sorted(calls) == sorted(per_chunk * 2)


def test_a_run_rejects_a_field_strength_that_is_not_antisymmetric(monkeypatch):
    def lopsided(omega):
        f = field_strength_jet(omega)
        bump = np.zeros((4, 4, 4, 4))
        bump[0, 1, 2, 3] = bump[1, 0, 2, 3] = 1e-3  # symmetric in the internal pair
        return Jet._trusted(f.order, [f.data[0] + bump] + f.data[1:])

    monkeypatch.setattr(pointjets, "field_strength_jet", lopsided)
    with pytest.raises(AntisymmetryError, match="internal"):
        run_checks(builtin_scenario("random-fields"), points=3, seed=0)


def _memo_bytes(jets: PointJets) -> int:
    arrays = {id(d): d.nbytes for value, _ in jets._memo.values() for d in value.data}
    return sum(arrays.values())


def test_the_memo_of_a_chunk_stays_small():
    # the 3-forms are held by their dual vectors: a 12-point flat-contorsion
    # chunk holds about 61 KB per point after every check, against about
    # 162 KB with the 3-forms dense
    sc = builtin_scenario("flat-contorsion")
    points = sample_points(sc.chart, CHUNK, 0)
    jets = PointJets(sc.tetrad, sc.connection, points, sc.matter)
    for check in CHECKS:
        if check.applies(sc):
            rngs = [runner._aux_rng((0, i), check.name) for i in range(CHUNK)]
            check.evaluate(jets, *runner._random_jets(rngs, check.draws))
    assert _memo_bytes(jets) / CHUNK <= 80 * 1024
