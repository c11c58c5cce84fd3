"""PointJets: one memoized derivation per point, bit-identical to deriving
each quantity directly, lazy, and remembering faults."""

import sys

import numpy as np
import numpy.testing as npt
import pytest

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
from tetradkit.forms import MixedForm
from tetradkit.geometry import (
    LeviCivitaConnection,
    christoffel_jet,
    field_strength_jet,
    inverse_tetrad_jet,
    levi_civita_jet,
    metric_jet,
    torsion_jet,
)
from tetradkit.jets import JetError, jet_matrix_inverse
from tetradkit.pointjets import PointJets
from tetradkit.runner import CHECKS, run_checks, sample_points
from tetradkit.scenarios import builtin_document, builtin_scenario, scenario_from_dict


def _riemann(e, w, x, k):
    ek = e.jet(x, k)
    return riemann_jet(ek, inverse_tetrad_jet(ek), field_strength_jet(w.jet(x, k + 1)))


def _einstein(e, w, x, k):
    ek = e.jet(x, k)
    f = field_strength_jet(w.jet(x, k + 1))
    return einstein_jet(_riemann(e, w, x, k), inverse_tetrad_jet(ek), metric_jet(ek), f)


def _stress_form(e, w, m, x, k):
    ek = e.jet(x, k)
    t = m.stress_jet(PointJets(e, w, x, m), k)
    ginv = jet_matrix_inverse(metric_jet(ek))
    return stress_tensor_to_form(t, inverse_tetrad_jet(ek), ginv, determinant_jet(ek), m.kappa)


# quantity -> (deepest order served from memory, direct route at order k)
DIRECT = {
    "e": (2, lambda e, w, m, x, k: e.jet(x, k)),
    "omega": (2, lambda e, w, m, x, k: w.jet(x, k)),
    "inverse_tetrad": (2, lambda e, w, m, x, k: inverse_tetrad_jet(e.jet(x, k))),
    "metric": (2, lambda e, w, m, x, k: metric_jet(e.jet(x, k))),
    "inverse_metric": (2, lambda e, w, m, x, k: jet_matrix_inverse(metric_jet(e.jet(x, k)))),
    "determinant": (1, lambda e, w, m, x, k: determinant_jet(e.jet(x, k))),
    "field_strength": (1, lambda e, w, m, x, k: field_strength_jet(w.jet(x, k + 1))),
    "torsion": (1, lambda e, w, m, x, k: torsion_jet(e.jet(x, k + 1), w.jet(x, k))),
    "christoffel": (
        1,
        lambda e, w, m, x, k: christoffel_jet(
            e.jet(x, k + 1), w.jet(x, k), inverse_tetrad_jet(e.jet(x, k + 1))
        ),
    ),
    "torsion_tensor": (1, lambda e, w, m, x, k: torsion_q_jet(e.jet(x, k + 1), w.jet(x, k))),
    "riemann": (1, lambda e, w, m, x, k: _riemann(e, w, x, k)),
    "einstein": (1, lambda e, w, m, x, k: _einstein(e, w, x, k)),
    "curvature_three_form": (
        1,
        lambda e, w, m, x, k: curvature_three_form(e.jet(x, k), field_strength_jet(w.jet(x, k + 1))),
    ),
    "torsion_three_form": (
        1,
        lambda e, w, m, x, k: torsion_three_form(
            torsion_jet(e.jet(x, k + 1), w.jet(x, k)), e.jet(x, k)
        ),
    ),
    "derivative_torsion_three_form": (
        0,
        lambda e, w, m, x, k: derivative_torsion_three_form(e.jet(x, k + 1), w.jet(x, k)),
    ),
    "stress": (1, lambda e, w, m, x, k: m.stress_jet(PointJets(e, w, x, m), k)),
    "spin": (1, lambda e, w, m, x, k: m.spin_jet(PointJets(e, w, x, m), k)),
    "stress_form": (1, _stress_form),
    "spin_form": (
        1,
        lambda e, w, m, x, k: spin_tensor_to_form(
            m.spin_jet(PointJets(e, w, x, m), k), e.jet(x, k), m.kappa
        ),
    ),
}


def _as_jet(value):
    return value.jet if isinstance(value, MixedForm) else value


@pytest.mark.parametrize("name", ["random-fields", "flat-polar", "schwarzschild"])
def test_served_jets_equal_direct_derivation(name):
    sc = builtin_scenario(name)
    e, omega = sc.tetrad, sc.connection
    matter = sc.matter
    for x in sample_points(sc.chart, 3, 0):
        jets = PointJets(e, omega, x, matter)
        for quantity, (top, direct) in DIRECT.items():
            # highest order first, so the lower ones are truncations
            for k in range(top, -1, -1):
                served = _as_jet(getattr(jets, quantity)(k))
                want = _as_jet(direct(e, omega, matter, x, k))
                assert served.order == want.order == k, (quantity, k)
                for got_k, want_k in zip(served.data, want.data):
                    npt.assert_array_equal(got_k, want_k, err_msg=f"{quantity} order {k}")


def test_a_request_deeper_than_served_raises():
    sc = builtin_scenario("random-fields")
    e, omega = sc.tetrad, sc.connection
    jets = PointJets(e, omega, sample_points(sc.chart, 1, 0)[0])
    with pytest.raises(JetError):
        jets.omega(3)
    with pytest.raises(JetError):
        jets.derivative_torsion_three_form(1)


def test_each_source_is_evaluated_once():
    sc = builtin_scenario("schwarzschild")
    e = sc.tetrad
    calls = []

    class Counting:
        def jet(self, point, order):
            calls.append(order)
            return e.jet(point, order)

    counted = Counting()
    jets = PointJets(counted, LeviCivitaConnection(counted), sample_points(sc.chart, 1, 0)[0])
    for k in (1, 0, 2):
        jets.omega(k)
        jets.e(k)
        jets.einstein(k - 1 if k else 0)
    # the Levi-Civita formula reads the memoized tetrad one order deeper
    assert calls == [3]


def test_levi_civita_reads_the_points_inverse_tetrad(monkeypatch):
    # one inverse per point, which the connection formula reads; a run
    # never evaluates the recipe's own jet
    calls = []
    for function in (inverse_tetrad_jet, levi_civita_jet):
        def counting(*args, function=function):
            calls.append((function.__name__, args[-1].order))
            return function(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("tetradkit") and vars(module).get(function.__name__) is function:
                monkeypatch.setattr(module, function.__name__, counting)
    monkeypatch.setattr(LeviCivitaConnection, "jet", None)
    run_checks(builtin_scenario("schwarzschild"), points=5, seed=0)
    assert calls == [("inverse_tetrad_jet", 2), ("levi_civita_jet", 2)] * 5


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
    # every check, d2-law and commutator included, reads the point's F, its
    # geometric 3-forms and its manufactured source forms; the first
    # argument's order is recorded, and the derivative route to the torsion
    # side takes the tetrad one order above its own
    calls = []

    def counting(first, *rest):
        calls.append(first.order)
        return function(first, *rest)

    for name, module in list(sys.modules.items()):
        bound = vars(module).get(function.__name__)
        if name.startswith("tetradkit") and bound is function:
            monkeypatch.setattr(module, function.__name__, counting)
    run_checks(builtin_scenario("random-fields"), points=5, seed=0)
    assert calls == [first_order] * 5


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
    run_checks(scenario_from_dict(doc), points=5, seed=0)
    assert calls == {"stress_jet": [1] * 5, "spin_jet": [1] * 5}


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


def test_a_fault_is_remembered_and_raised_again():
    doc = builtin_document("minkowski")
    doc["tetrad"][0][0] = "1 + sqrt(x0)"
    sc = scenario_from_dict(doc)
    e, omega = sc.tetrad, sc.connection
    jets = PointJets(e, omega, np.array([-0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(DomainFault) as first:
        jets.metric(1)
    with pytest.raises(DomainFault) as again:
        jets.inverse_tetrad(0)
    assert again.value is first.value
    jets.omega(2)  # the connection does not read the tetrad
