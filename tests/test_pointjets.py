"""PointJets: one memoized derivation per point, bit-identical to deriving
each quantity directly, lazy, and remembering faults."""

import sys

import numpy as np
import numpy.testing as npt
import pytest

from tetradkit.exprkit import DomainFault
from tetradkit.fieldeqs import determinant_jet, einstein_jet, riemann_jet, torsion_q_jet
from tetradkit.geometry import (
    LeviCivitaConnection,
    christoffel_jet,
    field_strength_jet,
    inverse_tetrad_jet,
    metric_jet,
    torsion_jet,
)
from tetradkit.jets import jet_matrix_inverse
from tetradkit.pointjets import PointJets
from tetradkit.runner import CHECKS, run_checks, sample_points
from tetradkit.scenarios import builtin_document, builtin_scenario, scenario_from_dict

# quantity -> (deepest order served from memory, direct route at order k)
DIRECT = {
    "e": (2, lambda e, w, x, k: e.jet(x, k)),
    "omega": (2, lambda e, w, x, k: w.jet(x, k)),
    "inverse_tetrad": (2, lambda e, w, x, k: inverse_tetrad_jet(e.jet(x, k))),
    "metric": (2, lambda e, w, x, k: metric_jet(e.jet(x, k))),
    "inverse_metric": (2, lambda e, w, x, k: jet_matrix_inverse(metric_jet(e.jet(x, k)))),
    "determinant": (1, lambda e, w, x, k: determinant_jet(e.jet(x, k))),
    "field_strength": (1, lambda e, w, x, k: field_strength_jet(w.jet(x, k + 1))),
    "torsion": (1, lambda e, w, x, k: torsion_jet(e.jet(x, k + 1), w.jet(x, k))),
    "christoffel": (1, lambda e, w, x, k: christoffel_jet(e.jet(x, k + 1), w.jet(x, k))),
    "torsion_tensor": (1, lambda e, w, x, k: torsion_q_jet(e.jet(x, k + 1), w.jet(x, k))),
    "riemann": (1, lambda e, w, x, k: riemann_jet(e.jet(x, k), w.jet(x, k + 1))),
    "einstein": (1, lambda e, w, x, k: einstein_jet(e.jet(x, k), w.jet(x, k + 1))),
}


@pytest.mark.parametrize("name", ["random-fields", "flat-polar", "schwarzschild"])
def test_served_jets_equal_direct_derivation(name):
    sc = builtin_scenario(name)
    e, omega = sc.frames()
    for x in sample_points(sc.chart, 3, 0):
        jets = PointJets(e, omega, x)
        for quantity, (top, direct) in DIRECT.items():
            # highest order first, so the lower ones are truncations
            for k in range(top, -1, -1):
                served = getattr(jets, quantity)(k)
                want = direct(e, omega, x, k)
                assert served.order == want.order == k, (quantity, k)
                for got_k, want_k in zip(served.data, want.data):
                    npt.assert_array_equal(got_k, want_k, err_msg=f"{quantity} order {k}")


def test_each_source_is_evaluated_once():
    sc = builtin_scenario("schwarzschild")
    e, _ = sc.frames()
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
    # the Levi-Civita solve reads the memoized tetrad one order deeper
    assert calls == [3]


def test_field_strength_is_derived_once_per_point(monkeypatch):
    # every check, d2-law and commutator included, reads the point's F
    calls = []

    def counting(omega):
        calls.append(omega.order)
        return field_strength_jet(omega)

    for name, module in list(sys.modules.items()):
        bound = vars(module).get("field_strength_jet")
        if name.startswith("tetradkit") and bound is field_strength_jet:
            monkeypatch.setattr(module, "field_strength_jet", counting)
    run_checks(builtin_scenario("random-fields"), points=5, seed=0)
    assert calls == [2] * 5


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
    e, omega = sc.frames()
    jets = PointJets(e, omega, np.array([-0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(DomainFault) as first:
        jets.metric(1)
    with pytest.raises(DomainFault) as again:
        jets.inverse_tetrad(0)
    assert again.value is first.value
    jets.omega(2)  # the connection does not read the tetrad
