"""Tracing changes no result, repeats its counts, and survives missing names."""

import layertrace
from gate import report_digest
from layertrace import Tracer
from workloads import build_scenario, import_tetradkit, timed_call

from tetradkit import exprkit, geometry, jets, runner

import_tetradkit()


def _traced_call(tracer, scenario, points, seed):
    doc = timed_call(scenario, points, seed)
    return doc, tracer.finish_call(keep_spans=True)


def test_traced_reports_match_and_counts_repeat():
    scenario = build_scenario("flrw")
    plain = timed_call(scenario, 3, 7)
    tracer = Tracer()
    tracer.install()
    try:
        first, trace1 = _traced_call(tracer, scenario, 3, 7)
        second, trace2 = _traced_call(tracer, scenario, 3, 7)
    finally:
        tracer.uninstall()
    assert report_digest(first) == report_digest(plain) == report_digest(second)
    assert trace1.counts == trace2.counts
    assert trace1.counts["exprkit:eval_jet"] > 0
    assert trace1.counts["geometry:LeviCivitaConnection.jet"] == 3 * 3
    assert trace1.self_s["runner"] > 0
    assert trace1.spans and all(span[3] < i for i, span in enumerate(trace1.spans))


def test_uninstall_restores_every_binding():
    originals = (
        exprkit.eval_jet,
        geometry.eval_jet_grid,
        geometry.LeviCivitaConnection.jet,
        jets.Jet.__init__,
        runner.run_checks,
        tuple(c.evaluate for c in runner.CHECKS),
    )
    tracer = Tracer()
    tracer.install()
    assert exprkit.eval_jet is not originals[0]
    tracer.uninstall()
    assert originals == (
        exprkit.eval_jet,
        geometry.eval_jet_grid,
        geometry.LeviCivitaConnection.jet,
        jets.Jet.__init__,
        runner.run_checks,
        tuple(c.evaluate for c in runner.CHECKS),
    )


def test_missing_target_is_reported_absent(monkeypatch):
    timed = dict(layertrace.TIMED)
    timed["geometry.derived"] = timed["geometry.derived"] + ("geometry:no_such_function",)
    monkeypatch.setattr(layertrace, "TIMED", timed)
    monkeypatch.setattr(layertrace, "COUNTED", layertrace.COUNTED + ("jets:Gone.__init__",))
    tracer = Tracer()
    tracer.install()
    try:
        timed_call(build_scenario("minkowski"), 1, 0)
        tracer.finish_call(keep_spans=False)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["geometry:no_such_function", "jets:Gone.__init__"]
