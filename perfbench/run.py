#!/usr/bin/env python3
"""Benchmark of tetradkit's run_checks, end to end and per layer.

    python3 perfbench/run.py --workload levi-civita --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, one at a time

Run from the repository root.  One workload runs in one fresh interpreter
with BLAS threads capped at 1.  Each timed call is ``run_checks`` followed
by ``report_document`` on one scenario at 100 points; calls cycle over the
workload's scenarios until ``--seconds`` is used up.  Every report goes
through the correctness gate in ``gate.py``.  With ``--trace 1`` the first
half of the time runs untraced and the second half traced (``layertrace.py``),
and the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with machine facts and report digests, goes to ``perfbench/results/``.
The exit status is 1 when any report is wrong and 2 when the run cannot
start, for instance when ``src/tetradkit`` is missing.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_report, report_digest
from workloads import (
    POINTS,
    WARMUP_SEED,
    WORKLOADS,
    build_scenario,
    call_seed,
    expected_checks,
    fault_rule,
    import_tetradkit,
    timed_call,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


# -- set-up ----------------------------------------------------------------


def require_sources():
    if not (SRC / "tetradkit" / "runner.py").is_file():
        raise SetupError(f"no tetradkit sources under {SRC}")


def prepare_interpreter():
    """Cap BLAS threads and put the checkout's src/ first on the path.

    Must run before numpy is imported.
    """
    require_sources()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def set_up(workload: str) -> tuple[list, float, float]:
    """Import tetradkit, build the scenarios, warm up once per scenario.

    Returns (scenarios, seconds for all of it, milliseconds spent building).
    numpy and mpmath are imported before the clock starts.
    """
    import mpmath  # noqa: F401
    import numpy  # noqa: F401

    start = time.perf_counter()
    import_tetradkit()
    import tetradkit

    if Path(tetradkit.__path__[0]).resolve() != (SRC / "tetradkit").resolve():
        raise SetupError(f"tetradkit imported from {tetradkit.__path__[0]}, not {SRC}")
    built = time.perf_counter()
    scenarios = [build_scenario(name) for name in WORKLOADS[workload]]
    build_ms = (time.perf_counter() - built) * 1e3
    for scenario in scenarios:
        timed_call(scenario, 1, WARMUP_SEED)
    return scenarios, time.perf_counter() - start, build_ms


def probe_setup(workload: str, repeats: int) -> list[dict]:
    """Set-up timed in ``repeats`` fresh interpreters, one after another."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def machine_facts() -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the layout of numpy's build report is not stable
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


# -- measurement -----------------------------------------------------------


def measure(scenarios, *, seconds: float, points: int, seed: int, tracer=None) -> list[dict]:
    """Timed calls cycling over the scenarios until ``seconds`` are used.

    Every scenario gets at least one call.  After that, a call is started
    only if it should end less than half a call past the deadline, judged
    by that scenario's previous call, so runs last ``seconds`` on average.
    """
    calls = []
    last: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        for scenario in scenarios:
            if k > 0 and time.perf_counter() + last[scenario.name] / 2 > deadline:
                return calls
            s = call_seed(seed, k)
            start = time.perf_counter()
            doc = timed_call(scenario, points, s)
            elapsed = time.perf_counter() - start
            last[scenario.name] = elapsed
            call = {"scenario": scenario.name, "round": k, "seed": s, "seconds": elapsed, "doc": doc}
            if tracer is not None:
                call["trace"] = tracer.finish_call(keep_spans=k == 0)
            calls.append(call)
        k += 1


def throughput(calls: list[dict], points: int) -> tuple[float, dict[str, float]]:
    """(points per second, ms per point by scenario), from median call times.

    Points per second is one call per scenario at its median time: the
    points of that round over its summed time.
    """
    by_scenario: dict[str, list[float]] = {}
    for call in calls:
        by_scenario.setdefault(call["scenario"], []).append(call["seconds"])
    medians = {name: statistics.median(times) for name, times in by_scenario.items()}
    points_per_s = points * len(medians) / sum(medians.values())
    return points_per_s, {name: 1e3 * t / points for name, t in medians.items()}


def judge(calls: list[dict], scenarios, points: int) -> dict:
    """Run the gate on every call; collect digests per (scenario, seed)."""
    by_name = {sc.name: sc for sc in scenarios}
    expected = {sc.name: expected_checks(sc) for sc in scenarios}
    attempted = failed = 0
    problems: list[str] = []
    digests: dict[str, dict[str, str]] = {}
    for call in calls:
        name = call["scenario"]
        verdict = check_report(
            call["doc"], points=points, expected=expected[name], fault_rule=fault_rule(by_name[name])
        )
        attempted += verdict.attempted
        failed += verdict.failed
        problems += [f"{name} seed {call['seed']}: {p}" for p in verdict.problems]
        digest = report_digest(call["doc"])
        known = digests.setdefault(name, {}).setdefault(str(call["seed"]), digest)
        if known != digest:
            failed += verdict.attempted - verdict.failed
            problems.append(f"{name} seed {call['seed']}: digest differs between runs of one input")
    return {"attempted": attempted, "failed": failed, "problems": problems, "digests": digests}


def layer_metrics(traced: list[dict], points: int, probes, overhead: float) -> dict:
    """Per-layer metrics of the traced calls.

    Times are per sampled point over every traced call.  Counts come from
    the first traced call of each scenario only, so they repeat exactly
    for a given seed whatever the run length.
    """
    from layertrace import TIMED

    runner = sys.modules["tetradkit.runner"]
    all_points = points * len(traced)
    first = [c for c in traced if c["round"] == 0]
    first_points = points * len(first)
    self_ms = {}
    check_ms = {}
    for call in traced:
        for layer, secs in call["trace"].self_s.items():
            self_ms[layer] = self_ms.get(layer, 0.0) + secs
        for name, secs in call["trace"].check_s.items():
            check_ms[name] = check_ms.get(name, 0.0) + secs

    def per_point_ms(table, key):
        return 1e3 * table.get(key, 0.0) / all_points

    def count(*targets):
        return sum(c["trace"].counts.get(t, 0) for c in first for t in targets) / first_points

    eval_calls = sum(c["trace"].counts.get("exprkit:eval_jet", 0) for c in first)
    eval_keys = sum(c["trace"].eval_keys for c in first)

    m = {
        "exprkit.eval.self_ms_per_point": (per_point_ms(self_ms, "exprkit.eval"), "ms"),
        "exprkit.eval.calls_per_point": (count("exprkit:eval_jet"), "count"),
        "exprkit.eval.distinct_ratio": (eval_keys / eval_calls if eval_calls else 1.0, "ratio"),
        "exprkit.faults_per_point": (sum(c["trace"].faults for c in first) / first_points, "count"),
        "jets.init_per_point": (count("jets:Jet.__init__"), "count"),
        "jets.einsum_per_point": (count("jets:jet_einsum"), "count"),
        "geometry.connection.self_ms_per_point": (per_point_ms(self_ms, "geometry.connection"), "ms"),
        "geometry.levi_civita.calls_per_point": (count("geometry:LeviCivitaConnection.jet"), "count"),
        "geometry.derived.self_ms_per_point": (per_point_ms(self_ms, "geometry.derived"), "ms"),
        "geometry.field_strength.calls_per_point": (count("geometry:field_strength_jet"), "count"),
        "geometry.inverse_tetrad.calls_per_point": (count("geometry:inverse_tetrad_jet"), "count"),
        "fieldeqs.derived.self_ms_per_point": (per_point_ms(self_ms, "fieldeqs.derived"), "ms"),
        "fieldeqs.einstein.calls_per_point": (count("fieldeqs:einstein_jet"), "count"),
        "fieldeqs.determinant.calls_per_point": (count("fieldeqs:determinant_jet"), "count"),
        "fieldeqs.residuals.self_ms_per_point": (per_point_ms(self_ms, "fieldeqs.residuals"), "ms"),
        "forms.self_ms_per_point": (per_point_ms(self_ms, "forms"), "ms"),
        "forms.calls_per_point": (count(*TIMED["forms"]), "count"),
        "identities.self_ms_per_point": (per_point_ms(self_ms, "identities"), "ms"),
    }
    for name in runner.CHECK_NAMES:
        m[f"check.{name}.ms_per_point"] = (per_point_ms(check_ms, name), "ms")
    report_ms = [1e3 * c["trace"].self_s.get("runner.report", 0.0) for c in traced]
    m["runner.self_ms_per_point"] = (per_point_ms(self_ms, "runner"), "ms")
    m["runner.errors_per_point"] = (sum(len(c["doc"]["errors"]) for c in first) / first_points, "count")
    m["runner.report_ms"] = (statistics.median(report_ms), "ms")
    m["scenarios.build_ms"] = (statistics.median(p["build_ms"] for p in probes), "ms")
    m["trace_overhead"] = (overhead, "ratio")
    return m


def first_counts(traced: list[dict]) -> dict[str, dict[str, int]]:
    """Calls per traced target in each scenario's first traced call."""
    return {
        call["scenario"]: dict(sorted(call["trace"].counts.items()))
        for call in traced
        if call["round"] == 0
    }


def write_spans(path: Path, traced: list[dict]):
    """The spans of each scenario's first traced call, as gzipped JSON."""
    out = []
    for call in traced:
        trace = call["trace"]
        if call["round"] == 0:
            out.append({"scenario": call["scenario"], "seed": call["seed"], "names": trace.names,
                        "spans": [list(span) for span in trace.spans]})
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(out, handle)


# -- one workload ----------------------------------------------------------


def gated_names(trace: bool) -> list[str]:
    """The metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args) -> int:
    load_start = os.getloadavg()[0]
    prepare_interpreter()
    gated = gated_names(args.trace)
    scenarios, _, _ = set_up(args.workload)
    probes = probe_setup(args.workload, SETUP_REPEATS)
    facts = machine_facts()

    if args.trace:
        half = args.seconds / 2.0
        plain = measure(scenarios, seconds=half, points=args.points, seed=args.seed)
        from layertrace import Tracer  # imports numpy: only after the BLAS cap

        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(scenarios, seconds=half, points=args.points, seed=args.seed, tracer=tracer)
        finally:
            tracer.uninstall()
        calls = plain + traced
    else:
        calls = measure(scenarios, seconds=args.seconds, points=args.points, seed=args.seed)
        plain, traced = calls, []

    verdict = judge(calls, scenarios, args.points)
    points_per_s, ms_per_point = throughput(plain, args.points)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(p["setup_s"] for p in probes)
    end_to_end = {
        "points_per_s": (points_per_s, "points/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {f"ms_per_point.{name}": (v, "ms") for name, v in ms_per_point.items()}
    extra["failed_share"] = (verdict["failed"] / verdict["attempted"], "ratio")
    layers = {}
    if traced:
        overhead = throughput(traced, args.points)[0] / points_per_s
        layers = layer_metrics(traced, args.points, probes, overhead)
    metrics = {**end_to_end, **extra, **layers}

    correct = verdict["failed"] == 0 and not verdict["problems"]
    facts["loadavg_1min"] = {"start": load_start, "end": os.getloadavg()[0]}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "points": args.points,
        "trace": bool(args.trace),
        "machine": facts,
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "problems": verdict["problems"][:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_probes": probes,
        "calls": [{k: c[k] for k in ("scenario", "seed", "seconds")} | {"traced": "trace" in c} for c in calls],
        "digests": verdict["digests"],
        "absent": tracer.absent if traced else [],
        "counts": first_counts(traced),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if traced:
        write_spans(RESULTS / f"{stem}-spans.json.gz", traced)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"points {args.points}  trace {int(args.trace)}  calls {len(calls)}")
    print("machine " + "  ".join(f"{k} {v}" for k, v in facts.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:12.6g} {unit}")
    for line in verdict["problems"][:20]:
        print(f"  wrong: {line}")
    if traced and tracer.absent:
        print("  absent: " + ", ".join(tracer.absent))
    print(f"record {RESULTS.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in gated},
    }))
    return 0 if correct else 1


def run_setup_probe(workload: str) -> int:
    prepare_interpreter()
    _, seconds, build_ms = set_up(workload)
    print(json.dumps({"setup_s": seconds, "build_ms": build_ms}))
    return 0


# -- every workload --------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one at a time."""
    require_sources()
    results = {}
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace)), "--points", str(args.points)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 4 * args.seconds)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
        if lines:
            results[workload] = json.loads(lines[-1])
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"all-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=POINTS, help="points per call (tests shrink it)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.points < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 0, --points >= 1 and --seconds > 0")
    try:
        if args.setup_probe:
            return run_setup_probe(args.workload)
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
