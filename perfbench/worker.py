"""Run one workload in this process and print its summary as one JSON line.

Started by ``run.py`` in a fresh interpreter with BLAS and OpenMP pinned to
one thread.  One client runs rounds of queries in a closed loop: each query
starts when the previous one returns.  Only the program calls are timed;
input generation and the checks run between the timed stretches.  The loop
stops after the first whole round that ends past ``--seconds`` (and past 100
queries), so the failed share is the same in every run.

Between queries the workload's control task (``controls``) runs whenever
its total time falls below a tenth of the program's.  Each query's time is
divided by the speed scale of the control runs nearest to it in time, so
the time metrics read as at the reference machine's speed; the unscaled
figures go into the run record.

With ``--trace 1`` each round runs twice on the same inputs, once traced
and once not, in alternating order; the traced pass supplies the per-layer
metrics and the results that are checked, and the ratio of the two passes'
times is the tracing overhead.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import random
import resource
import sys
import time

import mpmath
import numpy as np
import scipy

import freemoments
import oracles
from controls import ControlRunner
from tracing import Tracer, quantile
from workloads import WORKLOADS

MIN_QUERIES = 100
# control time as a share of program time
CONTROL_SHARE = 0.1


def _execute(queries, tracer=None, controls=None):
    """Run the queries one after another, with control runs between them if
    ``controls`` is given; return results (None where one raised), latencies
    in seconds, the middle of each call on the ``perf_counter`` clock, the
    exceptions raised, and the stretch's wall time."""
    results, latencies, middles, errors = [], [], [], {}
    clock = time.perf_counter
    start = clock()
    for i, query in enumerate(queries):
        if tracer is not None:
            tracer.query_id += 1
        t0 = clock()
        try:
            result = query.call()
        except Exception as exc:  # a failed query is counted, not fatal
            result, errors[i] = None, f"{type(exc).__name__}: {exc}"
        latency = clock() - t0
        latencies.append(latency)
        middles.append(t0 + latency / 2)
        results.append(result)
        if controls is not None:
            controls.after_call(latency)
    return results, latencies, middles, errors, clock() - start


def _passes(check, result) -> bool:
    try:
        return bool(check(result))
    except Exception:  # a result the check cannot even read is wrong
        return False


def _blas_versions() -> dict:
    def version(config):
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name')} {blas.get('version')}"

    return {"numpy": version(np.__config__.CONFIG), "scipy": version(scipy.__config__.CONFIG)}


def discipline() -> dict:
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "thread_env": {name: os.environ.get(name) for name in pins},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": _blas_versions(),
        "freemoments": freemoments.__file__,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]()
    problems = oracles.self_test()
    workload.warm()
    tracer = Tracer() if trace else None  # patches nothing until enabled

    # one round not counted, so lazy imports and oracle tables are in place
    _execute(workload.round(random.Random(f"{name}/{seed}/warm-up"), 0).queries)
    workload.control()
    controls = ControlRunner(workload.control, CONTROL_SHARE)

    attempted = failed = 0
    calls: list[tuple[float, float, bool]] = []  # (latency, middle of the call, passed)
    by_kind: dict[str, list[float]] = {}
    failures: dict[str, int] = {}
    unexpected: list[str] = []
    timed = untraced = traced = 0.0
    start = time.perf_counter()
    for index in itertools.count():
        current = workload.round(random.Random(f"{name}/{seed}/{index}"), index)
        queries = current.queries
        gc.collect()
        if tracer is None:
            results, latencies, middles, errors, _ = _execute(queries, controls=controls)
            wall = sum(latencies)
        else:
            for traced_pass in (index % 2 == 1, index % 2 == 0):
                if traced_pass:
                    tracer.enable()
                    try:
                        results, latencies, middles, errors, wall = _execute(queries, tracer)
                    finally:
                        tracer.disable()
                    traced += wall
                else:
                    untraced += _execute(queries)[4]
        timed += wall

        wrong = set(errors)
        for i, (query, result) in enumerate(zip(queries, results)):
            if i not in wrong and not _passes(query.check, result):
                wrong.add(i)
                errors[i] = "check failed"
        if current.check is not None:
            for i in current.check(results) - wrong:
                wrong.add(i)
                errors[i] = "round check failed"
        for i, (query, latency, middle) in enumerate(zip(queries, latencies, middles)):
            attempted += 1
            calls.append((latency, middle, i not in wrong))
            if i in wrong:
                failed += 1
                key = f"{query.kind}: {errors[i]}"[:160]
                failures[key] = failures.get(key, 0) + 1
                if not query.kept_fault:
                    unexpected.append(key)
            else:
                by_kind.setdefault(query.kind, []).append(latency)
        if time.perf_counter() - start >= seconds and attempted >= MIN_QUERIES:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passed = attempted - failed
    summary = {
        "correct": not problems and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "rounds": index + 1,
        "timed_s": timed,
        "oracle_problems": problems,
        "failures": failures,
        "kinds": {
            kind: {"count": len(v), "p50_ms": 1e3 * quantile(v, 0.5), "p90_ms": 1e3 * quantile(v, 0.9)}
            for kind, v in sorted(by_kind.items())
        },
        "discipline": discipline(),
    }
    if tracer is None:
        scales = controls.scales([middle for _, middle, _ in calls], workload.CONTROL_NOMINAL_S)
        scaled = [latency / scale for (latency, _, _), scale in zip(calls, scales)]
        passed_scaled = [t for t, (_, _, ok) in zip(scaled, calls) if ok]
        unscaled = [latency for latency, _, ok in calls if ok]
        summary["control"] = {
            "runs": len(controls.took),
            "median_ms": 1e3 * quantile(controls.took, 0.5),
            "nominal_ms": 1e3 * workload.CONTROL_NOMINAL_S,
            "speed_scale": quantile(scales, 0.5),
            "unscaled": {
                "queries_per_s": passed / timed,
                "query_p50_ms": 1e3 * quantile(unscaled, 0.5),
                "query_p90_ms": 1e3 * quantile(unscaled, 0.9),
            },
        }
        summary["metrics"] = {
            "queries_per_s": (passed / sum(scaled), "1/s"),
            "query_p50_ms": (1e3 * quantile(passed_scaled, 0.5), "ms"),
            "query_p90_ms": (1e3 * quantile(passed_scaled, 0.9), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
        summary["metrics"] = metrics
        summary["query_spans"] = tracer.query_spans
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
