"""The repository benchmark: one command, one workload, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload cold_f4_stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics;
``--trace 1`` spends the first half of ``--seconds`` untraced and the second
half traced over the same inputs, and prints the per-layer metrics plus
``unattributed_ms`` and ``trace.overhead_share``.  Both modes run the
correctness check.  Progress goes to standard error; standard output gets
one JSON line of details (environment, check, tail percentile, generator
lateness) and, as its last line, the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Which end-to-end metric each per-layer metric should move:

* ``plan.*`` -> ``query_p50_s`` on ``served_auto_shared``.
* ``service.*`` -> ``query_tail_s`` on ``served_auto_shared``.
* ``executor.*`` -> ``tuples_per_s`` on every workload.
* ``local_inference.predict_*`` -> ``tuples_per_s`` on ``cold_f4_stream``;
  ``local_inference.block_*`` -> ``tuples_per_s`` on ``galaxy_q1_scan``.
* ``index.*`` -> ``tuples_per_s`` on ``cold_f4_stream``.
* ``gp.*`` -> ``tuples_per_s`` on ``cold_f4_stream`` and ``galaxy_q1_scan``.
* ``bound.*`` and ``sampling.ms`` -> ``tuples_per_s`` on ``galaxy_q1_scan``.
* ``udf.*`` -> ``udf_calls_per_tuple`` and ``query_p50_s`` on
  ``served_auto_shared``.
* ``model_sync.*`` -> ``query_p50_s`` on ``served_auto_shared``.

``served_auto_shared`` runs with this command but is not listed in
``BENCHMARK.json`` while its outputs fail the correctness check (see
``suite.ServedAutoShared``).

Per-layer times and counts are per tuple completed in the traced half, so
runs that complete different amounts of work compare.  Phases come only
from the benchmark's own wrappers (``layertrace``), never from
``QueryResult.timings``: results of ``Query.run`` carry only an
``execute`` phase (and ``model_*`` when served), not the ``sampling`` /
``inference`` / ``refinement`` phases that ``compute_with_plan`` reports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(record: dict, suite) -> dict:
    """The end-to-end metrics of an untraced measurement.

    Every workload reports throughput, UDF calls per tuple, peak memory
    and set-up time; the open-loop served workload adds the share of
    ``certain`` tuples, its query latencies and completed queries per
    second.  The ``certain`` share and the mean reported error bound of
    every workload are in the details line: on ``cold_f4_stream`` about
    half the tuples converge, and the quartiles of either over ten seeds
    lie up to 0.37 of the median apart, more than the largest bound a
    metric may have.
    """
    import numpy as np

    m = record["measurement"]
    workload = suite.WORKLOADS[record["workload"]]
    window = m.window_s
    metrics = {
        "tuples_per_s": _metric(m.tuples / window, "1/s"),
        "udf_calls_per_tuple": _metric(m.udf_calls / max(1, m.tuples), "count"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": _metric(record["setup_s"], "s"),
    }
    if isinstance(workload, suite.ServedAutoShared):
        metrics["certain_share"] = _metric(m.certain / max(1, m.tuples), "ratio")
        metrics["query_p50_s"] = _metric(float(np.median(m.latencies)), "s")
        metrics["query_tail_s"] = _metric(suite.tail_latency(m.latencies)[1], "s")
        metrics["completed_qps"] = _metric(m.queries / window, "1/s")
    return metrics


def per_layer(record: dict, suite) -> dict:
    """The per-layer metrics of a traced measurement, per tuple completed.

    Only the served workload goes through the query service and the shared
    model store, so only it reports ``service.*`` and ``model_sync.*``; on
    the batch workloads they would read 0 on every run.

    ``unattributed_ms`` is the time some query was in flight but no
    top-level layer span was open.  ``trace.overhead_share`` compares the
    latencies of the queries both halves completed (same inputs, engine
    seeds and send times), traced over untraced.
    """
    import layertrace

    trace = record["trace"]
    traced = record["traced"]
    plain = record["measurement"]
    tuples = max(1, traced.tuples)

    def ms(layer: str) -> float:
        return 1e3 * trace.seconds[layer] / tuples

    def per_tuple(count: float) -> float:
        return count / tuples

    top_level = layertrace.covered_seconds(trace.top_intervals)
    unattributed = max(0.0, traced.busy_s - top_level)
    common = set(traced.by_index) & set(plain.by_index)
    overhead = 0.0
    if common:
        overhead = (sum(traced.by_index[i] for i in common)
                    / sum(plain.by_index[i] for i in common)) - 1.0
    metrics = {
        "plan.resolve_ms": _metric(ms("plan"), "ms/tuple"),
        "plan.resolve_calls": _metric(per_tuple(trace.calls["plan"]), "1/tuple"),
        "executor.self_ms": _metric(1e3 * trace.self_seconds["executor"] / tuples, "ms/tuple"),
        "executor.chunks": _metric(per_tuple(trace.counters["executor.chunks"]), "1/tuple"),
        "local_inference.predict_calls": _metric(
            per_tuple(trace.calls["local_inference.predict"]), "1/tuple"),
        "local_inference.predict_ms": _metric(ms("local_inference.predict"), "ms/tuple"),
        "local_inference.block_calls": _metric(
            per_tuple(trace.calls["local_inference.block"]), "1/tuple"),
        "local_inference.block_ms": _metric(ms("local_inference.block"), "ms/tuple"),
        "index.search_calls": _metric(per_tuple(trace.calls["index.search"]), "1/tuple"),
        "index.search_ms": _metric(ms("index.search"), "ms/tuple"),
        "index.insert_ms": _metric(ms("index.insert"), "ms/tuple"),
        "gp.linalg_ms": _metric(ms("gp.linalg"), "ms/tuple"),
        "gp.factorizations": _metric(per_tuple(trace.counters["gp.factorizations"]), "1/tuple"),
        "gp.add_points_ms": _metric(ms("gp.add_points"), "ms/tuple"),
        "gp.train_ms": _metric(ms("gp.train"), "ms/tuple"),
        "gp.train_calls": _metric(per_tuple(trace.calls["gp.train"]), "1/tuple"),
        "bound.ms": _metric(ms("bound"), "ms/tuple"),
        "bound.calls": _metric(per_tuple(trace.calls["bound"]), "1/tuple"),
        "sampling.ms": _metric(ms("sampling"), "ms/tuple"),
        "udf.calls": _metric(per_tuple(trace.calls["udf"]), "1/tuple"),
        "udf.wait_ms": _metric(ms("udf"), "ms/tuple"),
        "udf.useful_ratio": _metric(suite.useful_ratio(trace, traced.training_rows), "ratio"),
        "unattributed_ms": _metric(1e3 * unattributed / tuples, "ms/tuple"),
        "trace.overhead_share": _metric(overhead, "ratio"),
    }
    if isinstance(suite.WORKLOADS[record["workload"]], suite.ServedAutoShared):
        waits = trace.queue_waits
        metrics.update({
            "service.queue_wait_ms": _metric(
                1e3 * sum(waits) / len(waits) if waits else 0.0, "ms/query"),
            "service.inflight_max": _metric(
                trace.maxima.get("service.inflight_max", 0), "count"),
            "model_sync.ms": _metric(ms("model_sync"), "ms/tuple"),
            "model_sync.absorbed": _metric(
                per_tuple(trace.counters["model_sync.absorbed"]), "1/tuple"),
            "model_sync.published": _metric(
                per_tuple(trace.counters["model_sync.published"]), "1/tuple"),
        })
    return metrics


def details(record: dict, suite, environment: dict) -> dict:
    """Everything the result line has no room for."""
    m = record["measurement"]
    workload = suite.WORKLOADS[record["workload"]]
    info = {
        "workload": record["workload"],
        "env": environment,
        "check": record["check"],
        "epsilon": suite.EPSILON,
        "delta": suite.DELTA,
        "slack": suite.SLACK,
        "queries": m.queries,
        "tuples": m.tuples,
        "certain_share": m.certain / max(1, m.tuples),
        "mean_error_bound": m.bound_sum / max(1, m.bounds),
        "window_s": m.window_s,
        "setup_times_s": record["setup_times_s"],
        "query_latencies_s": m.latencies,
        **m.details,
    }
    if isinstance(workload, suite.ServedAutoShared):
        percentile, tail = suite.tail_latency(m.latencies)
        info["query_tail"] = {"percentile": percentile, "samples": len(m.latencies),
                              "beyond": sum(1 for x in m.latencies if x > tail)}
    if "traced" in record:
        info["traced_check"] = record["traced_check"]
        info["traced_details"] = record["traced"].details
    return info


def main(argv: list) -> int:
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _log("perfbench: no src/repro under the current directory; "
             "run from the repository root")
        return 2
    sys.path.insert(0, src)
    import envinfo
    import suite

    if args.workload not in suite.WORKLOADS:
        _log(f"perfbench: unknown workload {args.workload!r}; "
             f"choose from {sorted(suite.WORKLOADS)}")
        return 2
    if args.seconds <= 0:
        _log("perfbench: --seconds must be positive")
        return 2
    record = suite.run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), _log)
    m = record["measurement"]
    if not m.latencies:
        _log("perfbench: no query completed")
        return 1
    metrics = per_layer(record, suite) if args.trace else end_to_end(record, suite)
    attempted = m.attempted + (record["traced"].attempted if args.trace else 0)
    failed = m.failed + (record["traced"].failed if args.trace else 0)
    print(json.dumps(details(record, suite, envinfo.environment())))
    print(json.dumps({
        "correct": record["check"]["passed"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
