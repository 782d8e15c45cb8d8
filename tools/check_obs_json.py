#!/usr/bin/env python3
"""Validates skymr observability artifacts: a Chrome trace (skymr-trace-v1),
a job report (skymr-report-v2), a bench artifact (skymr-bench-v1), a
metrics snapshot (skymr-metrics-v2), a load artifact (a skymr-bench-v1
document from bench "loadgen"), and/or a flight-recorder crash dump
(skymr-flight-v1).

Usage:
    check_obs_json.py [--trace trace.json] [--report report.json]
                      [--bench bench.json] [--metrics metrics.json]
                      [--load load.json] [--flight flight.jsonl]

Every flag may repeat, and every file given is validated. Exits non-zero
with a diagnostic on the first violation. Used by the CI obs-smoke and
bench-regression jobs; handy locally after `skymr_cli stats --trace-out
... --report-out ... --metrics-out ...` or any bench binary run.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"check_obs_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "skymr-trace-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    if doc.get("displayTimeUnit") != "ms":
        fail(f"{path}: displayTimeUnit is {doc.get('displayTimeUnit')!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    names = set()
    for i, e in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in e:
                fail(f"{path}: event {i} lacks {key!r}: {e}")
        if e["ph"] not in ("X", "i"):
            fail(f"{path}: event {i} has phase {e['ph']!r}")
        if e["ph"] == "X" and "dur" not in e:
            fail(f"{path}: complete event {i} lacks dur")
        if e["ph"] == "i" and e.get("s") != "t":
            fail(f"{path}: instant event {i} lacks scope 's':'t'")
        if e["ts"] < 0 or e.get("dur", 0) < 0:
            fail(f"{path}: event {i} has a negative timestamp/duration")
        names.add(e["name"])
    # An engine run must at least show the pipeline and one job with both
    # waves; anything less means the hooks regressed.
    for required in ("skyline.pipeline", "map.wave", "reduce.wave"):
        if required not in names:
            fail(f"{path}: no {required!r} span (got {sorted(names)})")
    print(f"check_obs_json: {path}: {len(events)} events OK")


def check_sketch(where, sk):
    """One QuantileSketch rendering, as both the report and the metrics
    snapshot write it."""
    for key in ("count", "sum", "min", "max", "p50", "p95", "p99",
                "relative_error"):
        if key not in sk:
            fail(f"{where}: lacks {key!r}")
    if sk["count"] > 0:
        if not sk["min"] <= sk["p50"] <= sk["p95"] <= sk["p99"] \
                <= sk["max"]:
            fail(f"{where}: quantiles out of order: {sk}")
    if not 0 < sk["relative_error"] < 1:
        fail(f"{where}: relative_error out of (0, 1): {sk}")


def check_critical_path(where, cp):
    for key in ("makespan_seconds", "phases", "path", "deterministic"):
        if key not in cp:
            fail(f"{where}: missing {key!r}")
    if cp["makespan_seconds"] < 0:
        fail(f"{where}: negative makespan")
    percent_sum = 0.0
    for p in cp["phases"]:
        for key in ("phase", "seconds", "percent", "what_if_free_percent"):
            if key not in p:
                fail(f"{where}: phase lacks {key!r}: {p}")
        if p["seconds"] < 0 or p["percent"] < 0:
            fail(f"{where}: negative phase attribution: {p}")
        percent_sum += p["percent"]
    # The phases partition the critical path, so the percents must sum to
    # 100 (of a nonzero makespan) up to rendering round-off.
    if cp["makespan_seconds"] > 0 and abs(percent_sum - 100.0) > 1.0:
        fail(f"{where}: phase percents sum to {percent_sum}, not 100")
    if cp["phases"] and not cp["path"]:
        fail(f"{where}: phases present but path empty")
    for step in cp["path"]:
        for key in ("job", "kind", "phase", "task", "attempts", "seconds",
                    "wave_median_seconds"):
            if key not in step:
                fail(f"{where}: path step lacks {key!r}: {step}")
        if step["kind"] not in ("map", "shuffle", "reduce"):
            fail(f"{where}: path step kind {step['kind']!r}")
        if step["attempts"] < 1:
            fail(f"{where}: path step with attempts < 1: {step}")
    det = cp["deterministic"]
    if not str(det.get("dag_signature", "")).startswith("jobs="):
        fail(f"{where}: deterministic.dag_signature malformed: "
             f"{det.get('dag_signature')!r}")
    det_sum = sum(p.get("percent", 0.0) for p in det.get("phases", []))
    det_records = sum(p.get("records", 0) for p in det.get("phases", []))
    if det_records > 0 and abs(det_sum - 100.0) > 1.0:
        fail(f"{where}: deterministic percents sum to {det_sum}, not 100")


def check_report(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "skymr-report-v2":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    for key in ("algorithm", "wall_seconds", "skyline_size", "dim",
                "input_tuples", "jobs"):
        if key not in doc:
            fail(f"{path}: missing {key!r}")
    if not doc["jobs"]:
        fail(f"{path}: jobs is empty")
    for job in doc["jobs"]:
        where = f"{path}: job {job.get('name')!r}"
        for key in ("name", "wall_seconds", "shuffle_bytes", "task_retries",
                    "cache_hits", "cache_misses", "counters", "sketches",
                    "skew", "map_tasks", "reduce_tasks"):
            if key not in job:
                fail(f"{where}: missing {key!r}")
        for name, sk in job["sketches"].items():
            check_sketch(f"{where}: sketch {name!r}", sk)
        for task in job["map_tasks"] + job["reduce_tasks"]:
            if task["attempts"] < 1:
                fail(f"{where}: task with attempts < 1: {task}")
        for task in job["reduce_tasks"]:
            if task.get("shuffle_seconds", 0) < 0:
                fail(f"{where}: reduce task with negative shuffle_seconds")
    # The critical_path block is emitted whenever any job ran tasks; its
    # phase table must partition the makespan.
    ran_tasks = any(job["map_tasks"] or job["reduce_tasks"]
                    for job in doc["jobs"])
    if ran_tasks and "critical_path" not in doc:
        fail(f"{path}: jobs ran tasks but critical_path block is missing")
    if "critical_path" in doc:
        check_critical_path(f"{path}: critical_path", doc["critical_path"])
    if doc.get("ppd", 0) > 0:
        if doc.get("ppd_rule") not in ("explicit", "paper-literal",
                                       "target-tpp"):
            fail(f"{path}: grid run (ppd > 0) with ppd_rule "
                 f"{doc.get('ppd_rule')!r}")
        cm = doc.get("cost_model")
        if cm is None:
            fail(f"{path}: grid run (ppd > 0) without cost_model")
        for key in ("predicted_mapper_comparisons",
                    "observed_max_mapper_comparisons",
                    "predicted_reducer_comparisons",
                    "observed_max_reducer_comparisons"):
            if key not in cm:
                fail(f"{path}: cost_model lacks {key!r}")
    print(f"check_obs_json: {path}: {len(doc['jobs'])} jobs OK")


def check_environment(path, doc):
    env = doc.get("environment")
    if not isinstance(env, dict):
        fail(f"{path}: missing 'environment'")
    for key in ("git_sha", "compiler", "build_type", "cxx_flags", "cpu",
                "kernel_backend", "tracing_compiled", "threads",
                "scale_env", "full_env", "reps"):
        if key not in env:
            fail(f"{path}: environment lacks {key!r}")


def check_rows(path, doc, allow_zero_reps=False):
    """Validates a skymr-bench-v1 rows array; returns the rows keyed by
    name."""
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: rows missing or empty")
    by_name = {}
    for i, row in enumerate(rows):
        where = f"{path}: row {i} ({row.get('name')!r})"
        if not row.get("name"):
            fail(f"{where}: missing 'name'")
        if row["name"] in by_name:
            fail(f"{where}: duplicate row name")
        by_name[row["name"]] = row
        wall = row.get("wall")
        if not isinstance(wall, dict):
            fail(f"{where}: missing 'wall'")
        for key in ("reps", "median_seconds", "mad_seconds", "cv",
                    "min_seconds", "max_seconds", "mean_seconds"):
            if key not in wall:
                fail(f"{where}: wall lacks {key!r}")
        # Load rows report the per-row query count as reps; a size class
        # may legitimately draw zero queries in a short schedule.
        if wall["reps"] < (0 if allow_zero_reps else 1):
            fail(f"{where}: wall.reps < 1")
        if wall["reps"] > 0 and not wall["min_seconds"] \
                <= wall["median_seconds"] <= wall["max_seconds"]:
            fail(f"{where}: wall median outside [min, max]: {wall}")
        det = row.get("deterministic")
        if not isinstance(det, dict) or not det:
            fail(f"{where}: deterministic section missing or empty")
        for name, value in det.items():
            if not isinstance(value, int):
                fail(f"{where}: deterministic[{name!r}] is not an int: "
                     f"{value!r}")
        if not isinstance(row.get("metrics"), dict):
            fail(f"{where}: missing 'metrics'")
    return by_name


def check_bench(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "skymr-bench-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    if not doc.get("bench"):
        fail(f"{path}: missing 'bench'")
    check_environment(path, doc)
    rows = check_rows(path, doc)
    print(f"check_obs_json: {path}: {len(rows)} bench rows OK")


# Metrics the load harness's aggregate `loadgen` row must carry: the run's
# configuration (as numbers; `serve` is 1 for serve mode), its throughput,
# the latency and queue-wait quantiles the row's wall block does not hold,
# and the admission and logging counters.
LOAD_METRICS = (
    "seed", "target_qps", "admission_slots", "threads", "deadline_ms",
    "chaos_enabled", "slow_query_index", "slow_query_ms", "serve",
    "throughput_qps", "wall_seconds", "latency_p95_us", "latency_p99_us",
    "queue_wait_p50_us", "queue_wait_p95_us", "queue_wait_p99_us",
    "queue_wait_max_us", "queue_wait_mean_us", "deadline_missed",
    "max_queue_depth", "max_inflight", "log_dropped")


def check_quantiles(where, p50, p95, p99, max_us):
    # Tolerate round-off from the wall block's seconds-to-microseconds
    # conversion.
    if not (p50 <= p95 * (1 + 1e-9) and p95 <= p99 * (1 + 1e-9)):
        fail(f"{where}: percentiles out of order: {p50}, {p95}, {p99}")
    if p99 > max_us * 1.01 + 1e-9:
        # The sketch's p99 is a bucket upper bound (1% relative error),
        # so it may sit a hair above the exact max.
        fail(f"{where}: p99 {p99} above max {max_us}")


def check_load(path):
    """A load artifact is a skymr-bench-v1 document from bench "loadgen":
    an aggregate `loadgen` row whose wall block summarizes every query's
    latency, plus one `size:<class>` row per size class."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "skymr-bench-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    if doc.get("bench") != "loadgen":
        fail(f"{path}: bench is {doc.get('bench')!r}")
    check_environment(path, doc)
    rows = check_rows(path, doc, allow_zero_reps=True)
    agg = rows.get("loadgen")
    if agg is None:
        fail(f"{path}: no aggregate 'loadgen' row")
    det = agg["deterministic"]
    for key in ("queries", "schedule_hash_hi", "schedule_hash_lo",
                "completed", "errors", "comparisons"):
        if key not in det:
            fail(f"{path}: loadgen row deterministic lacks {key!r}")
    metrics = agg["metrics"]
    for key in LOAD_METRICS:
        if key not in metrics:
            fail(f"{path}: loadgen row metrics lacks {key!r}")
    for key in ("deadline_missed", "max_queue_depth", "max_inflight",
                "log_dropped"):
        if metrics[key] < 0:
            fail(f"{path}: loadgen row metrics[{key!r}] is negative")
    if det["completed"] + det["errors"] != det["queries"]:
        fail(f"{path}: completed + errors != queries: {det}")
    wall = agg["wall"]
    if wall["reps"] != det["queries"]:
        fail(f"{path}: latency count {wall['reps']} != queries "
             f"{det['queries']}")
    if wall["reps"] > 0:
        check_quantiles(f"{path}: latency", wall["median_seconds"] * 1e6,
                        metrics["latency_p95_us"], metrics["latency_p99_us"],
                        wall["max_seconds"] * 1e6)
        check_quantiles(f"{path}: queue wait", metrics["queue_wait_p50_us"],
                        metrics["queue_wait_p95_us"],
                        metrics["queue_wait_p99_us"],
                        metrics["queue_wait_max_us"])
    size_rows = [r for name, r in rows.items() if name.startswith("size:")]
    if not size_rows:
        fail(f"{path}: no per-size rows")
    size_total = sum(r["deterministic"].get("queries", 0)
                     for r in size_rows)
    if size_total != det["queries"]:
        fail(f"{path}: per-size query counts sum to {size_total}, "
             f"not {det['queries']}")
    print(f"check_obs_json: {path}: load artifact with {len(size_rows)} "
          f"size classes OK")


def check_flight(path):
    """Validates a skymr-flight-v1 crash dump: a header object followed by
    one structured log record per line."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        fail(f"{path}: empty flight dump")
    header = json.loads(lines[0])
    if header.get("schema") != "skymr-flight-v1":
        fail(f"{path}: header schema is {header.get('schema')!r}")
    for key in ("reason", "records", "ring_capacity", "dropped"):
        if key not in header:
            fail(f"{path}: header lacks {key!r}")
    records = lines[1:]
    if len(records) != header["records"]:
        fail(f"{path}: header says {header['records']} records, "
             f"found {len(records)}")
    if len(records) > header["ring_capacity"]:
        fail(f"{path}: more records than ring_capacity")
    last_ts = float("-inf")
    for i, line in enumerate(records):
        rec = json.loads(line)
        for key in ("ts_us", "sev", "event"):
            if key not in rec:
                fail(f"{path}: record {i} lacks {key!r}: {rec}")
        if rec["sev"] not in ("debug", "info", "warn", "error", "fatal"):
            fail(f"{path}: record {i} severity {rec['sev']!r}")
        if rec["ts_us"] < last_ts:
            fail(f"{path}: record {i} goes back in time")
        last_ts = rec["ts_us"]
    print(f"check_obs_json: {path}: flight dump with {len(records)} "
          f"records OK")


def check_metrics(path):
    """Validates a skymr-metrics-v2 snapshot: per-job totals across a
    run's jobs, as plain counters and sketches. The v1 live-sampler
    keys (gauges, samples) must not come back."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "skymr-metrics-v2":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    keys = {"schema", "uptime_seconds", "counters", "sketches"}
    if set(doc) != keys:
        fail(f"{path}: keys are {sorted(doc)}, want {sorted(keys)}")
    if doc["uptime_seconds"] < 0:
        fail(f"{path}: negative uptime")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name!r} is not a count: {value!r}")
    for name, sk in doc["sketches"].items():
        check_sketch(f"{path}: sketch {name!r}", sk)
    print(f"check_obs_json: {path}: {len(doc['counters'])} counters, "
          f"{len(doc['sketches'])} sketches OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    checkers = {"trace": check_trace, "report": check_report,
                "bench": check_bench, "metrics": check_metrics,
                "load": check_load, "flight": check_flight}
    # Every flag may repeat, and every file given is validated.
    for kind in checkers:
        parser.add_argument(f"--{kind}", action="append", default=[])
    args = parser.parse_args()
    if not any(getattr(args, kind) for kind in checkers):
        parser.error("pass --trace, --report, --bench, --metrics, --load, "
                     "and/or --flight")
    for kind, check in checkers.items():
        for path in getattr(args, kind):
            check(path)


if __name__ == "__main__":
    main()
