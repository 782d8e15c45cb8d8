#!/usr/bin/env python3
"""Diffs a skymr-bench-v1 artifact against a committed baseline.

Usage:
    bench_diff.py --baseline bench/baselines/BENCH_fig7.json \\
                  --current BENCH_fig7.json [--wall-threshold 0.25] \\
                  [--wall-floor 0.05]

Two kinds of signal, two kinds of outcome:

  deterministic   the per-row integer counters are bit-identical for a
                  fixed workload, so ANY difference (a changed counter, a
                  missing row) is a real behavior change -> exit 1. CI
                  hard-gates on this.
  wall time       machine-dependent and noisy; a current median more than
                  --wall-threshold (default 25%) above the baseline's --
                  and above the --wall-floor (default 0.05 s, below which
                  medians are dominated by fixed overhead) -- prints a
                  "wall-regression" warning but still exits 0.

Rows present only in the current artifact are reported as informational
(they become part of the baseline at the next refresh). Rows present only
in the BASELINE are reported as an explicit "orphaned-row" warning naming
the row -- a renamed or deleted bench silently skipping its counters is
exactly the regression-gate hole this catches -- but exit 0 by default so
a bench rename plus baseline refresh can land in one change; pass
--strict-rows to make orphaned rows fail. To refresh a baseline after an
intended behavior change, rerun the bench at the baseline's scale and
copy the artifact over the old file (see EXPERIMENTS.md).
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: FAIL: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)
    if doc.get("schema") != "skymr-bench-v1":
        print(f"bench_diff: FAIL: {path}: schema is {doc.get('schema')!r},"
              " expected 'skymr-bench-v1'", file=sys.stderr)
        sys.exit(1)
    return doc


def rows_by_name(doc, path):
    out = {}
    for row in doc.get("rows", []):
        name = row.get("name")
        if not name:
            print(f"bench_diff: FAIL: {path}: row without a name",
                  file=sys.stderr)
            sys.exit(1)
        if name in out:
            print(f"bench_diff: FAIL: {path}: duplicate row {name!r}",
                  file=sys.stderr)
            sys.exit(1)
        out[name] = row
    return out


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--wall-threshold", type=float, default=0.25,
                        help="fractional wall-median regression that "
                             "triggers a warning (default 0.25)")
    parser.add_argument("--wall-floor", type=float, default=0.05,
                        help="ignore wall regressions when the baseline "
                             "median is below this many seconds "
                             "(default 0.05)")
    parser.add_argument("--strict-rows", action="store_true",
                        help="fail (exit 1) when a baseline row has no "
                             "matching current row, instead of warning")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline.get("schema") != current.get("schema"):
        print(f"bench_diff: FAIL: schema mismatch: baseline is "
              f"{baseline.get('schema')!r}, current is "
              f"{current.get('schema')!r}", file=sys.stderr)
        sys.exit(1)
    if baseline.get("bench") != current.get("bench"):
        print(f"bench_diff: FAIL: bench name mismatch: baseline is "
              f"{baseline.get('bench')!r}, current is "
              f"{current.get('bench')!r}", file=sys.stderr)
        sys.exit(1)

    base_rows = rows_by_name(baseline, args.baseline)
    cur_rows = rows_by_name(current, args.current)

    failures = []
    warnings = 0
    for name, base_row in base_rows.items():
        cur_row = cur_rows.get(name)
        if cur_row is None:
            message = (f"orphaned-row: baseline row {name!r} has no "
                       f"matching row in {args.current} -- its "
                       "deterministic counters were NOT checked; rename "
                       "the bench back or refresh the baseline")
            if args.strict_rows:
                failures.append(message)
            else:
                print(f"bench_diff: {message}")
                warnings += 1
            continue
        base_det = base_row.get("deterministic", {})
        cur_det = cur_row.get("deterministic", {})
        for counter in sorted(set(base_det) | set(cur_det)):
            b = base_det.get(counter)
            c = cur_det.get(counter)
            if b != c:
                failures.append(f"row {name!r}: deterministic counter "
                                f"{counter!r} changed: {b} -> {c}")
        base_median = base_row.get("wall", {}).get("median_seconds", 0.0)
        cur_median = cur_row.get("wall", {}).get("median_seconds", 0.0)
        if base_median >= args.wall_floor and \
                cur_median > base_median * (1.0 + args.wall_threshold):
            print(f"bench_diff: wall-regression: row {name!r}: median "
                  f"{base_median:.4f}s -> {cur_median:.4f}s "
                  f"(+{100.0 * (cur_median / base_median - 1.0):.0f}%)")
            warnings += 1

    for name in sorted(set(cur_rows) - set(base_rows)):
        print(f"bench_diff: note: row {name!r} is new (not in baseline)")

    if failures:
        for failure in failures:
            print(f"bench_diff: FAIL: {failure}", file=sys.stderr)
        print(f"bench_diff: {len(failures)} deterministic difference(s) vs "
              f"{args.baseline}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_diff: OK: {len(base_rows)} rows match {args.baseline}"
          + (f" ({warnings} wall warning(s))" if warnings else ""))


if __name__ == "__main__":
    main()
