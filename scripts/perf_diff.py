#!/usr/bin/env python3
"""Compare two google-benchmark JSON files (BENCH_*.json / bench_out runs).

Usage:
  scripts/perf_diff.py OLD.json NEW.json [--threshold 0.25]
                       [--noise REGEX=RATIO ...] [--quiet]

For every benchmark present in both files the relative change in real time
is computed (positive = NEW is slower).  A benchmark fails when its change
exceeds its noise threshold: the first --noise REGEX=RATIO whose regex
matches the benchmark name wins, falling back to --threshold (default 0.25,
i.e. 25%).  Benchmarks present in OLD but missing from NEW always fail —
a deleted or crashing bench must not pass silently.  New benchmarks are
reported but never fail.  Benchmarks pair by name without its
"/min_time:N" and "/repeats:N" parts, which say how long a bench ran, not
what it measured: perf_micro's ingest benches run repeated in a full run
and once in a run given --benchmark_min_time, such as the CI smoke.

Exit status: 0 = no regressions, 1 = regressions or missing benchmarks,
2 = bad input.  Intended pairings:
  * same machine, full runs: default threshold (tight)
  * CI smoke vs committed baseline: --threshold 3.0 (different machine and
    a tiny --benchmark_min_time; only hangs and order-of-magnitude shifts
    are actionable there)

Runs stamped with a mmlab_cores context (scripts/run_perf.sh does this) are
additionally checked for core-count agreement: a strict-threshold diff
across different core counts is refused outright — the threaded benches
scale with cores, so the numbers are not comparable (EXPERIMENTS.md §"
multi-core measurement protocol").  At --threshold >= 1.0 the mismatch
degrades to a warning.
"""

import argparse
import json
import re
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
_RUN_LENGTH = re.compile(r"/(min_time:[0-9.]+|repeats:[0-9]+)")


def load_times(path):
    """name -> real time in ns, plus the run's context dict.

    Repetition runs are averaged; explicit aggregate rows (run_type
    "aggregate") are preferred when present, using the "mean" aggregate.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    iterations = {}
    aggregates = {}
    for b in doc.get("benchmarks", []):
        name = _RUN_LENGTH.sub("", b.get("run_name", b["name"]))
        ns = float(b["real_time"]) * _UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "mean":
                aggregates[name] = ns
        else:
            iterations.setdefault(name, []).append(ns)
    times = {name: sum(v) / len(v) for name, v in iterations.items()}
    times.update(aggregates)
    if not times:
        sys.exit(f"error: {path} contains no benchmarks")
    return times, doc.get("context", {})


# Cross-core-count comparisons only make sense at the loose CI threshold:
# the threaded benches scale with the visible core count, so at a strict
# threshold a core-count change masquerades as a perf change.  At or above
# this threshold (CI smoke uses 3.0) the mismatch degrades to a warning.
_CORES_STRICT_CUTOFF = 1.0


def check_core_counts(old_ctx, new_ctx, threshold):
    """Refuse strict diffs across different mmlab_cores contexts."""
    old_cores = old_ctx.get("mmlab_cores")
    new_cores = new_ctx.get("mmlab_cores")
    if old_cores is None or new_cores is None:
        return  # pre-stamping baseline; nothing to compare
    if str(old_cores) == str(new_cores):
        return
    msg = (f"core counts differ: baseline ran on {old_cores} cores, "
           f"candidate on {new_cores}")
    if threshold < _CORES_STRICT_CUTOFF:
        sys.exit(f"error: {msg}; threaded benchmarks are not comparable "
                 f"at a strict threshold (< {_CORES_STRICT_CUTOFF:.0%}). "
                 "Re-baseline on this machine, pin with taskset, or pass "
                 "--threshold 3.0 for an order-of-magnitude-only check.")
    print(f"warning: {msg}; only order-of-magnitude shifts are meaningful",
          file=sys.stderr)


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f} {unit}"
    return f"{ns:.0f} ns"


def main():
    ap = argparse.ArgumentParser(
        description="Diff two google-benchmark JSON runs.")
    ap.add_argument("old", help="baseline JSON (e.g. BENCH_perf_micro.json)")
    ap.add_argument("new", help="candidate JSON (e.g. bench_out/...)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="default allowed relative slowdown (0.25 = +25%%)")
    ap.add_argument("--noise", action="append", default=[],
                    metavar="REGEX=RATIO",
                    help="per-benchmark override; first matching regex wins")
    ap.add_argument("--quiet", action="store_true",
                    help="print only regressions and missing benchmarks")
    args = ap.parse_args()

    overrides = []
    for spec in args.noise:
        pattern, eq, ratio = spec.partition("=")
        try:
            if not eq:
                raise ValueError
            overrides.append((re.compile(pattern), float(ratio)))
        except (ValueError, re.error):
            sys.exit(f"error: bad --noise '{spec}' (want REGEX=RATIO)")

    def threshold_for(name):
        for pattern, ratio in overrides:
            if pattern.search(name):
                return ratio
        return args.threshold

    old, old_ctx = load_times(args.old)
    new, new_ctx = load_times(args.new)
    check_core_counts(old_ctx, new_ctx, args.threshold)

    regressions, missing, rows = [], [], []
    for name in sorted(old):
        if name not in new:
            missing.append(name)
            continue
        change = (new[name] - old[name]) / old[name]
        limit = threshold_for(name)
        status = "ok"
        if change > limit:
            status = "REGRESSION"
            regressions.append(name)
        elif change < -limit:
            status = "improved"
        rows.append((name, old[name], new[name], change, limit, status))
    added = sorted(set(new) - set(old))

    if not args.quiet:
        width = max((len(r[0]) for r in rows), default=10)
        print(f"{'benchmark':<{width}}  {'old':>10}  {'new':>10}  "
              f"{'change':>8}  {'limit':>6}")
        for name, o, n, change, limit, status in rows:
            print(f"{name:<{width}}  {fmt_ns(o):>10}  {fmt_ns(n):>10}  "
                  f"{change:>+7.1%}  {limit:>6.0%}  {status}")
    else:
        for name, o, n, change, limit, status in rows:
            if status == "REGRESSION":
                print(f"REGRESSION {name}: {fmt_ns(o)} -> {fmt_ns(n)} "
                      f"({change:+.1%} > +{limit:.0%})")
    for name in missing:
        print(f"MISSING {name}: in {args.old} but not in {args.new}")
    if added and not args.quiet:
        for name in added:
            print(f"new benchmark {name}: {fmt_ns(new[name])}")

    print(f"{len(rows)} compared, {len(regressions)} regressions, "
          f"{len(missing)} missing, {len(added)} new")
    return 1 if regressions or missing else 0


if __name__ == "__main__":
    sys.exit(main())
