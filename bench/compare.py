#!/usr/bin/env python3
"""Compare bench results against the tracked baseline (bench/baseline.json).

The perf trajectory works like this: `cmake --build build --target
run_all_benches` drops google-benchmark JSON under build/bench_results/, and
this script diffs those numbers against the committed baseline so speedups
and regressions are visible mechanically, per benchmark, across PRs.

  # report per-bench deltas (exit 0 unless --strict and a regression)
  python3 bench/compare.py --results build/bench_results

  # refresh the committed baseline from a results directory
  python3 bench/compare.py --results build/bench_results --update

Comparison metric: items_per_second when the benchmark reports it (events/s,
trials/s — higher is better), else real_time (lower is better). CI runs this
as a non-blocking warning step: machines differ, so thresholds are advisory;
the committed baseline records the numbers plus the metadata (git sha,
compiler, build type, hardware threads) needed to interpret them.
"""

import argparse
import json
import os
import sys
from datetime import datetime, timezone

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_results(results_dir):
    """Returns (benchmarks, context) merged over every BENCH_*.json file."""
    benches = {}
    context = {}
    for fname in sorted(os.listdir(results_dir)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        bench_id = fname[len("BENCH_"):-len(".json")]
        path = os.path.join(results_dir, fname)
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: skipping unreadable {path}: {err}",
                  file=sys.stderr)
            continue
        context = doc.get("context", context)
        for bm in doc.get("benchmarks", []):
            if bm.get("run_type", "iteration") != "iteration":
                continue  # skip mean/median/stddev aggregate rows
            try:
                key = f"{bench_id}/{bm['name']}"
                unit = _TIME_UNIT_NS.get(bm.get("time_unit", "ns"), 1.0)
                entry = {"real_time_ns": bm["real_time"] * unit}
            except (KeyError, TypeError) as err:
                print(f"warning: skipping malformed entry in {path}: {err}",
                      file=sys.stderr)
                continue
            if "items_per_second" in bm:
                entry["items_per_second"] = bm["items_per_second"]
            benches[key] = entry
    return benches, context


def metadata_from_context(context):
    return {
        "git_sha": context.get("abe_git_sha", "unknown"),
        "compiler": context.get("abe_compiler", "unknown"),
        "build_type": context.get("abe_build_type", "unknown"),
        "hardware_threads": context.get("abe_hardware_threads", "unknown"),
        "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def write_baseline(path, benches, context):
    doc = {"metadata": metadata_from_context(context), "benchmarks": benches}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"baseline written: {path} ({len(benches)} benchmarks)")


def compare(baseline_doc, benches, context, threshold):
    base = baseline_doc.get("benchmarks", {})
    meta = baseline_doc.get("metadata", {})
    print(f"baseline : sha={meta.get('git_sha', '?')} "
          f"compiler={meta.get('compiler', '?')} "
          f"build={meta.get('build_type', '?')} "
          f"threads={meta.get('hardware_threads', '?')}")
    print(f"current  : sha={context.get('abe_git_sha', '?')} "
          f"compiler={context.get('abe_compiler', '?')} "
          f"build={context.get('abe_build_type', '?')} "
          f"threads={context.get('abe_hardware_threads', '?')}")
    print()

    rows = []
    regressions = []
    new_count = 0
    missing_count = 0
    for key in sorted(set(base) | set(benches)):
        b, c = base.get(key), benches.get(key)
        if b is None:
            # A bench present in the run but absent from the baseline is a
            # newly added benchmark, not an error: report it and move on
            # (record it into the baseline with --update when ready).
            rows.append((key, "-", "-", "new"))
            new_count += 1
            continue
        if c is None:
            # Absent from this run (e.g. CI smoke runs a single bench
            # binary): informational only, never a failure.
            rows.append((key, "-", "-", "missing"))
            missing_count += 1
            continue
        if b.get("items_per_second") and "items_per_second" in c:
            ratio = c["items_per_second"] / b["items_per_second"]
            note = f"{ratio:.2f}x items/s"
        elif b.get("real_time_ns") and c.get("real_time_ns"):
            ratio = b["real_time_ns"] / c["real_time_ns"]
            note = f"{ratio:.2f}x speed"
        else:
            rows.append((key, "-", "-", "incomparable"))
            continue
        delta = (ratio - 1.0) * 100.0
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            regressions.append((key, ratio))
        elif ratio > 1.0 + threshold:
            status = "improved"
        rows.append((key, note, f"{delta:+.1f}%", status))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'benchmark'.ljust(width)}  {'vs baseline':>14}  {'delta':>8}  status")
    for key, note, delta, status in rows:
        print(f"{key.ljust(width)}  {note:>14}  {delta:>8}  {status}")
    print()
    if new_count:
        print(f"{new_count} new benchmark(s) not in the baseline "
              f"(bench/compare.py --update records them)")
    if missing_count:
        print(f"{missing_count} baseline benchmark(s) not in this run")
    if regressions:
        print(f"{len(regressions)} benchmark(s) slower than baseline by more "
              f"than {threshold * 100:.0f}%:")
        for key, ratio in regressions:
            print(f"  {key}: {ratio:.2f}x")
    else:
        print(f"no regressions beyond {threshold * 100:.0f}% threshold")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline",
                    default=os.path.join(os.path.dirname(__file__),
                                         "baseline.json"))
    ap.add_argument("--results", default="build/bench_results",
                    help="directory holding BENCH_*.json files")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative slowdown that counts as a regression")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from --results instead of comparing")
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero when a regression is found")
    args = ap.parse_args()

    if not os.path.isdir(args.results):
        print(f"error: results directory not found: {args.results}",
              file=sys.stderr)
        return 2
    benches, context = load_results(args.results)
    if not benches:
        print(f"error: no BENCH_*.json results under {args.results}",
              file=sys.stderr)
        return 2

    if args.update:
        write_baseline(args.baseline, benches, context)
        return 0

    try:
        with open(args.baseline, encoding="utf-8") as f:
            baseline_doc = json.load(f)
    except OSError:
        print(f"error: no baseline at {args.baseline}; record one with "
              f"--update", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: corrupt baseline {args.baseline}: {err}",
              file=sys.stderr)
        return 2
    if not isinstance(baseline_doc.get("benchmarks"), dict):
        print(f"error: baseline {args.baseline} has no 'benchmarks' object",
              file=sys.stderr)
        return 2

    # Exit codes: 0 ok (or deltas without --strict), 1 regression under
    # --strict, 2 infrastructure problem — CI keys off the distinction.
    regressions = compare(baseline_doc, benches, context, args.threshold)
    return 1 if (regressions and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
