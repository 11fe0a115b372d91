#!/usr/bin/env python3
"""Validate abe_scenarios sweep JSON against the sweep schema.

  python3 bench/validate_scenarios.py sweep.json [more.json ...]
  python3 bench/validate_scenarios.py --self-test

Checks the structure the "abe-scenario-sweep-v8" schema promises — the
metadata provenance block, per-cell axes (including the execution runtime
and the adversarial behavior/adversary axes), aggregate summaries, the
observability block and the causal block — plus the one correctness gate a
structural check can carry: safety_violations == 0 (a cell that elected
two leaders is a bug, not a perf delta; the violation_seeds list in the
document replays it). Only v8 documents are accepted. Exit codes: 0 valid,
1 schema violation or safety violation, 2 unreadable input.

Observability block, per cell:
  "metrics": array of metric entries sorted ascending by "name"; each has
      "name" (str), "kind" ("counter" | "gauge" | "histogram") and either
      "value" (number; counters and gauges) or "bounds" + "counts"
      (histograms: bounds is the ascending upper-bound list, counts has
      len(bounds) + 1 entries — the last is the overflow bucket).
      Simulator cells produce this block deterministically: same seed
      base, same thread count or not, bit-identical values.
  "wall": object with numeric "build_ms" / "run_ms" / "settle_ms" /
      "total_ms" — summed wall-clock phase times across the cell's trials,
      the total measured between the same chained clock reads that bound
      the phases (src/runtime/runtime.h WallPhaseTimes). Real elapsed
      time; never compared for determinism.

Causal block, per cell (src/obs/causal.h):
  "critical_path": object with non-negative int "considered" / "found" /
      "truncated" (truncated <= found <= considered), six summary objects
      "hops" / "span" / "channel_delay" / "processing" / "queueing" /
      "waiting" (each counting the found paths), "top_channels" (at most
      8 {"edge", "hops", "delay"} entries, descending by delay) and —
      exactly when found > 0 — "worst": {"seed", "span"}, the replayable
      worst trial. Deterministic on simulator cells.
  "timeseries": OPTIONAL object {"interval" > 0, "trials" >= 1,
      "samples": [{"t", "pending", "in_flight", "live"}, ...]} with
      sample times ascending on the interval grid. Present only when the
      run sampled the sim-time grid.

`--self-test` validates built-in fixtures — a minimal v8 document plus
malformed documents that must be rejected — so CI catches a validator
regression without needing a sweep artifact.

CI runs this in the scenario-smoke job; it is dependency-free on purpose
(stdlib json only).
"""

import json
import sys

SCHEMA = "abe-scenario-sweep-v8"

METRIC_KINDS = ("counter", "gauge", "histogram")

# build+run+settle == total on each trial (same clock reads); sums
# preserve that up to floating-point noise — structure only, no arithmetic
# check.
WALL_FIELDS = {
    "build_ms": (int, float),
    "run_ms": (int, float),
    "settle_ms": (int, float),
    "total_ms": (int, float),
}

METADATA_FIELDS = {
    "git_sha": str,
    "compiler": str,
    "build_type": str,
    "runtime": str,
    "trial_threads": int,
    "trials": int,
    "seed_base": int,
}

RUNTIMES = ("sim", "thread", "udp")

# The JSON emitter caps the violation_seeds list it prints; the count field
# stays authoritative (src/scenario/sweep.cpp).
MAX_EMITTED_SEEDS = 16

# write_sweep_json emits at most this many top_channels entries per cell.
MAX_TOP_CHANNELS = 8

CRITICAL_PATH_SUMMARIES = ("hops", "span", "channel_delay", "processing",
                           "queueing", "waiting")

SUMMARY_FIELDS = {
    "count": int,
    "mean": (int, float),
    "stddev": (int, float),
    "min": (int, float),
    "max": (int, float),
    "ci95": (int, float),
}

CELL_FIELDS = {
    "cell": str,
    "scenario": str,
    "algorithm": str,
    "topology": dict,
    "delay": dict,
    "clock": dict,
    "failure": str,
    "runtime": str,
    "behavior": str,
    "adversary": str,
    "trials": int,
    "failures": int,
    "stalled": int,
    "safety_violations": int,
    "violation_seeds": list,
    "messages": dict,
    "time": dict,
    "metrics": list,
    "wall": dict,
    "critical_path": dict,
}


def fail(path, what):
    print(f"{path}: INVALID: {what}", file=sys.stderr)
    return False


def check_fields(path, obj, fields, where):
    for key, typ in fields.items():
        if key not in obj:
            return fail(path, f"{where} missing '{key}'")
        if not isinstance(obj[key], typ):
            return fail(path, f"{where} field '{key}' has type "
                              f"{type(obj[key]).__name__}")
    return True


def validate_metrics(path, metrics, where):
    """Checks one cell's metrics array (see module docstring)."""
    names = []
    for j, entry in enumerate(metrics):
        at = f"{where}.metrics[{j}]"
        if not isinstance(entry, dict):
            return fail(path, f"{at} is not an object")
        name, kind = entry.get("name"), entry.get("kind")
        if not isinstance(name, str) or not name:
            return fail(path, f"{at} missing 'name'")
        if kind not in METRIC_KINDS:
            return fail(path, f"{at}.kind {kind!r} not in {METRIC_KINDS}")
        names.append(name)
        if kind == "histogram":
            bounds, counts = entry.get("bounds"), entry.get("counts")
            if not isinstance(bounds, list) or not bounds or \
                    not all(isinstance(b, (int, float)) for b in bounds):
                return fail(path, f"{at}.bounds malformed")
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                return fail(path, f"{at}.bounds not strictly increasing")
            if not isinstance(counts, list) or \
                    len(counts) != len(bounds) + 1 or \
                    not all(isinstance(c, int) and c >= 0 for c in counts):
                return fail(path, f"{at}.counts must be {len(bounds) + 1} "
                                  "non-negative integers (last = overflow)")
        elif not isinstance(entry.get("value"), (int, float)):
            return fail(path, f"{at} ({name}) missing numeric 'value'")
    if names != sorted(names):
        return fail(path, f"{where}.metrics not sorted by name "
                          "(deterministic snapshot order)")
    if len(set(names)) != len(names):
        return fail(path, f"{where}.metrics has duplicate names")
    return True


def validate_critical_path(path, cp, where):
    """Checks one cell's critical_path object (see module docstring)."""
    at = f"{where}.critical_path"
    if not isinstance(cp, dict):
        return fail(path, f"{at} is not an object")
    for key in ("considered", "found", "truncated"):
        if not isinstance(cp.get(key), int) or cp[key] < 0:
            return fail(path, f"{at}.{key} must be a non-negative integer")
    if not cp["truncated"] <= cp["found"] <= cp["considered"]:
        return fail(path, f"{at}: want truncated <= found <= considered, "
                          f"got {cp['truncated']} / {cp['found']} / "
                          f"{cp['considered']}")
    for key in CRITICAL_PATH_SUMMARIES:
        if key not in cp:
            return fail(path, f"{at} missing summary '{key}'")
        if not check_fields(path, cp[key], SUMMARY_FIELDS, f"{at}.{key}"):
            return False
        if cp[key]["count"] != cp["found"]:
            return fail(path, f"{at}.{key}.count {cp[key]['count']} != "
                              f"found {cp['found']}")
    top = cp.get("top_channels")
    if not isinstance(top, list) or len(top) > MAX_TOP_CHANNELS:
        return fail(path, f"{at}.top_channels must be a list of at most "
                          f"{MAX_TOP_CHANNELS} entries")
    for j, entry in enumerate(top):
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("edge"), int) or \
                not isinstance(entry.get("hops"), int) or \
                not isinstance(entry.get("delay"), (int, float)):
            return fail(path, f"{at}.top_channels[{j}] malformed "
                              "(want int edge, int hops, numeric delay)")
    deltas = [entry["delay"] for entry in top]
    if deltas != sorted(deltas, reverse=True):
        return fail(path, f"{at}.top_channels not descending by delay")
    has_worst = "worst" in cp
    if has_worst != (cp["found"] > 0):
        return fail(path, f"{at}.worst must be present exactly when "
                          f"found > 0 (found {cp['found']})")
    if has_worst:
        worst = cp["worst"]
        if not isinstance(worst, dict) or \
                not isinstance(worst.get("seed"), int) or \
                worst["seed"] < 0 or \
                not isinstance(worst.get("span"), (int, float)):
            return fail(path, f"{at}.worst malformed (want non-negative "
                              "int seed, numeric span)")
    return True


def validate_timeseries(path, ts, where):
    """Checks one cell's optional timeseries object."""
    at = f"{where}.timeseries"
    if not isinstance(ts, dict):
        return fail(path, f"{at} is not an object")
    if not isinstance(ts.get("interval"), (int, float)) or \
            ts["interval"] <= 0:
        return fail(path, f"{at}.interval must be > 0")
    if not isinstance(ts.get("trials"), int) or ts["trials"] < 1:
        return fail(path, f"{at}.trials must be >= 1")
    samples = ts.get("samples")
    if not isinstance(samples, list):
        return fail(path, f"{at}.samples must be a list")
    last_t = 0.0
    for j, sample in enumerate(samples):
        if not isinstance(sample, dict):
            return fail(path, f"{at}.samples[{j}] is not an object")
        for key in ("t", "pending", "in_flight", "live"):
            if not isinstance(sample.get(key), (int, float)):
                return fail(path, f"{at}.samples[{j}] missing numeric "
                                  f"'{key}'")
        if sample["t"] <= last_t:
            return fail(path, f"{at}.samples not ascending in t at [{j}]")
        last_t = sample["t"]
    return True


def validate(path, doc):
    schema = doc.get("schema")
    if schema != SCHEMA:
        return fail(path, f"schema is {schema!r}, want {SCHEMA!r}")
    metadata = doc.get("metadata")
    if not isinstance(metadata, dict):
        return fail(path, "metadata is not an object")
    if not check_fields(path, metadata, METADATA_FIELDS, "metadata"):
        return False
    if metadata["runtime"] not in RUNTIMES:
        return fail(path, f"metadata.runtime {metadata['runtime']!r} not in "
                          f"{RUNTIMES}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        return fail(path, "cells must be a non-empty array")
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            return fail(path, f"{where} is not an object")
        if not check_fields(path, cell, CELL_FIELDS, where):
            return False
        if not validate_metrics(path, cell["metrics"], where):
            return False
        if not check_fields(path, cell["wall"], WALL_FIELDS,
                            f"{where}.wall"):
            return False
        if not validate_critical_path(path, cell["critical_path"], where):
            return False
        if "timeseries" in cell and \
                not validate_timeseries(path, cell["timeseries"], where):
            return False
        if cell["runtime"] not in RUNTIMES:
            return fail(path, f"{where}.runtime {cell['runtime']!r} not in "
                              f"{RUNTIMES}")
        topo = cell["topology"]
        if not isinstance(topo.get("family"), str) or \
                not isinstance(topo.get("n"), int) or topo["n"] < 1:
            return fail(path, f"{where}.topology malformed")
        for summary_key in ("messages", "time"):
            if not check_fields(path, cell[summary_key], SUMMARY_FIELDS,
                                f"{where}.{summary_key}"):
                return False
        # Stalled trials (quiescent with no way forward) are split out of
        # failures (still working at the deadline); completed is what's left.
        completed = cell["trials"] - cell["failures"] - cell["stalled"]
        if cell["messages"]["count"] != completed:
            return fail(path, f"{where}: summary count "
                              f"{cell['messages']['count']} != completed "
                              f"trials {completed}")
        seeds = cell["violation_seeds"]
        if not all(isinstance(s, int) and s >= 0 for s in seeds):
            return fail(path, f"{where}.violation_seeds must be "
                              "non-negative integers")
        expect = min(cell["safety_violations"], MAX_EMITTED_SEEDS)
        if len(seeds) != expect:
            return fail(path, f"{where}: violation_seeds has "
                              f"{len(seeds)} entries, want {expect} "
                              f"(count {cell['safety_violations']}, "
                              f"emit cap {MAX_EMITTED_SEEDS})")
        if cell["safety_violations"] != 0:
            return fail(path, f"{where} ({cell['cell']}): "
                              f"{cell['safety_violations']} safety "
                              "violation(s) — a correctness bug, not noise")
    print(f"{path}: ok ({len(cells)} cells, "
          f"sha {metadata['git_sha']}, {metadata['compiler']})")
    return True


# ---------------------------------------------------------------------------
# Self-test fixtures


def _summary(count=1, value=1.0):
    return {"count": count, "mean": value, "stddev": 0.0, "min": value,
            "max": value, "ci95": 0.0}


def _fixture():
    """A minimal document every v8 check accepts (udp cell, timeseries)."""
    cp = {"considered": 1, "found": 1, "truncated": 0,
          "top_channels": [{"edge": 3, "hops": 1, "delay": 2.0},
                           {"edge": 1, "hops": 1, "delay": 1.0}],
          "worst": {"seed": 7, "span": 4.0}}
    for key in CRITICAL_PATH_SUMMARIES:
        cp[key] = _summary()
    return {
        "schema": SCHEMA,
        "metadata": {"git_sha": "deadbeef", "compiler": "cc",
                     "build_type": "Release", "runtime": "udp", "trial_threads": 1, "trials": 1,
                     "seed_base": 1},
        "cells": [{
            "cell": "abe-ring/ring-uni-4/exponential/ideal/none/rt-udp/arq",
            "scenario": "fixture", "algorithm": "abe-ring",
            "topology": {"family": "ring-uni", "n": 4, "param": 0},
            "delay": {"model": "exponential", "mean": 1.0},
            "clock": {"s_low": 1, "s_high": 1, "drift": "ideal"},
            "failure": "none", "behavior": "honest", "adversary": "none",
            "runtime": "udp",
            "trials": 1, "failures": 0, "stalled": 0,
            "safety_violations": 0, "violation_seeds": [],
            "messages": _summary(), "time": _summary(),
            "metrics": [{"name": "net.sent", "kind": "counter",
                         "value": 8}],
            "wall": {"build_ms": 0.1, "run_ms": 1.0, "settle_ms": 0.2,
                     "total_ms": 1.3},
            "critical_path": cp,
            "timeseries": {"interval": 5.0, "trials": 1,
                           "samples": [{"t": 5.0, "pending": 4.0,
                                        "in_flight": 1.0, "live": 4.0},
                                       {"t": 10.0, "pending": 3.0,
                                        "in_flight": 0.5, "live": 2.0}]},
        }],
    }


def self_test():
    """Validates the built-in fixtures; returns 0 on success, 1 on failure."""
    failures = 0

    def expect(name, doc, want_ok):
        nonlocal failures
        got_ok = validate(f"self-test:{name}", doc)
        if got_ok != want_ok:
            print(f"self-test:{name}: want "
                  f"{'accept' if want_ok else 'reject'}, got "
                  f"{'accept' if got_ok else 'reject'}", file=sys.stderr)
            failures += 1

    expect("v8", _fixture(), True)

    # Documents malformed in each of the ways the emitter cannot produce
    # must be rejected.
    def mutated(mutate):
        doc = _fixture()
        mutate(doc["cells"][0])
        return doc

    older = _fixture()
    older["schema"] = "abe-scenario-sweep-v7"
    expect("older-schema", older, False)
    expect("wall-missing-total-ms",
           mutated(lambda c: c["wall"].pop("total_ms")), False)
    expect("unknown-runtime",
           mutated(lambda c: c.update(runtime="quic")), False)
    expect("missing-critical-path",
           mutated(lambda c: c.pop("critical_path")), False)
    expect("counts-inverted",
           mutated(lambda c: c["critical_path"].update(found=2)), False)
    expect("missing-summary",
           mutated(lambda c: c["critical_path"].pop("queueing")), False)
    expect("summary-count-mismatch",
           mutated(lambda c: c["critical_path"]["span"].update(count=9)),
           False)
    expect("top-channels-unsorted",
           mutated(lambda c: c["critical_path"]["top_channels"].reverse()),
           False)
    expect("worst-without-found",
           mutated(lambda c: c["critical_path"].update(
               found=0, truncated=0,
               **{k: _summary(count=0, value=0.0)
                  for k in CRITICAL_PATH_SUMMARIES})), False)
    expect("worst-negative-seed",
           mutated(lambda c: c["critical_path"]["worst"].update(seed=-1)),
           False)
    expect("timeseries-bad-interval",
           mutated(lambda c: c["timeseries"].update(interval=0)), False)
    expect("timeseries-unordered",
           mutated(lambda c: c["timeseries"]["samples"].reverse()), False)

    if failures:
        print(f"self-test: {failures} fixture(s) misjudged", file=sys.stderr)
        return 1
    print("self-test: ok")
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[1] == "--self-test":
        return self_test()
    ok = True
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: cannot read: {err}", file=sys.stderr)
            return 2
        ok = validate(path, doc) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
