#!/usr/bin/env python3
"""Trial benchmark of the ABE simulation: one workload per invocation.

    python3 trialbench/run.py --workload ring-1024 --seed 1 --seconds 20 \
        --trace 0
    python3 trialbench/run.py --smoke

Run from the repository root. Builds the abe library and the benchmark
binary in Release under .bench_build/trialbench (incremental after the first
run), then runs the workload in its own process. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics; the names and units are
those of BENCHMARK.json. Every metric is printed as a `metric` line, and the
last line of standard output is the JSON result.

setup_s is the median, over several launches, of the time from spawning the
binary to the moment it is ready to start its first timed trial.

--smoke runs every workload at a tiny size, in seconds, and checks that each
metric of BENCHMARK.json is emitted with a unit and that every check passes.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "trialbench"
BINARY = BUILD / "abe_trialbench"
SETUP_LAUNCHES = 7  # the measured run plus six set-up-only launches
RUN_TIMEOUT_S = 170
WORKLOADS = ("ring-1024", "polling-torus-10k", "udp-polling-4")


def fail(message, code=1):
    print(f"trialbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", code=2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    # Workloads run on the backend and pool width they name.
    env.pop("ABE_EQUEUE", None)
    env.pop("ABE_TRIAL_THREADS", None)
    return env


def launch(args):
    """Runs the binary; returns (set-up seconds, stdout lines)."""
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.run([str(BINARY), *args], capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S,
                              env=child_env())
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    ready = [int(line.split()[1]) for line in lines
             if line.startswith("ready ")]
    if not ready:
        fail(f"{' '.join(args)} never reported ready")
    return (ready[0] - start_ns) / 1e9, lines


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-12)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    return sxy / sxx if sxx else 0.0


def ladder(base, rungs, result, report):
    """Runs each size-ladder rung in its own process and adds the growth
    slopes, and the top rung's ns/event, to the traced result."""
    metrics = result["metrics"]
    if not rungs:
        for name, unit in (("slope.build_ms", "1"), ("slope.run_ms", "1"),
                           ("slope.rss", "1"), ("sched.ns_per_event", "ns")):
            metrics[name] = {"value": 0.0, "unit": unit}
            report.append(f"metric {name:<32} 0 {unit}  # no size ladder")
        return
    rows = []
    for n in rungs:
        _, lines = launch(base + ["--rung", str(n)])
        row = json.loads(lines[-1])
        result["attempted"] += row["attempted"]
        result["failed"] += row["failed"]
        result["correct"] = result["correct"] and row["correct"]
        report.extend(f"rung n={n}: {line}" for line in lines[:-1]
                      if line.startswith("failure "))
        rows.append({k: v["value"] for k, v in row["metrics"].items()})
    note = "n in {" + ", ".join(str(n) for n in rungs) + "}"
    for name, key, what in (("slope.build_ms", "rung.build_ms", "build"),
                            ("slope.run_ms", "rung.run_ms", "run"),
                            ("slope.rss", "rung.peak_rss_mb", "peak RSS")):
        value = loglog_slope(rungs, [r[key] for r in rows])
        metrics[name] = {"value": value, "unit": "1"}
        report.append(f"metric {name:<32} {value:.6g} 1  # {what}, {note}")
    value = rows[-1]["rung.ns_per_event"]
    metrics["sched.ns_per_event"] = {"value": value, "unit": "ns"}
    report.append(f"metric {'sched.ns_per_event':<32} {value:.6g} ns  # "
                  f"runtime.run / sched.popped at n={rungs[-1]}, undecorated")


def measure(workload, seed, seconds, trace, smoke=False):
    """One run: returns (result dict, report lines)."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        base.append("--smoke")
    extra = []
    if trace:
        spans = ROOT / ".bench_build" / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        extra = ["--spans-out", str(spans)]
    setup = []
    if not trace:
        launches = 2 if smoke else SETUP_LAUNCHES - 1
        setup = [launch(base + ["--setup-only"])[0] for _ in range(launches)]
    main_setup, lines = launch(base + extra)
    setup.append(main_setup)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload}: no JSON result from the binary")
    metrics = result["metrics"]
    report = [line for line in lines[:-1] if not line.startswith("ready ")]
    if trace:
        ladder(base, result["info"]["ladder"], result, report)
    else:
        setup_s = statistics.median(setup)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        report.append(f"metric {'setup_s':<32} {setup_s:.6g} s  # median of "
                      f"{len(setup)} launches")
        # Normally 0, so it travels as the result's attempted and failed
        # rather than as a bounded metric.
        fail_ratio = result["failed"] / result["attempted"]
        report.append(f"metric {'fail_ratio':<32} {fail_ratio:.6g} 1  # "
                      f"{result['failed']} of {result['attempted']} trials")
    return result, report


def stamp(workload, seed, info):
    fields = {
        "workload": workload,
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "nproc": os.cpu_count(),
        "trial_pool_width": info.get("trial_pool_width", 1),
        "seed_base": seed,
        "panel": info.get("panel", ""),
        "n": info.get("n", 0),
    }
    return "stamp " + json.dumps(fields)


def contract_line(result, names):
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"metrics missing from the result: {', '.join(missing)}")
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    })


def smoke():
    build()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            started = time.monotonic()
            result, _ = measure(workload, 1, 1, trace, smoke=True)
            for name in declared_metrics(trace):
                metric = result["metrics"].get(name)
                if metric is None or not metric.get("unit"):
                    problems.append(f"{workload} trace={int(trace)}: {name} "
                                    "not emitted with a unit")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: "
                                f"{result['failed']} of {result['attempted']} "
                                "trials failed their checks")
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{result['attempted']} trials, {result['failed']} failed, "
                  f"{len(result['metrics'])} metrics, "
                  f"{time.monotonic() - started:.1f} s")
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print(json.dumps({"smoke": "fail" if problems else "pass"}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    build()
    trace = bool(args.trace)
    result, report = measure(args.workload, args.seed, args.seconds, trace)
    print(stamp(args.workload, args.seed, result.get("info", {})))
    for line in report:
        print(line)
    print(contract_line(result, declared_metrics(trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
