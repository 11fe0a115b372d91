// Sweep driver: runs ScenarioSpec cells through the seed-chunked trial pool
// and renders the outcomes as tables and structured JSON.
//
// Reproducibility contract (same as core/harness.h): trials are seeded
// seed_base, seed_base+1, …; aggregation is chunked over fixed seed ranges
// and merged in seed order, so every aggregate — and therefore every number
// in the emitted JSON — is bit-identical for every thread count. Random
// topology families (gnp, rgg) re-draw the graph per trial from a substream
// of the trial seed, so graph randomness is part of the Monte-Carlo estimate
// and equally reproducible.
//
// The JSON document (schema "abe-scenario-sweep-v8") carries the same
// provenance metadata as the BENCH_*.json perf trajectory — git sha,
// compiler, build type, thread count and the execution runtime — so sweep
// results are attributable to a commit, toolchain and substrate;
// bench/validate_scenarios.py checks the structure. Each cell carries its
// axis values (runtime, behavior, adversary), stalled counts and the
// replayable seeds behind any safety violations; a "metrics" array (the
// merged MetricsSnapshot, deterministic on simulator cells); a "wall"
// object (summed wall-clock phase times plus "total_ms", measured between
// the same chained clock reads so build + run + settle == total — never
// deterministic); a "critical_path" object (obs/causal.h — decision-chain
// length, per-component attribution summaries, heaviest channels and the
// worst replayable trial); and an optional "timeseries" object when the
// cell sampled the sim-time grid (obs/timeseries.h).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/causal.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "runtime/runtime.h"
#include "scenario/scenario.h"
#include "stats/summary.h"

namespace abe {

// Outcome of one trial of one cell: the runtime layer's uniform trial
// currency (completed / safety / time / messages), produced by the
// registered AlgorithmDriver bindings in scenario/drivers.h.
using ScenarioTrialResult = TrialOutcome;

// Runs a single trial of `spec` with the given seed, on the spec's
// runtime (simulator or real threads). Aborts only on internal invariant
// violations — including a spec whose runtime_cell_problem is non-empty;
// gate user input first. Model-level outcomes are reported in the result.
// Random topologies are drawn from a substream of `seed`.
ScenarioTrialResult run_scenario_trial(const ScenarioSpec& spec,
                                       std::uint64_t seed);

struct ScenarioAggregate {
  Summary messages;  // per-trial messages over completed trials
  Summary time;      // per-trial completion time
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;           // missed the deadline
  // Refinement split out of `failures`: went quiescent with no way to make
  // progress (TrialOutcome::stalled — e.g. the ring's all-passive deadlock
  // under loss, or a crash-severed ring) rather than still working at the
  // deadline. trials == completed + failures + stalled.
  std::uint64_t stalled = 0;
  std::uint64_t safety_violations = 0;  // completed but safety_ok == false
  // The trial seeds behind safety_violations, in seed order (merge
  // preserves it) — each replayable via replay_scenario_trial on
  // simulator cells. The JSON emitter caps the list it prints.
  std::vector<std::uint64_t> violation_seeds;
  // Merged metrics snapshot over ALL trials (failed ones included —
  // observability exists for the failures). The merge is commutative and
  // associative (counters sum, gauges max, histogram buckets sum), so the
  // trial pool's chunk tree yields the same snapshot for every thread
  // count; on simulator cells it is bit-identical for a fixed seed base.
  MetricsSnapshot metrics;
  // Summed wall-clock phase times over all trials. Real elapsed time,
  // never deterministic; reported for profiling, excluded from any
  // bit-identity comparison.
  WallPhaseTimes wall;
  // Critical-path roll-up over decided trials (obs/causal.h). Same
  // order-commutative merge discipline as `metrics`: bit-identical for
  // every thread count on simulator cells.
  CriticalPathAggregate critical_path;
  // Sim-time-grid telemetry, summed across trials (obs/timeseries.h).
  // Empty unless the spec set a positive timeseries_interval.
  TimeSeries timeseries;

  void merge(const ScenarioAggregate& other);
};

// `trials` independent trials with seeds seed_base…; bit-identical for
// every thread count (core/trial_pool.h semantics, including the
// ABE_TRIAL_THREADS resolution of threads == 0).
ScenarioAggregate run_scenario_trials(const ScenarioSpec& spec,
                                      std::uint64_t trials,
                                      std::uint64_t seed_base = 1,
                                      unsigned threads = 0);

// One sweep cell: the spec plus its aggregate.
struct SweepCellOutcome {
  ScenarioSpec spec;
  ScenarioAggregate aggregate;
};

// Provenance block mirrored from the BENCH_*.json context (bench_util.h).
struct SweepRunMetadata {
  std::string git_sha = "unknown";
  std::string compiler = "unknown";
  std::string build_type = "unknown";
  // CLI-level --runtime selection ("sim" unless overridden); each cell
  // additionally records its own effective runtime.
  std::string runtime = "sim";
  unsigned threads = 1;         // resolved trial-pool width
  std::uint64_t trials = 0;     // trials per cell (0 = per-spec default)
  std::uint64_t seed_base = 1;
};

// Runs every cell (trials == 0 uses each spec's default_trials). The
// optional progress callback fires after each finished cell with
// (index, total, outcome).
using SweepProgressFn =
    std::function<void(std::size_t, std::size_t, const SweepCellOutcome&)>;
std::vector<SweepCellOutcome> run_sweep(
    const std::vector<ScenarioSpec>& cells, std::uint64_t trials,
    std::uint64_t seed_base = 1, unsigned threads = 0,
    const SweepProgressFn& progress = nullptr);

// Structured per-cell JSON, schema "abe-scenario-sweep-v8".
void write_sweep_json(std::ostream& os, const SweepRunMetadata& metadata,
                      const std::vector<SweepCellOutcome>& outcomes);

// Serialises one cell's critical-path aggregate as the JSON object the
// "critical_path" field carries. Exposed (rather than folded into
// write_sweep_json) so the golden test can pin the byte-exact rendering of
// a fixed-seed cell across trial-pool widths.
void append_critical_path_json(const CriticalPathAggregate& aggregate,
                               std::string* out);

// Aligned ASCII table of the outcomes (one row per cell).
std::string render_sweep_table(const std::vector<SweepCellOutcome>& outcomes);

// Per-cell metrics report: one block per cell with its merged metrics
// table and summed wall-phase times (`abe_scenarios report`), closed on
// simulator cells by a derived cost line: events popped, events per
// message sent, and the share of events that were ticks.
std::string render_metrics_report(
    const std::vector<SweepCellOutcome>& outcomes);

}  // namespace abe
