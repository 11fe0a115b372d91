// One scenario trial, driven call by call through the library's public API
// in the order run_scenario_trial makes the same calls:
//
//   Rng(seed).substream("scenario-topology") + TopologySpec::build
//   → make_scenario_driver → scenario_runtime_config
//   → AlgorithmDriver::configure → make_runtime → build_nodes → start
//   → run_until_done → on_complete / settle → stop → extract / project
//   → runtime destruction
//
// extract needs the live runtime, so destruction comes after it; its time
// is charged to the runtime's stop step in the report.
//
// Untraced trials read the clock twice (around the whole trial) and run
// with RuntimeConfig::metrics off. Traced trials record a span per call,
// read memory around configure and around runtime construction, turn
// metrics on and, when asked, interpose the timing decorators of probes.h.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "probes.h"
#include "runtime/runtime.h"
#include "scenario/scenario.h"

namespace trialbench {

enum class Step : std::size_t {
  kTopology,
  kDriverMake,
  kRuntimeConfig,
  kConfigure,
  kRuntimeMake,
  kBuildNodes,
  kStart,
  kRun,
  kOnComplete,
  kSettle,
  kStop,
  kExtract,
  kProject,
  kDestroy,
  kCount,
};
constexpr std::size_t kStepCount = static_cast<std::size_t>(Step::kCount);

// Span name of a step ("topology.build", "runtime.run", …).
const char* step_name(Step step);

// One timed interval. Spans of a trial share its seed as their id; every
// step span names the trial's root span as its parent.
struct Span {
  std::uint64_t trial = 0;
  const char* name = "";
  const char* parent = "";  // empty for the root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// What a traced trial records, and where.
struct TraceOptions {
  std::vector<Span>* spans = nullptr;  // appended to; may be null
  // Non-null interposes TimingNode / TimingDelay and accumulates into
  // these (shared across the trials of a pass).
  HandlerCounters* handlers = nullptr;
  DelayCounters* delay = nullptr;
};

struct TrialRecord {
  abe::TrialOutcome outcome;  // projected, as run_scenario_trial returns it
  double total_ms = 0.0;      // benchmark clock around every call
  // Messages sent over the whole trial, settle traffic included (the
  // outcome counts them up to completion).
  std::uint64_t messages_total = 0;
  // Traced trials only.
  std::array<double, kStepCount> step_ms{};
  abe::MetricsSnapshot metrics;
  std::int64_t configure_rss_bytes = 0;  // RSS delta across configure
  std::int64_t build_heap_bytes = 0;     // heap delta, make_runtime+build
};

// Runs one trial of `spec` with `seed`; `trace` null means untraced.
TrialRecord run_trial(const abe::ScenarioSpec& spec, std::uint64_t seed,
                      const TraceOptions* trace);

// Exact equality of what the simulator determines: completion, safety,
// stall, message count and completion time (compared bit for bit).
bool same_outcome(const abe::TrialOutcome& a, const abe::TrialOutcome& b);

}  // namespace trialbench
