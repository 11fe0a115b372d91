#include "lifecycle.h"

#include <cstring>
#include <memory>
#include <utility>

#include "scenario/drivers.h"
#include "sim/rng.h"

namespace trialbench {

namespace {

constexpr const char* kRootSpan = "trial";

// Chains one clock read per step boundary. Untraced trials only use the
// first and last read. Traced trials close a span at every boundary, take
// memory readings around configure and around runtime construction plus
// build_nodes, and read the clock again after a reading so probe time is
// charged to the root span's self time rather than to the next step.
class StepClock {
 public:
  StepClock(std::uint64_t seed, const TraceOptions* trace, TrialRecord* rec)
      : seed_(seed), trace_(trace), rec_(rec) {
    start_ns_ = now_ns();
    last_ns_ = start_ns_;
  }

  void mark(Step step) {
    if (trace_ == nullptr) return;
    const std::int64_t t = now_ns();
    rec_->step_ms[static_cast<std::size_t>(step)] =
        static_cast<double>(t - last_ns_) / 1e6;
    if (trace_->spans != nullptr) {
      trace_->spans->push_back(Span{seed_, step_name(step), kRootSpan,
                                    last_ns_, t});
    }
    switch (step) {
      case Step::kRuntimeConfig:
        rss_before_configure_ = rss_bytes();
        break;
      case Step::kConfigure:
        rec_->configure_rss_bytes = rss_bytes() - rss_before_configure_;
        heap_after_configure_ = heap_bytes();
        break;
      case Step::kBuildNodes:
        rec_->build_heap_bytes = heap_bytes() - heap_after_configure_;
        break;
      default:
        break;
    }
    last_ns_ = now_ns();
  }

  // Excludes a probe taken between two steps from the next step's span.
  void skip() {
    if (trace_ != nullptr) last_ns_ = now_ns();
  }

  void finish() {
    const std::int64_t end = now_ns();
    rec_->total_ms = static_cast<double>(end - start_ns_) / 1e6;
    if (trace_ != nullptr && trace_->spans != nullptr) {
      trace_->spans->push_back(Span{seed_, kRootSpan, "", start_ns_, end});
    }
  }

 private:
  const std::uint64_t seed_;
  const TraceOptions* const trace_;
  TrialRecord* const rec_;
  std::int64_t start_ns_ = 0;
  std::int64_t last_ns_ = 0;
  std::int64_t rss_before_configure_ = 0;
  std::int64_t heap_after_configure_ = 0;
};

}  // namespace

const char* step_name(Step step) {
  switch (step) {
    case Step::kTopology: return "topology.build";
    case Step::kDriverMake: return "driver.make";
    case Step::kRuntimeConfig: return "runtime.config";
    case Step::kConfigure: return "driver.configure";
    case Step::kRuntimeMake: return "runtime.make";
    case Step::kBuildNodes: return "runtime.build_nodes";
    case Step::kStart: return "runtime.start";
    case Step::kRun: return "runtime.run";
    case Step::kOnComplete: return "driver.on_complete";
    case Step::kSettle: return "driver.settle";
    case Step::kStop: return "runtime.stop";
    case Step::kExtract: return "driver.extract";
    case Step::kProject: return "driver.project";
    case Step::kDestroy: return "runtime.destroy";
    case Step::kCount: break;
  }
  return "?";
}

namespace {

// Every call of the trial up to runtime destruction. The topology and the
// driver binding die when this returns, inside the destroy step.
void run_steps(const abe::ScenarioSpec& spec, std::uint64_t seed,
               const TraceOptions* trace, StepClock& clock,
               TrialRecord& rec) {
  abe::Rng topology_rng = abe::Rng(seed).substream("scenario-topology");
  const abe::Topology topology = spec.topology.build(topology_rng);
  clock.mark(Step::kTopology);

  abe::ScenarioTrialDriver binding =
      abe::make_scenario_driver(spec, topology, seed);
  clock.mark(Step::kDriverMake);

  abe::RuntimeConfig config =
      abe::scenario_runtime_config(spec, topology, seed);
  config.metrics = trace != nullptr;
  if (trace != nullptr && trace->delay != nullptr) {
    config.delay = std::make_shared<TimingDelay>(config.delay, trace->delay);
  }
  clock.mark(Step::kRuntimeConfig);

  abe::AlgorithmDriver& driver = *binding.driver;
  driver.configure(config);
  clock.mark(Step::kConfigure);

  const abe::SimTime deadline = config.deadline;
  std::unique_ptr<abe::Runtime> rt =
      abe::make_runtime(spec.runtime, std::move(config));
  clock.mark(Step::kRuntimeMake);

  HandlerCounters* handlers = trace != nullptr ? trace->handlers : nullptr;
  rt->build_nodes([&driver, handlers](std::size_t i) -> abe::NodePtr {
    abe::NodePtr node = driver.make_node(i);
    if (handlers == nullptr) return node;
    return std::make_unique<TimingNode>(std::move(node), handlers);
  });
  clock.mark(Step::kBuildNodes);

  rt->start();
  clock.mark(Step::kStart);

  const bool completed =
      rt->run_until_done([&] { return driver.done(*rt); }, deadline);
  clock.mark(Step::kRun);

  if (completed) driver.on_complete(*rt);
  clock.mark(Step::kOnComplete);

  driver.settle(*rt, completed);
  clock.mark(Step::kSettle);

  rt->stop();
  rec.messages_total = rt->stats().messages_sent;
  clock.mark(Step::kStop);

  const abe::TrialOutcome raw = driver.extract(*rt, completed);
  clock.mark(Step::kExtract);

  rec.outcome = binding.project(raw);
  clock.mark(Step::kProject);

  if (trace != nullptr) {
    rec.metrics = rt->metrics_snapshot();
    clock.skip();
  }
  rt.reset();
}

}  // namespace

TrialRecord run_trial(const abe::ScenarioSpec& spec, std::uint64_t seed,
                      const TraceOptions* trace) {
  TrialRecord rec;
  StepClock clock(seed, trace, &rec);
  run_steps(spec, seed, trace, clock, rec);
  clock.mark(Step::kDestroy);
  clock.finish();
  return rec;
}

bool same_outcome(const abe::TrialOutcome& a, const abe::TrialOutcome& b) {
  return a.completed == b.completed && a.safety_ok == b.safety_ok &&
         a.stalled == b.stalled && a.messages == b.messages &&
         std::memcmp(&a.time, &b.time, sizeof a.time) == 0;
}

}  // namespace trialbench
