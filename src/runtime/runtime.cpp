#include "runtime/runtime.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/check.h"

namespace abe {

// ---------------------------------------------------------------------------
// SimRuntime

void SimRuntime::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  net_.build_nodes(factory);
}

void SimRuntime::start() { net_.start(); }

bool SimRuntime::run_until_done(const std::function<bool()>& done,
                                SimTime deadline) {
  return net_.run_until(done, deadline);
}

void SimRuntime::run_for(SimTime duration) {
  net_.run_until([] { return false; }, net_.now() + duration);
}

bool SimRuntime::drain(SimTime max_wait) {
  const SimTime deadline = max_wait >= kTimeInfinity
                               ? kTimeInfinity
                               : net_.now() + max_wait;
  net_.run_until_quiescent(deadline);
  return net_.metrics().in_flight() == 0;
}

bool SimRuntime::terminated(std::size_t i) const {
  return const_cast<Network&>(net_).node(i).is_terminated();
}

RunStats SimRuntime::stats() const {
  const NetworkMetrics& m = net_.metrics();
  RunStats stats;
  stats.messages_sent = m.messages_sent;
  stats.messages_delivered = m.messages_delivered;
  stats.messages_dropped = m.messages_dropped;
  stats.ticks_fired = m.ticks_fired;
  stats.now = net_.now();
  stats.terminated.resize(net_.size());
  for (std::size_t i = 0; i < net_.size(); ++i) {
    stats.terminated[i] = terminated(i);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// ThreadRuntime

void ThreadRuntime::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  net_.build_nodes(factory);
}

void ThreadRuntime::start() {
  net_.start();
  // Single clock read point: derive the wall deadline from the same
  // start_time_ read net_.start() took, rather than a second now() — so
  // the budget and now_sim() share one origin and cross-substrate wall
  // accounting lines up.
  wall_deadline_ =
      net_.start_time() +
      std::chrono::microseconds(static_cast<std::int64_t>(
          net_.config().wall_timeout_ms * 1000.0));
  started_ = true;
}

double ThreadRuntime::remaining_budget_ms() const {
  if (!started_) return net_.config().wall_timeout_ms;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      wall_deadline_ - std::chrono::steady_clock::now());
  return std::max<double>(1.0, static_cast<double>(left.count()));
}

bool ThreadRuntime::run_until_done(const std::function<bool()>& done,
                                   SimTime deadline) {
  // The deadline is absolute sim time (contract shared with SimRuntime),
  // so only the remainder beyond the current clock converts to wall time;
  // the per-trial wall budget caps it so a deadline meant for the
  // simulator (often 1e7 units) cannot turn into an hours-long wall hang.
  double budget_ms = remaining_budget_ms();
  if (deadline < kTimeInfinity) {
    const SimTime sim_left = std::max(0.0, deadline - net_.now_sim());
    budget_ms = std::min(budget_ms, wall_ms(sim_left));
  }
  return net_.wait_until(
      done, std::chrono::milliseconds(
                std::max<std::int64_t>(1, static_cast<std::int64_t>(budget_ms))));
}

void ThreadRuntime::run_for(SimTime duration) {
  // Wall-clock floor: below ~kMinSettleWallMs of wall time, OS scheduling
  // jitter dominates and the requested settle window is not actually
  // realised (in-flight wakeups land later than any sim-unit conversion
  // suggests).
  const double ms = std::max(kMinSettleWallMs, wall_ms(duration));
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<std::int64_t>(ms)));
}

bool ThreadRuntime::drain(SimTime max_wait) {
  double budget_ms = remaining_budget_ms();
  if (max_wait < kTimeInfinity) {
    budget_ms = std::min(budget_ms, wall_ms(max_wait));
  }
  return net_.wait_quiescent(std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(budget_ms))));
}

void ThreadRuntime::stop() {
  if (!stopped_) {
    stop_time_ = net_.now_sim();
    stopped_ = true;
  }
  net_.stop();
}

SimTime ThreadRuntime::now() const {
  return stopped_ ? stop_time_ : net_.now_sim();
}

RunStats ThreadRuntime::stats() const {
  RunStats stats;
  stats.messages_sent = net_.messages_sent();
  stats.messages_delivered = net_.messages_delivered();
  stats.messages_dropped = net_.messages_dropped();
  stats.ticks_fired = net_.ticks_fired();
  stats.now = now();
  stats.terminated.resize(net_.size());
  for (std::size_t i = 0; i < net_.size(); ++i) {
    stats.terminated[i] = net_.terminated(i);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Factory and trial loop

std::unique_ptr<Runtime> make_runtime(RuntimeKind kind,
                                      RuntimeConfig config) {
  switch (kind) {
    case RuntimeKind::kSim:
      return std::make_unique<SimRuntime>(std::move(config));
    case RuntimeKind::kThread:
    case RuntimeKind::kUdp:
      return std::make_unique<ThreadRuntime>(kind, std::move(config));
  }
  ABE_CHECK(false) << "unhandled runtime kind";
  return nullptr;
}

TrialOutcome run_algorithm_trial(RuntimeKind kind, RuntimeConfig config,
                                 AlgorithmDriver& driver) {
  using WallClock = std::chrono::steady_clock;
  const auto ms_between = [](WallClock::time_point a, WallClock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  const auto wall_begin = WallClock::now();
  driver.configure(config);
  const SimTime deadline = config.deadline;
  const bool want_metrics = config.metrics;
  std::unique_ptr<Runtime> rt = make_runtime(kind, std::move(config));
  rt->build_nodes([&driver](std::size_t i) { return driver.make_node(i); });
  const auto wall_built = WallClock::now();
  rt->start();
  const bool completed =
      rt->run_until_done([&] { return driver.done(*rt); }, deadline);
  const auto wall_ran = WallClock::now();
  if (completed) driver.on_complete(*rt);
  // The decision's causal history must be snapshotted BEFORE the settle
  // phase: settle traffic keeps recording and would evict the decision
  // neighborhood from the lite flight ring. The decision NODE is only known
  // after extract(), so hold the whole (bounded) ring.
  Trace decided_trace;
  if (completed) decided_trace = rt->trace_snapshot();
  driver.settle(*rt, completed);
  rt->stop();
  const auto wall_settled = WallClock::now();
  TrialOutcome outcome = driver.extract(*rt, completed);
  // Observability harvest happens here, after extract(): wall phases and
  // metrics belong to the trial loop, not to individual drivers.
  outcome.wall.build_ms = ms_between(wall_begin, wall_built);
  outcome.wall.run_ms = ms_between(wall_built, wall_ran);
  outcome.wall.settle_ms = ms_between(wall_ran, wall_settled);
  // Computed from the SAME chained reads as the phases — one clock read
  // per phase boundary — so build + run + settle == total identically.
  outcome.wall.total_ms = ms_between(wall_begin, wall_settled);
  if (want_metrics) {
    outcome.metrics = rt->metrics_snapshot();
    outcome.has_metrics = true;
  }
  if (outcome.completed && outcome.decision_node >= 0) {
    // Decision-terminated critical path (obs/causal.h). Pure analysis of
    // the pre-settle snapshot: no RNG, no event reordering, so aggregates
    // are untouched; chains may be `truncated` in lite flight mode
    // (RuntimeConfig::causal_history widens the ring).
    const CriticalPath path = extract_critical_path(
        decided_trace.events(), NodeId{outcome.decision_node}, outcome.time);
    outcome.critical_path = CriticalPathStats::from_path(path);
    outcome.has_critical_path = true;
  }
  {
    TimeSeries series = rt->timeseries_snapshot();
    if (series.enabled()) {
      series.trials = 1;
      outcome.timeseries = std::move(series);
      outcome.has_timeseries = true;
    }
  }
  if (!outcome.completed || outcome.stalled || !outcome.safety_ok) {
    // Failure forensics: dump the always-on flight recorder's recent
    // history so stalled or violating trials are diagnosable without
    // having pre-enabled tracing.
    outcome.flight_tail = rt->trace_snapshot().events();
  }
  return outcome;
}

}  // namespace abe
