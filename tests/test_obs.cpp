// Tests for the observability stack (obs/metrics.h) and its integration:
// registry semantics, snapshot determinism through the trial pool's chunk
// tree, the seed-pinned per-channel drop regression on a lossy ring, ARQ
// metrics, and the always-on flight-recorder tail on failing trials.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/arq.h"
#include "net/delay.h"
#include "net/network.h"
#include "net/topology.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "trace/trace.h"

namespace abe {
namespace {

// ---------------------------------------------------------------------
// Registry + instruments

TEST(MetricsRegistry, GetOrCreateReturnsStableRefs) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("x.count");
  Counter& c2 = registry.counter("x.count");
  EXPECT_EQ(&c1, &c2);
  c1.inc();
  c2.inc(4);
  EXPECT_EQ(c1.value(), 5u);

  Gauge& g = registry.gauge("x.depth");
  g.update_max(3.0);
  g.update_max(1.0);  // lower values never win
  EXPECT_DOUBLE_EQ(g.value(), 3.0);

  FixedHistogram& h1 = registry.histogram("x.delay", {1.0, 2.0, 4.0});
  FixedHistogram& h2 = registry.histogram("x.delay", {1.0, 2.0, 4.0});
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, SnapshotSortedByName) {
  MetricsRegistry registry;
  registry.counter("zeta").inc(1);
  registry.gauge("alpha").set(2.0);
  registry.histogram("mid", {1.0}).record(0.5);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.entries().size(), 3u);
  EXPECT_EQ(snap.entries()[0].name, "alpha");
  EXPECT_EQ(snap.entries()[1].name, "mid");
  EXPECT_EQ(snap.entries()[2].name, "zeta");
  EXPECT_DOUBLE_EQ(snap.value_of("zeta"), 1.0);
  EXPECT_EQ(snap.find("absent"), nullptr);
}

TEST(MetricsSnapshot, MergeSemantics) {
  MetricsSnapshot a;
  a.add_counter("events", 3.0);
  a.add_gauge("depth", 2.0);
  a.add_histogram("lat", {1.0, 2.0}, {5, 0, 1});

  MetricsSnapshot b;
  b.add_counter("events", 4.0);
  b.add_gauge("depth", 7.0);
  b.add_histogram("lat", {1.0, 2.0}, {1, 2, 0});
  b.add_counter("only_b", 1.0);

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.value_of("events"), 7.0);   // counter: sum
  EXPECT_DOUBLE_EQ(a.value_of("depth"), 7.0);    // gauge: max
  EXPECT_DOUBLE_EQ(a.value_of("only_b"), 1.0);   // absent: adopted
  const MetricValue* lat = a.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->buckets, (std::vector<std::uint64_t>{6, 2, 1}));

  // Order-commutative: merging the other way yields the same snapshot.
  MetricsSnapshot a2;
  a2.add_counter("events", 4.0);
  a2.add_gauge("depth", 7.0);
  a2.add_histogram("lat", {1.0, 2.0}, {1, 2, 0});
  a2.add_counter("only_b", 1.0);
  MetricsSnapshot b2;
  b2.add_counter("events", 3.0);
  b2.add_gauge("depth", 2.0);
  b2.add_histogram("lat", {1.0, 2.0}, {5, 0, 1});
  a2.merge(b2);
  EXPECT_EQ(a, a2);
}

TEST(FixedHistogram, BucketsQuantilesAndOverflow) {
  FixedHistogram h({1.0, 2.0, 4.0});
  h.record(0.5);   // bucket 0
  h.record(1.5);   // bucket 1
  h.record(3.0);   // bucket 2
  h.record(100.0);  // overflow bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // bounds + overflow
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(h.total(), 4u);
  // Quantiles interpolate inside the containing bucket; the overflow
  // bucket clamps to the last bound.
  EXPECT_GT(h.quantile(0.1), 0.0);
  EXPECT_LE(h.quantile(0.1), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(
      FixedHistogram::quantile_of({1.0, 2.0, 4.0}, {1, 1, 1, 1}, 1.0), 4.0);
}

TEST(FixedHistogram, Log2BoundsGeometricAroundCenter) {
  const auto bounds = FixedHistogram::log2_bounds(1.0, /*below=*/2,
                                                  /*above=*/2);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.25);
  EXPECT_DOUBLE_EQ(bounds[2], 1.0);
  EXPECT_DOUBLE_EQ(bounds[4], 4.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ---------------------------------------------------------------------
// Network integration: the seed-pinned per-channel drop regression

// Sends `count` messages on every out-channel at start.
class Sprayer final : public Node {
 public:
  explicit Sprayer(int count) : count_(count) {}
  void on_start(Context& ctx) override {
    for (std::size_t ch = 0; ch < ctx.out_degree(); ++ch) {
      for (int i = 0; i < count_; ++i) {
        ctx.send(ch, std::make_unique<IntPayload>(i));
      }
    }
  }
  void on_message(Context&, std::size_t, const Payload&) override {}

 private:
  int count_;
};

RuntimeConfig lossy_ring_config(std::uint64_t seed) {
  RuntimeConfig config;
  config.topology = unidirectional_ring(4);
  config.delay = fixed_delay(1.0);
  config.loss_probability = 0.3;
  config.seed = seed;
  config.metrics = true;
  return config;
}

std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
run_lossy_ring(std::uint64_t seed) {
  Network net(lossy_ring_config(seed));
  net.build_nodes([](std::size_t) -> NodePtr {
    return std::make_unique<Sprayer>(50);
  });
  net.start();
  net.run_until_quiescent();
  return {net.delivered_by_channel(), net.dropped_by_channel()};
}

TEST(NetworkObs, LossyRingPerChannelCountsAreSeedPinned) {
  const auto [delivered, dropped] = run_lossy_ring(42);
  ASSERT_EQ(delivered.size(), 4u);  // one entry per ring edge
  ASSERT_EQ(dropped.size(), 4u);
  std::uint64_t total_dropped = 0;
  for (std::size_t e = 0; e < 4; ++e) {
    // Conservation per channel: every one of the 50 sends on edge e was
    // either delivered or dropped.
    EXPECT_EQ(delivered[e] + dropped[e], 50u) << "edge " << e;
    total_dropped += dropped[e];
  }
  EXPECT_GT(total_dropped, 0u) << "p=0.3 over 200 sends";

  // The regression proper: the same seed must reproduce the exact
  // per-channel split, bit for bit.
  const auto [delivered2, dropped2] = run_lossy_ring(42);
  EXPECT_EQ(delivered, delivered2);
  EXPECT_EQ(dropped, dropped2);
}

TEST(NetworkObs, SnapshotRowsMatchAggregateCounters) {
  Network net(lossy_ring_config(7));
  net.build_nodes([](std::size_t) -> NodePtr {
    return std::make_unique<Sprayer>(25);
  });
  net.start();
  net.run_until_quiescent();
  const MetricsSnapshot snap = net.metrics_snapshot();
  EXPECT_DOUBLE_EQ(snap.value_of("net.sent"),
                   static_cast<double>(net.metrics().messages_sent));
  EXPECT_DOUBLE_EQ(snap.value_of("net.dropped"),
                   static_cast<double>(net.metrics().messages_dropped));
  // Extended rows exist because config.metrics is on.
  const MetricValue* delay = snap.find("net.delay");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->kind, MetricKind::kHistogram);
  std::uint64_t delay_samples = 0;
  for (const std::uint64_t b : delay->buckets) delay_samples += b;
  EXPECT_EQ(delay_samples, net.metrics().messages_delivered);
  ASSERT_NE(snap.find("net.channels.lossy"), nullptr);
  ASSERT_NE(snap.find("sched.queue_high_water"), nullptr);
}

// ---------------------------------------------------------------------
// Trial-pool determinism: merged snapshots are chunk-schedule independent

ScenarioSpec lossy_ring_spec() {
  ScenarioSpec spec;
  spec.algorithm = ScenarioAlgorithm::kRingElection;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, 6, 0.0};
  spec.failure = FailureProfile::loss(0.05);
  spec.deadline = 2e4;
  spec.settle_time = 5.0;
  return spec;
}

TEST(ScenarioObs, MergedMetricsBitIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = lossy_ring_spec();
  const ScenarioAggregate serial =
      run_scenario_trials(spec, /*trials=*/8, /*seed_base=*/42, /*threads=*/1);
  const ScenarioAggregate pooled =
      run_scenario_trials(spec, /*trials=*/8, /*seed_base=*/42, /*threads=*/4);
  ASSERT_FALSE(serial.metrics.empty());
  // merge() is order-commutative, so the chunk tree's shape must not leak
  // into the aggregate snapshot — this is what makes the sweep JSON's
  // metrics block reproducible for every ABE_TRIAL_THREADS.
  EXPECT_EQ(serial.metrics, pooled.metrics);
  EXPECT_GT(serial.metrics.value_of("net.sent"), 0.0);
  EXPECT_DOUBLE_EQ(serial.metrics.value_of("net.sent"),
                   serial.metrics.value_of("net.delivered") +
                       serial.metrics.value_of("net.dropped"));
}

// ---------------------------------------------------------------------
// ARQ metrics

TEST(ArqObs, ExperimentCarriesRttHistogramAndCounters) {
  const ArqResult result = run_arq_experiment(/*p_success=*/0.7,
                                              /*packets=*/40, /*slot=*/1.0,
                                              /*seed=*/13);
  EXPECT_EQ(result.packets, 40u);
  EXPECT_DOUBLE_EQ(result.metrics.value_of("arq.retransmits"),
                   static_cast<double>(result.retransmits));
  const MetricValue* rtt = result.metrics.find("arq.rtt");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->kind, MetricKind::kHistogram);
  std::uint64_t acked = 0;
  for (const std::uint64_t b : rtt->buckets) acked += b;
  EXPECT_EQ(acked, 40u) << "one RTT sample per acknowledged packet";
  // Round trip over a 1.0-delay link is at least 2 time units, so nothing
  // lands below the first log2 bucket's floor.
  EXPECT_GE(FixedHistogram::quantile_of(rtt->bounds, rtt->buckets, 0.0),
            0.0);
}

// ---------------------------------------------------------------------
// Flight recorder: failing trials dump recent history without pre-enabling

TEST(ScenarioObs, FailingTrialCarriesFlightTail) {
  ScenarioSpec spec = lossy_ring_spec();
  // Heavy loss: the election token is dropped with no retransmission, so
  // the ring goes all-passive and the trial stalls.
  spec.failure = FailureProfile::loss(0.5);
  spec.deadline = 5e3;

  bool saw_failure = false;
  for (std::uint64_t seed = 1; seed <= 20 && !saw_failure; ++seed) {
    const ScenarioTrialResult trial = run_scenario_trial(spec, seed);
    if (trial.completed && trial.safety_ok) continue;
    saw_failure = true;
    // Nobody enabled tracing, yet the failure comes with its recent
    // history — the always-on flight ring, bounded by kFlightCapacity.
    EXPECT_FALSE(trial.flight_tail.empty());
    EXPECT_LE(trial.flight_tail.size(), Trace::kFlightCapacity);
    for (std::size_t i = 1; i < trial.flight_tail.size(); ++i) {
      EXPECT_LE(trial.flight_tail[i - 1].time, trial.flight_tail[i].time);
    }
  }
  EXPECT_TRUE(saw_failure) << "p=0.5 ring election never failed in 20 seeds";
}

TEST(ScenarioObs, CompletedTrialHasNoFlightTailButHasMetrics) {
  ScenarioSpec spec = lossy_ring_spec();
  spec.failure = FailureProfile::none();
  const ScenarioTrialResult trial = run_scenario_trial(spec, 1);
  ASSERT_TRUE(trial.completed);
  ASSERT_TRUE(trial.safety_ok);
  EXPECT_TRUE(trial.flight_tail.empty());
  // Scenario trials always harvest metrics (no RNG cost).
  ASSERT_TRUE(trial.has_metrics);
  EXPECT_GT(trial.metrics.value_of("net.sent"), 0.0);
  EXPECT_GE(trial.wall.run_ms, 0.0);
}

}  // namespace
}  // namespace abe
