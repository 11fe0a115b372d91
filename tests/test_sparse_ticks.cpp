// Sparse ticks: the simulator fires only the ticks a node asks for
// (Node::next_tick_of_interest), and the ring election draws its coins
// ahead in tick order, so a run must match dense delivery bit for bit.
//
// Dense delivery is forced with a pass-through decorator that does not
// forward the hook: the decorator keeps the default answer (after + 1), so
// the wrapped ElectionNode sees every tick and draws each coin on the tick
// itself, exactly as before sparse ticks existed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/election.h"
#include "core/harness.h"
#include "net/delay.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/runtime.h"
#include "trace/trace.h"

namespace abe {
namespace {

// Forwards everything but next_tick_of_interest, so the Network falls back
// to the dense tick train for the wrapped node.
class DenseTicks final : public Node {
 public:
  explicit DenseTicks(NodePtr inner) : inner_(std::move(inner)) {}
  void on_start(Context& ctx) override { inner_->on_start(ctx); }
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override {
    inner_->on_message(ctx, in_index, payload);
  }
  void on_tick(Context& ctx, std::uint64_t tick) override {
    inner_->on_tick(ctx, tick);
  }
  std::string state_string() const override { return inner_->state_string(); }
  bool is_terminated() const override { return inner_->is_terminated(); }
  Node& algorithm_node() override { return *inner_; }
  const Node& algorithm_node() const override { return *inner_; }

 private:
  NodePtr inner_;
};

class LeaderWatch final : public ElectionObserver {
 public:
  void on_state_change(NodeId node, ElectionState /*from*/, ElectionState to,
                       SimTime /*when*/) override {
    if (to == ElectionState::kLeader) {
      ++leaders;
      leader = node.value();
    }
  }
  int leaders = 0;
  std::int64_t leader = -1;
};

struct RingCase {
  std::size_t n = 16;
  std::string delay = "exponential";
  DriftModel drift = DriftModel::kNone;
  bool processing = false;  // exp(0.05) when set, zero otherwise
  double loss = 0.0;
  std::uint64_t seed = 1;
};

struct NodeOutcome {
  ElectionState state;
  std::uint64_t d, activations, purges, forwards;
  bool operator==(const NodeOutcome& o) const {
    return state == o.state && d == o.d && activations == o.activations &&
           purges == o.purges && forwards == o.forwards;
  }
};

struct RingOutcome {
  bool elected = false;
  std::int64_t leader = -1;
  std::uint64_t messages = 0;
  std::uint64_t time_bits = 0;
  std::uint64_t ticks_fired = 0;
  std::vector<NodeOutcome> nodes;
};

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

RingOutcome run_ring(const RingCase& c, bool dense,
                     SimTime deadline = 5000.0) {
  RuntimeConfig config;
  config.topology = unidirectional_ring(c.n);
  config.delay = make_delay_model(c.delay, 1.0);
  config.drift = c.drift;
  if (c.drift != DriftModel::kNone) config.clock_bounds = {0.8, 1.25};
  if (c.processing) config.processing = ProcessingModel::exponential(0.05);
  config.loss_probability = c.loss;
  config.enable_ticks = true;
  config.seed = c.seed;
  Network net(std::move(config));

  LeaderWatch watch;
  ElectionOptions options;
  options.a0 = linear_regime_a0(c.n);
  options.observer = &watch;
  net.build_nodes([&](std::size_t) -> NodePtr {
    NodePtr node = std::make_unique<ElectionNode>(options);
    if (dense) node = std::make_unique<DenseTicks>(std::move(node));
    return node;
  });
  net.start();

  RingOutcome out;
  out.elected = net.run_until([&] { return watch.leaders > 0; }, deadline);
  out.leader = watch.leader;
  out.messages = net.metrics().messages_sent;
  out.time_bits = out.elected ? bits_of(net.now()) : 0;
  out.ticks_fired = net.metrics().ticks_fired;
  for (std::size_t i = 0; i < c.n; ++i) {
    const auto& e =
        static_cast<const ElectionNode&>(net.node(i).algorithm_node());
    out.nodes.push_back(
        {e.state(), e.d(), e.activations(), e.purges(), e.forwards()});
  }
  return out;
}

std::string case_name(const RingCase& c) {
  return "n=" + std::to_string(c.n) + " " + c.delay + " " +
         drift_model_name(c.drift) + (c.processing ? " gamma" : "") +
         " loss=" + std::to_string(c.loss) + " seed=" + std::to_string(c.seed);
}

struct GridParam {
  DriftModel drift;
  const char* delay;
};

void PrintTo(const GridParam& p, std::ostream* os) {
  *os << drift_model_name(p.drift) << "/" << p.delay;
}

class SparseTicksParity : public ::testing::TestWithParam<GridParam> {};

// (a) Every (γ, loss, n, seed) of one (drift, delay) pair: identical
// messages, election-time bits, leader and per-node protocol state.
TEST_P(SparseTicksParity, DenseAndSparseDeliveryAgreeBitForBit) {
  int reliable_elected = 0;
  for (const bool processing : {false, true}) {
    for (const double loss : {0.0, 0.005}) {
      for (const std::size_t n : {1u, 2u, 16u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
          RingCase c;
          c.n = n;
          c.delay = GetParam().delay;
          c.drift = GetParam().drift;
          c.processing = processing;
          c.loss = loss;
          c.seed = seed * 7919 + n;
          const RingOutcome sparse = run_ring(c, /*dense=*/false);
          const RingOutcome dense = run_ring(c, /*dense=*/true);
          SCOPED_TRACE(case_name(c));
          ASSERT_EQ(sparse.elected, dense.elected);
          ASSERT_EQ(sparse.leader, dense.leader);
          ASSERT_EQ(sparse.messages, dense.messages);
          ASSERT_EQ(sparse.time_bits, dense.time_bits);
          ASSERT_TRUE(sparse.nodes == dense.nodes);
          ASSERT_LE(sparse.ticks_fired, dense.ticks_fired);
          if (loss == 0.0 && sparse.elected) ++reliable_elected;
        }
      }
    }
  }
  // The grid must exercise real elections: every reliable run elects
  // (lossy ones may stall, and must then stall identically).
  EXPECT_EQ(reliable_elected, 80);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SparseTicksParity,
    ::testing::Values(GridParam{DriftModel::kNone, "exponential"},
                      GridParam{DriftModel::kNone, "fixed"},
                      GridParam{DriftModel::kNone, "lomax"},
                      GridParam{DriftModel::kFixedRandomRate, "exponential"},
                      GridParam{DriftModel::kFixedRandomRate, "fixed"},
                      GridParam{DriftModel::kFixedRandomRate, "lomax"},
                      GridParam{DriftModel::kPiecewiseRandom, "exponential"},
                      GridParam{DriftModel::kPiecewiseRandom, "fixed"},
                      GridParam{DriftModel::kPiecewiseRandom, "lomax"}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      std::string name = std::string(drift_model_name(info.param.drift)) +
                         "_" + info.param.delay;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// A message delivered at the very instant the receiver's pending tick is
// due pops before that tick (aligned phases and unit delays make every
// delivery such a tie). The tick has not fired yet, so a dense node's
// answer stays the pending tick and its event is never moved.
TEST(SparseTicks, DenseTrainKeepsPendingTickOnExactTies) {
  RuntimeConfig config;
  config.topology = unidirectional_ring(8);
  config.delay = make_delay_model("fixed", 1.0);
  config.tick_phase = TickPhase::kAligned;
  config.enable_ticks = true;
  config.seed = 3;
  Network net(std::move(config));
  ElectionOptions options;
  options.a0 = 0.2;
  net.build_nodes([&](std::size_t) -> NodePtr {
    return std::make_unique<DenseTicks>(
        std::make_unique<ElectionNode>(options));
  });
  net.start();
  net.run_until([] { return false; }, 200.0);
  ASSERT_GT(net.metrics().messages_delivered, 0u);
  EXPECT_EQ(net.scheduler().cancelled_count(), 0u);
}

// (b) At A0 = c/n² almost every dense tick is a no-op; sparse delivery
// fires at most 2% of them on the same seed.
TEST(SparseTicks, LinearRegimeFiresFewTickEvents) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RingCase c;
    c.n = 256;
    c.seed = seed;
    const RingOutcome sparse = run_ring(c, /*dense=*/false, 1e6);
    const RingOutcome dense = run_ring(c, /*dense=*/true, 1e6);
    ASSERT_TRUE(sparse.elected && dense.elected) << "seed " << seed;
    ASSERT_EQ(sparse.messages, dense.messages);
    EXPECT_LE(static_cast<double>(sparse.ticks_fired),
              0.02 * static_cast<double>(dense.ticks_fired))
        << "seed " << seed << ": " << sparse.ticks_fired << " vs "
        << dense.ticks_fired;
  }
}

// (c) A lossy ring that deadlocks (every node passive, every token lost)
// has nothing left to fire: the queue drains before the deadline, and the
// trial is still classified as stalled.
TEST(SparseTicks, StalledLossyRingDrainsBeforeDeadline) {
  constexpr SimTime kDeadline = 2e4;
  int stalled = 0;
  for (std::uint64_t seed = 1; seed <= 40 && stalled < 3; ++seed) {
    ElectionExperiment e;
    e.n = 8;
    e.loss_probability = 0.3;
    e.election.a0 = linear_regime_a0(e.n);
    e.deadline = kDeadline;
    e.seed = seed;

    ElectionRunResult sink;
    const auto driver = make_ring_election_driver(e, &sink);
    RuntimeConfig config = election_runtime_config(e);
    driver->configure(config);
    SimRuntime rt(config);
    rt.build_nodes([&](std::size_t i) { return driver->make_node(i); });
    rt.start();
    const bool completed =
        rt.run_until_done([&] { return driver->done(rt); }, kDeadline);
    if (completed) continue;
    const TrialOutcome outcome = driver->extract(rt, completed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(outcome.stalled) << outcome.safety_detail;
    EXPECT_EQ(rt.network().scheduler().live_count(), 0u);
    EXPECT_LT(rt.now(), kDeadline);
    EXPECT_TRUE(run_election(e).stalled);
    ++stalled;
  }
  EXPECT_GE(stalled, 1) << "no seed stalled; raise the loss or the range";
}

// (d) With the tick flood gone, the always-on flight recorder's tail holds
// protocol history: most of the last records are SENDs and DELIVERs.
TEST(SparseTicks, FlightRecorderTailShowsProtocolEvents) {
  ElectionExperiment e;
  e.n = 1024;
  e.election.a0 = linear_regime_a0(e.n);
  e.seed = 1;
  ElectionRunResult sink;
  const auto driver = make_ring_election_driver(e, &sink);
  RuntimeConfig config = election_runtime_config(e);
  driver->configure(config);
  SimRuntime rt(config);
  rt.build_nodes([&](std::size_t i) { return driver->make_node(i); });
  rt.start();
  ASSERT_TRUE(rt.run_until_done([&] { return driver->done(rt); }, e.deadline));

  const std::vector<TraceEvent> events = rt.trace_snapshot().events();
  ASSERT_GE(events.size(), 256u);
  int protocol = 0;
  for (std::size_t i = events.size() - 256; i < events.size(); ++i) {
    if (events[i].kind == TraceKind::kSend ||
        events[i].kind == TraceKind::kDeliver) {
      ++protocol;
    }
  }
  EXPECT_GE(protocol, 128);
}

}  // namespace
}  // namespace abe
