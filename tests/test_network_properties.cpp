// Parameterized conservation and ordering properties of the network layer,
// swept across topology × delay law × ordering × processing model.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "net/network.h"
#include "net/topology.h"

namespace abe {
namespace {

// Every node floods a burst on all its out-channels at start, then the net
// runs to quiescence; the properties below must hold for any configuration.
class FloodNode final : public Node {
 public:
  explicit FloodNode(int burst) : burst_(burst) {}
  void on_start(Context& ctx) override {
    for (int b = 0; b < burst_; ++b) {
      for (std::size_t c = 0; c < ctx.out_degree(); ++c) {
        ctx.send(c, std::make_unique<IntPayload>(b));
      }
    }
  }
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override {
    ++received_;
    const auto& msg = payload_as<IntPayload>(payload);
    if (in_index < last_per_channel_.size()) {
      // For FIFO runs the per-channel sequence must be nondecreasing.
      if (msg.value() < last_per_channel_[in_index]) {
        order_violated_ = true;
      }
      last_per_channel_[in_index] = msg.value();
    } else {
      last_per_channel_.resize(in_index + 1, msg.value());
    }
    (void)ctx;
  }

  std::uint64_t received_ = 0;
  bool order_violated_ = false;
  std::vector<std::int64_t> last_per_channel_;

 private:
  int burst_;
};

struct NetCase {
  const char* topology_name;
  Topology topology;
  std::string delay;
  ChannelOrdering ordering;
  ProcessingModel processing;
};

class NetworkPropertySweep : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetworkPropertySweep, ConservationAndOrdering) {
  const NetCase& c = GetParam();
  constexpr int kBurst = 20;
  RuntimeConfig config;
  config.topology = c.topology;
  config.delay = make_delay_model(c.delay, 1.0);
  config.ordering = c.ordering;
  config.processing = c.processing;
  config.seed = 77;
  Network net(std::move(config));
  net.build_nodes([&](std::size_t) -> NodePtr {
    return std::make_unique<FloodNode>(kBurst);
  });
  net.start();
  net.run_until_quiescent();

  const auto& m = net.metrics();
  // Conservation: everything sent is delivered (no loss configured).
  const std::uint64_t expected_sent =
      static_cast<std::uint64_t>(kBurst) * c.topology.edge_count();
  EXPECT_EQ(m.messages_sent, expected_sent);
  EXPECT_EQ(m.messages_delivered, expected_sent);
  EXPECT_EQ(m.messages_dropped, 0u);
  EXPECT_EQ(m.in_flight(), 0u);

  // Per-channel counters sum to the total.
  std::uint64_t by_channel = 0;
  for (auto v : m.sent_by_channel) by_channel += v;
  EXPECT_EQ(by_channel, m.messages_sent);
  std::uint64_t by_node = 0;
  for (auto v : m.sent_by_node) by_node += v;
  EXPECT_EQ(by_node, m.messages_sent);

  // Receivers got exactly their share, in order when FIFO.
  std::uint64_t received = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& node = static_cast<const FloodNode&>(net.node(i));
    received += node.received_;
    if (c.ordering == ChannelOrdering::kFifo) {
      EXPECT_FALSE(node.order_violated_) << "FIFO violated at node " << i;
    }
  }
  EXPECT_EQ(received, expected_sent);

  // Delay accounting is sane: mean within the law's plausible range.
  if (m.messages_delivered > 100) {
    EXPECT_GT(m.mean_channel_delay(), 0.0);
    EXPECT_LT(m.mean_channel_delay(), 10.0);
  }
}

std::vector<NetCase> make_cases() {
  std::vector<NetCase> cases;
  const std::pair<const char*, Topology> shapes[] = {
      {"ring", unidirectional_ring(6)},
      {"grid", grid(3, 3)},
      {"complete", complete(5)},
      {"star", star(7)},
  };
  const char* delays[] = {"fixed", "exponential", "lomax"};
  for (const auto& [name, topo] : shapes) {
    for (const char* delay : delays) {
      for (auto ordering :
           {ChannelOrdering::kFifo, ChannelOrdering::kArbitrary}) {
        cases.push_back(NetCase{name, topo, delay, ordering,
                                ProcessingModel::zero()});
      }
      cases.push_back(NetCase{name, topo, delay, ChannelOrdering::kFifo,
                              ProcessingModel::exponential(0.2)});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkPropertySweep, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<NetCase>& info) {
      const NetCase& c = info.param;
      return std::string(c.topology_name) + "_" + c.delay + "_" +
             channel_ordering_name(c.ordering) + "_" +
             (c.processing.kind == ProcessingModel::Kind::kZero ? "nocpu"
                                                                : "cpu");
    });

// Processing delay must serialise but never reorder a FIFO channel, and the
// busy time must sum up: with fixed processing t and k back-to-back
// messages the last handler runs at arrival + k*t.
TEST(NetworkProperty, ProcessingBacklogTiming) {
  RuntimeConfig config;
  config.topology = line(2);
  config.delay = fixed_delay(1.0);
  config.ordering = ChannelOrdering::kFifo;
  config.processing = ProcessingModel::fixed(0.5);
  config.seed = 1;
  Network net(std::move(config));
  net.build_nodes([&](std::size_t i) -> NodePtr {
    return std::make_unique<FloodNode>(i == 0 ? 8 : 0);
  });
  net.start();
  net.run_until_quiescent();
  // All 8 arrive at t=1; processing 0.5 each => last done at 1 + 8*0.5 = 5.
  EXPECT_DOUBLE_EQ(net.now(), 5.0);
}

// Exponential processing with many messages: node busy-time accounting must
// keep the system quiescing (no lost wakeups / stuck queues).
TEST(NetworkProperty, ExponentialProcessingQuiesces) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RuntimeConfig config;
    config.topology = complete(4);
    config.delay = exponential_delay(1.0);
    config.processing = ProcessingModel::exponential(0.3);
    config.seed = seed;
    Network net(std::move(config));
    net.build_nodes([&](std::size_t) -> NodePtr {
      return std::make_unique<FloodNode>(10);
    });
    net.start();
    net.run_until_quiescent();
    EXPECT_EQ(net.metrics().in_flight(), 0u);
    EXPECT_EQ(net.metrics().messages_delivered, 10u * 12u);
  }
}

}  // namespace
}  // namespace abe
