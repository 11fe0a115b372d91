#include "core/announce.h"

#include <sstream>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "util/check.h"

namespace abe {

AnnouncingElectionNode::AnnouncingElectionNode(ElectionOptions options)
    : inner_(options) {}

void AnnouncingElectionNode::on_start(Context& ctx) { inner_.on_start(ctx); }

void AnnouncingElectionNode::on_tick(Context& ctx, std::uint64_t tick) {
  if (done_) return;
  inner_.on_tick(ctx, tick);
  // A 1-ring's node elects itself on a tick with no message traffic.
  if (inner_.state() == ElectionState::kLeader && ctx.network_size() == 1) {
    announced_ = true;
    done_ = true;
  }
}

std::uint64_t AnnouncingElectionNode::next_tick_of_interest(
    Context& ctx, std::uint64_t after) {
  if (done_) return kNoTick;
  return inner_.next_tick_of_interest(ctx, after);
}

void AnnouncingElectionNode::on_message(Context& ctx,
                                        std::size_t in_index,
                                        const Payload& payload) {
  if (const auto* announce = payload_cast<AnnouncePayload>(payload)) {
    const std::uint64_t n = ctx.network_size();
    ABE_CHECK_LE(announce->hop(), n);
    if (inner_.state() == ElectionState::kLeader) {
      // Wave completed the circle; everyone knows now.
      ABE_CHECK_EQ(announce->hop(), n) << "announce returned early";
      done_ = true;
      return;
    }
    ABE_CHECK(inner_.state() == ElectionState::kPassive)
        << "announce met a non-passive non-leader ("
        << inner_.state_string() << ")";
    done_ = true;
    distance_ = announce->hop();
    ctx.send(0, std::make_unique<AnnouncePayload>(announce->hop() + 1));
    return;
  }

  inner_.on_message(ctx, in_index, payload);
  if (inner_.state() == ElectionState::kLeader && !announced_) {
    announced_ = true;
    distance_ = 0;
    if (ctx.network_size() > 1) {
      ctx.send(0, std::make_unique<AnnouncePayload>(1));
    } else {
      done_ = true;
    }
  }
}

std::string AnnouncingElectionNode::state_string() const {
  std::ostringstream os;
  os << inner_.state_string();
  if (done_) os << " done(d=" << distance_ << ")";
  return os.str();
}

AnnouncedElectionResult run_announced_election(std::size_t n, double a0,
                                               std::uint64_t seed,
                                               const std::string& delay_name,
                                               SimTime deadline) {
  ABE_CHECK_GE(n, 1u);
  RuntimeConfig config;
  config.topology = unidirectional_ring(n);
  config.delay = make_delay_model(delay_name, 1.0);
  config.enable_ticks = true;
  config.seed = seed;

  Network net(std::move(config));
  ElectionOptions options;
  options.a0 = a0;
  net.build_nodes([&](std::size_t) -> NodePtr {
    return std::make_unique<AnnouncingElectionNode>(options);
  });
  net.start();

  auto all_done = [&] {
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (!static_cast<const AnnouncingElectionNode&>(net.node(i)).done()) {
        return false;
      }
    }
    return true;
  };
  AnnouncedElectionResult result;
  result.all_done = net.run_until(all_done, deadline);
  if (!result.all_done) return result;

  result.completion_time = net.now();
  result.messages = net.metrics().messages_sent;

  // Distances must be a permutation of 0..n-1 consistent with the ring.
  std::vector<char> seen(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node =
        static_cast<const AnnouncingElectionNode&>(net.node(i));
    if (node.is_leader()) result.leader_index = i;
    const std::uint64_t d = node.distance_from_leader();
    if (d < n && !seen[d]) {
      seen[d] = 1;
    } else {
      return result;  // distances_consistent stays false
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node =
        static_cast<const AnnouncingElectionNode&>(net.node(i));
    const std::size_t expected =
        (i + n - result.leader_index) % n;
    if (node.distance_from_leader() != expected) return result;
  }
  result.distances_consistent = true;
  return result;
}

}  // namespace abe
