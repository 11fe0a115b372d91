#include "syncr/abd_sync.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "syncr/sync_runner.h"
#include "util/check.h"

namespace abe {

AbdSyncNode::AbdSyncNode(std::unique_ptr<SyncApp> app,
                         std::uint64_t max_rounds, double period_local)
    : app_(std::move(app)),
      max_rounds_(max_rounds),
      period_local_(period_local) {
  ABE_CHECK(static_cast<bool>(app_));
  ABE_CHECK_GT(max_rounds, 0u);
  ABE_CHECK_GT(period_local, 0.0);
}

void AbdSyncNode::on_start(Context& ctx) {
  app_ctx_ = SyncAppContext{static_cast<std::size_t>(ctx.self().value()),
                            ctx.out_degree(), ctx.in_degree(),
                            ctx.network_size(), &ctx.rng()};
  emit_round(ctx, 1, app_->on_init(app_ctx_));
  // Close round 1 at local time P.
  ctx.set_timer_local(period_local_, 1);
}

void AbdSyncNode::emit_round(Context& ctx, std::uint64_t round,
                             std::vector<SyncOutgoing> app_msgs) {
  // Only real app messages are sent — the whole point of the ABD
  // synchronizer is zero overhead (no null markers, no acks).
  for (auto& msg : app_msgs) {
    ABE_CHECK_LT(msg.out_index, ctx.out_degree());
    ABE_CHECK(static_cast<bool>(msg.payload));
    ctx.send(msg.out_index,
             std::make_unique<SyncEnvelope>(round, std::move(msg.payload)));
  }
}

void AbdSyncNode::on_message(Context& ctx, std::size_t in_index,
                             const Payload& payload) {
  const auto& env = payload_as<SyncEnvelope>(payload);
  if (!env.has_app()) return;  // defensive; ABD peers never send nulls
  if (env.round() <= closed_rounds_) {
    // The round window already ended: the delay exceeded the assumed bound.
    ++late_;
    ctx.log("late envelope r=" + std::to_string(env.round()));
    return;
  }
  inbox_[env.round()].push_back(SyncIncoming{in_index, env.app()});
}

void AbdSyncNode::on_timer(Context& ctx, TimerId /*id*/, std::uint64_t tag) {
  if (finished_) return;
  const std::uint64_t round = tag;
  ABE_CHECK_EQ(round, closed_rounds_ + 1);
  closed_rounds_ = round;

  std::vector<SyncIncoming> inbox;
  auto it = inbox_.find(round);
  if (it != inbox_.end()) {
    inbox = std::move(it->second);
    inbox_.erase(it);
  }
  auto next_msgs = app_->on_round(app_ctx_, round, inbox);
  ++rounds_completed_;
  if (rounds_completed_ >= max_rounds_) {
    finished_ = true;
    return;
  }
  emit_round(ctx, round + 1, std::move(next_msgs));
  ctx.set_timer_local(period_local_, round + 1);
}

std::string AbdSyncNode::state_string() const {
  std::ostringstream os;
  os << "abd r=" << closed_rounds_ + 1 << " late=" << late_
     << (finished_ ? " done" : "");
  return os.str();
}

AbdRunResult run_abd_synchronizer(const Topology& topology,
                                  const SyncAppFactory& factory,
                                  std::uint64_t rounds,
                                  const DelayModelPtr& delay,
                                  double period_multiplier,
                                  std::uint64_t seed,
                                  ClockBounds clock_bounds,
                                  DriftModel drift) {
  ABE_CHECK_GT(period_multiplier, 0.0);
  RuntimeConfig config;
  config.topology = topology;
  config.delay = delay;
  config.ordering = ChannelOrdering::kArbitrary;
  config.clock_bounds = clock_bounds;
  config.drift = drift;
  config.seed = seed;

  const double period = period_multiplier * delay->mean_delay();
  Network net(std::move(config));
  net.build_nodes([&](std::size_t i) -> NodePtr {
    return std::make_unique<AbdSyncNode>(factory(i), rounds, period);
  });
  net.start();

  auto all_done = [&] {
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (!net.node(i).is_terminated()) return false;
    }
    return true;
  };
  // Rounds are timer-driven, so completion is guaranteed; the deadline is
  // simply the sum of all round windows with slack.
  const double deadline =
      period * static_cast<double>(rounds + 2) /
          std::max(clock_bounds.s_low, 1e-9) +
      1.0;
  const bool completed = net.run_until(all_done, deadline);

  AbdRunResult result;
  result.completed = completed;
  result.rounds = rounds;
  result.messages_total = net.metrics().messages_sent;
  result.messages_per_round =
      static_cast<double>(result.messages_total) / static_cast<double>(rounds);
  result.outputs.resize(net.size());
  std::uint64_t late = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& node = static_cast<const AbdSyncNode&>(net.node(i));
    result.outputs[i] = node.app().output();
    late += node.late_messages();
  }
  result.late_messages = late;
  result.late_fraction =
      result.messages_total == 0
          ? 0.0
          : static_cast<double>(late) /
                static_cast<double>(result.messages_total);

  // Ground truth comparison: the ideal synchronous execution.
  const SyncRunResult reference =
      run_synchronous(topology, factory, rounds, seed);
  result.outputs_match_reference = reference.outputs == result.outputs;
  return result;
}

}  // namespace abe
