#include "syncr/alpha.h"

#include <sstream>
#include <utility>

#include "util/check.h"

namespace abe {

AlphaSyncNode::AlphaSyncNode(std::unique_ptr<SyncApp> app,
                             std::uint64_t max_rounds)
    : app_(std::move(app)), max_rounds_(max_rounds) {
  ABE_CHECK(static_cast<bool>(app_));
  ABE_CHECK_GT(max_rounds, 0u);
}

void AlphaSyncNode::on_start(Context& ctx) {
  app_ctx_ = SyncAppContext{static_cast<std::size_t>(ctx.self().value()),
                            ctx.out_degree(), ctx.in_degree(),
                            ctx.network_size(), &ctx.rng()};
  emit_round(ctx, 1, app_->on_init(app_ctx_));
  // Degenerate shapes (no in-channels) never receive; advance on the spot.
  try_advance(ctx);
}

void AlphaSyncNode::emit_round(Context& ctx, std::uint64_t round,
                               std::vector<SyncOutgoing> app_msgs) {
  // At most one app message per out-channel per round (synchronous model).
  std::vector<PayloadPtr> per_channel(ctx.out_degree());
  for (auto& msg : app_msgs) {
    ABE_CHECK_LT(msg.out_index, per_channel.size());
    ABE_CHECK(!per_channel[msg.out_index])
        << "app sent two messages on one channel in one round";
    ABE_CHECK(static_cast<bool>(msg.payload));
    per_channel[msg.out_index] = std::move(msg.payload);
  }
  for (std::size_t c = 0; c < per_channel.size(); ++c) {
    if (per_channel[c]) {
      ctx.send(c, std::make_unique<SyncEnvelope>(
                      round, std::move(per_channel[c])));
    } else {
      ctx.send(c, std::make_unique<SyncEnvelope>(round));  // null marker
    }
  }
}

void AlphaSyncNode::on_message(Context& ctx, std::size_t in_index,
                               const Payload& payload) {
  if (finished_) return;
  const auto& env = payload_as<SyncEnvelope>(payload);
  ABE_CHECK_GE(env.round(), current_round_)
      << "round already closed; α requires exactly one envelope per channel "
         "per round";
  auto& slots = pending_[env.round()];
  if (slots.empty()) slots.resize(ctx.in_degree());
  ABE_CHECK_LT(in_index, slots.size());
  ABE_CHECK(!slots[in_index]) << "duplicate envelope for round "
                              << env.round();
  slots[in_index] = std::shared_ptr<const SyncEnvelope>(
      static_cast<const SyncEnvelope*>(env.clone().release()));
  ++pending_count_[env.round()];
  try_advance(ctx);
}

void AlphaSyncNode::try_advance(Context& ctx) {
  while (!finished_) {
    if (ctx.in_degree() > 0 &&
        pending_count_[current_round_] < ctx.in_degree()) {
      return;  // round incomplete; wait
    }
    std::vector<SyncIncoming> inbox;
    auto it = pending_.find(current_round_);
    if (it != pending_.end()) {
      for (std::size_t k = 0; k < it->second.size(); ++k) {
        const auto& env = it->second[k];
        if (env && env->has_app()) {
          inbox.push_back(SyncIncoming{k, env->app()});
        }
      }
      pending_.erase(it);
    }
    pending_count_.erase(current_round_);

    auto next_msgs = app_->on_round(app_ctx_, current_round_, inbox);
    ++rounds_completed_;
    if (rounds_completed_ >= max_rounds_) {
      finished_ = true;
      return;
    }
    ++current_round_;
    emit_round(ctx, current_round_, std::move(next_msgs));
  }
}

std::string AlphaSyncNode::state_string() const {
  std::ostringstream os;
  os << "alpha r=" << current_round_ << (finished_ ? " done" : "");
  return os.str();
}

AlphaRunResult run_alpha_synchronizer(const Topology& topology,
                                      const SyncAppFactory& factory,
                                      std::uint64_t rounds,
                                      const DelayModelPtr& delay,
                                      std::uint64_t seed, SimTime deadline) {
  RuntimeConfig config;
  config.topology = topology;
  config.delay = delay;
  config.ordering = ChannelOrdering::kArbitrary;
  config.seed = seed;

  Network net(std::move(config));
  net.build_nodes([&](std::size_t i) -> NodePtr {
    return std::make_unique<AlphaSyncNode>(factory(i), rounds);
  });
  net.start();

  auto all_done = [&] {
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (!net.node(i).is_terminated()) return false;
    }
    return true;
  };
  const bool completed = net.run_until(all_done, deadline);

  AlphaRunResult result;
  result.completed = completed;
  result.rounds = rounds;
  result.messages_total = net.metrics().messages_sent;
  result.messages_per_round =
      static_cast<double>(result.messages_total) /
      static_cast<double>(rounds);
  result.completion_time = net.now();
  result.outputs.resize(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    result.outputs[i] =
        static_cast<const AlphaSyncNode&>(net.node(i)).app().output();
  }
  return result;
}

}  // namespace abe
