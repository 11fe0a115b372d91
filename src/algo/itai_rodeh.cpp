#include "algo/itai_rodeh.h"

#include <sstream>

#include "net/topology.h"
#include "util/check.h"

namespace abe {

std::string IrToken::describe() const {
  std::ostringstream os;
  os << "IR(r=" << round_ << ",id=" << id_ << ",hop=" << hop_
     << (clean_ ? ",clean" : ",dirty") << ")";
  return os.str();
}

ItaiRodehNode::ItaiRodehNode(IrOptions options)
    : options_(std::move(options)) {}

void ItaiRodehNode::on_start(Context& ctx) {
  if (ctx.network_size() == 1) {
    leader_ = true;
    if (options_.on_leader) options_.on_leader(ctx.self(), ctx.real_now());
    return;
  }
  start_round(ctx);
}

void ItaiRodehNode::start_round(Context& ctx) {
  ++round_;
  const std::uint64_t range =
      options_.id_range == 0 ? ctx.network_size() : options_.id_range;
  id_ = 1 + ctx.rng().uniform_int(range);
  ctx.send(0, std::make_unique<IrToken>(round_, id_, 1, true));
}

void ItaiRodehNode::on_message(Context& ctx, std::size_t /*in_index*/,
                               const Payload& payload) {
  const auto& token = payload_as<IrToken>(payload);
  const std::uint64_t n = ctx.network_size();

  if (passive_) {
    // Relay unchanged except for the hop count.
    ctx.send(0, std::make_unique<IrToken>(token.round(), token.id(),
                                          token.hop() + 1, token.clean()));
    return;
  }
  if (leader_) {
    return;  // stale tokens die at the leader
  }

  // Candidate: compare (round, id) lexicographically.
  const bool own_pair = token.round() == round_ && token.id() == id_;
  if (own_pair && token.hop() == n) {
    // Our token made it all the way around.
    if (token.clean()) {
      leader_ = true;
      if (options_.on_leader) options_.on_leader(ctx.self(), ctx.real_now());
    } else {
      start_round(ctx);  // tie this round; redraw
    }
    return;
  }
  const bool greater = token.round() > round_ ||
                       (token.round() == round_ && token.id() > id_);
  if (greater) {
    passive_ = true;
    ctx.send(0, std::make_unique<IrToken>(token.round(), token.id(),
                                          token.hop() + 1, token.clean()));
    return;
  }
  if (own_pair) {
    // Same (round, id) but hop < n: another candidate drew our id. Dirty the
    // token so its originator (and ours, symmetrically) redraws.
    ctx.send(0, std::make_unique<IrToken>(token.round(), token.id(),
                                          token.hop() + 1, false));
    return;
  }
  // Strictly smaller (round, id): purge.
}

std::string ItaiRodehNode::state_string() const {
  std::ostringstream os;
  if (leader_) {
    os << "leader";
  } else if (passive_) {
    os << "passive";
  } else {
    os << "candidate r=" << round_ << " id=" << id_;
  }
  return os.str();
}

IrResult run_itai_rodeh(const IrExperiment& experiment) {
  ABE_CHECK_GE(experiment.n, 1u);
  RuntimeConfig config;
  config.topology = unidirectional_ring(experiment.n);
  config.delay = make_delay_model(experiment.delay_name,
                                  experiment.mean_delay);
  config.ordering = experiment.ordering;
  config.seed = experiment.seed;

  Network net(std::move(config));
  struct {
    bool elected = false;
    std::size_t index = 0;
    SimTime when = 0.0;
    std::uint64_t count = 0;
  } leader;

  IrOptions options;
  options.on_leader = [&leader](NodeId node, SimTime when) {
    if (!leader.elected) {
      leader.elected = true;
      leader.index = static_cast<std::size_t>(node.value());
      leader.when = when;
    }
    ++leader.count;
  };
  net.build_nodes([&](std::size_t) -> NodePtr {
    return std::make_unique<ItaiRodehNode>(options);
  });
  net.start();

  IrResult result;
  const bool elected =
      net.run_until([&] { return leader.elected; }, experiment.deadline);
  if (!elected) return result;

  result.elected = true;
  result.leader_index = leader.index;
  result.election_time = leader.when;
  result.messages = net.metrics().messages_sent;
  result.rounds = static_cast<const ItaiRodehNode&>(net.node(leader.index))
                      .round();

  // Drain stale tokens, then check the terminal configuration.
  net.run_until_quiescent(net.now() + 64.0 * experiment.mean_delay *
                                          static_cast<double>(experiment.n));
  std::size_t leaders = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& node = static_cast<const ItaiRodehNode&>(net.node(i));
    if (node.is_leader()) ++leaders;
  }
  result.safety_ok = leaders == 1 && leader.count == 1;
  return result;
}

IrAggregate run_itai_rodeh_trials(IrExperiment experiment,
                                  std::uint64_t trials,
                                  std::uint64_t seed_base) {
  ABE_CHECK_GT(trials, 0u);
  IrAggregate agg;
  for (std::uint64_t t = 0; t < trials; ++t) {
    experiment.seed = seed_base + t;
    const IrResult run = run_itai_rodeh(experiment);
    if (!run.elected) {
      ++agg.failures;
      continue;
    }
    if (!run.safety_ok) ++agg.safety_violations;
    agg.messages.add(static_cast<double>(run.messages));
    agg.time.add(run.election_time);
    agg.rounds.add(static_cast<double>(run.rounds));
  }
  return agg;
}

}  // namespace abe
