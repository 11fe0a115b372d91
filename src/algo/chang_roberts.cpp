#include "algo/chang_roberts.h"

#include <sstream>
#include <utility>

#include "net/topology.h"
#include "util/check.h"

namespace abe {

ChangRobertsNode::ChangRobertsNode(
    std::uint64_t id, std::function<void(NodeId, SimTime)> on_leader)
    : id_(id), on_leader_(std::move(on_leader)) {}

void ChangRobertsNode::on_start(Context& ctx) {
  if (ctx.network_size() == 1) {
    leader_ = true;
    if (on_leader_) on_leader_(ctx.self(), ctx.real_now());
    return;
  }
  ctx.send(0, std::make_unique<CrToken>(id_));
}

void ChangRobertsNode::on_message(Context& ctx, std::size_t /*in_index*/,
                                  const Payload& payload) {
  const auto& token = payload_as<CrToken>(payload);
  if (leader_) return;  // nothing can still be circulating legitimately
  if (token.id() == id_) {
    // Our id survived a full circle: every other id was smaller.
    leader_ = true;
    if (on_leader_) on_leader_(ctx.self(), ctx.real_now());
    return;
  }
  if (token.id() > id_) {
    passive_ = true;  // a bigger id is out there; stop competing
    ctx.send(0, std::make_unique<CrToken>(token.id()));
  }
  // Smaller id: purge.
}

std::string ChangRobertsNode::state_string() const {
  std::ostringstream os;
  if (leader_) {
    os << "leader id=" << id_;
  } else {
    os << (passive_ ? "passive" : "candidate") << " id=" << id_;
  }
  return os.str();
}

CrResult run_chang_roberts(const CrExperiment& experiment) {
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
  } leader;

  // Random id assignment: permutation of {1..n}.
  Rng id_rng = Rng(experiment.seed).substream("cr-ids");
  const std::vector<std::size_t> perm = id_rng.permutation(experiment.n);

  net.build_nodes([&](std::size_t i) -> NodePtr {
    return std::make_unique<ChangRobertsNode>(
        static_cast<std::uint64_t>(perm[i] + 1),
        [&leader](NodeId node, SimTime when) {
          if (!leader.elected) {
            leader.elected = true;
            leader.index = static_cast<std::size_t>(node.value());
            leader.when = when;
          }
        });
  });
  net.start();

  CrResult result;
  const bool elected =
      net.run_until([&] { return leader.elected; }, experiment.deadline);
  if (!elected) return result;

  result.elected = true;
  result.leader_index = leader.index;
  result.election_time = leader.when;
  result.messages = net.metrics().messages_sent;

  net.run_until_quiescent(net.now() + 64.0 * experiment.mean_delay *
                                          static_cast<double>(experiment.n));
  std::size_t leaders = 0;
  std::uint64_t max_id = 0;
  std::size_t max_index = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& node = static_cast<const ChangRobertsNode&>(net.node(i));
    if (node.is_leader()) ++leaders;
    if (node.id() > max_id) {
      max_id = node.id();
      max_index = i;
    }
  }
  // Chang–Roberts must elect exactly the maximum id.
  result.safety_ok = leaders == 1 && max_index == leader.index;
  return result;
}

CrAggregate run_chang_roberts_trials(CrExperiment experiment,
                                     std::uint64_t trials,
                                     std::uint64_t seed_base) {
  ABE_CHECK_GT(trials, 0u);
  CrAggregate agg;
  for (std::uint64_t t = 0; t < trials; ++t) {
    experiment.seed = seed_base + t;
    const CrResult run = run_chang_roberts(experiment);
    if (!run.elected) {
      ++agg.failures;
      continue;
    }
    if (!run.safety_ok) ++agg.safety_violations;
    agg.messages.add(static_cast<double>(run.messages));
    agg.time.add(run.election_time);
  }
  return agg;
}

}  // namespace abe
