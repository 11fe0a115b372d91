#include "syncr/beta.h"

#include <sstream>
#include <utility>

#include "util/check.h"

namespace abe {

std::string BetaControl::describe() const {
  const char* name = kind_ == Kind::kAck    ? "ACK"
                     : kind_ == Kind::kSafe ? "SAFE"
                                            : "GO";
  std::ostringstream os;
  os << "Beta" << name << "(r=" << round_ << ")";
  return os.str();
}

std::vector<BetaWiring> build_beta_wiring(const Topology& topology,
                                          const SpanningTree& tree) {
  const auto in_adj = in_adjacency(topology);
  const OutChannelIndex to_nbr(topology);
  constexpr std::size_t kNone = OutChannelIndex::kNone;

  std::vector<BetaWiring> wiring(topology.n);
  for (std::size_t v = 0; v < topology.n; ++v) {
    BetaWiring& w = wiring[v];
    w.is_root = v == tree.root;
    if (!w.is_root) {
      w.parent_out = to_nbr.lookup(v, tree.parent[v]);
      ABE_CHECK(w.parent_out != kNone)
          << "no channel from " << v << " to parent " << tree.parent[v];
    }
    for (std::size_t child : tree.children[v]) {
      const std::size_t out = to_nbr.lookup(v, child);
      ABE_CHECK(out != kNone)
          << "no channel from " << v << " to child " << child;
      w.children_out.push_back(out);
    }
    // Ack routes: for each incoming channel, the channel back to its sender.
    w.reverse_of_in.resize(in_adj[v].size());
    for (std::size_t k = 0; k < in_adj[v].size(); ++k) {
      const std::size_t sender = topology.edges[in_adj[v][k]].from;
      const std::size_t back = to_nbr.lookup(v, sender);
      ABE_CHECK(back != kNone) << "edge " << sender << "->" << v
                               << " lacks the reverse ack channel";
      w.reverse_of_in[k] = back;
    }
  }
  return wiring;
}

BetaSyncNode::BetaSyncNode(std::unique_ptr<SyncApp> app,
                           std::uint64_t max_rounds, BetaWiring wiring)
    : app_(std::move(app)),
      max_rounds_(max_rounds),
      wiring_(std::move(wiring)) {
  ABE_CHECK(static_cast<bool>(app_));
  ABE_CHECK_GT(max_rounds, 0u);
}

void BetaSyncNode::on_start(Context& ctx) {
  app_ctx_ = SyncAppContext{static_cast<std::size_t>(ctx.self().value()),
                            ctx.out_degree(), ctx.in_degree(),
                            ctx.network_size(), &ctx.rng()};
  round_ = 1;
  safe_reported_ = false;
  children_safe_ = 0;
  auto msgs = app_->on_init(app_ctx_);
  unacked_ = msgs.size();
  for (auto& m : msgs) {
    ABE_CHECK_LT(m.out_index, ctx.out_degree());
    ABE_CHECK(static_cast<bool>(m.payload));
    ctx.send(m.out_index,
             std::make_unique<SyncEnvelope>(round_, std::move(m.payload)));
  }
  maybe_report_safe(ctx);
}

void BetaSyncNode::begin_round(Context& ctx, std::uint64_t round) {
  round_ = round;
  safe_reported_ = false;
  // SAFE/ACK cannot outrun our own round start (we forward GO before
  // beginning), so the counters start clean.
  children_safe_ = 0;
  auto msgs = std::move(pending_sends_);
  pending_sends_.clear();
  unacked_ = msgs.size();
  for (auto& m : msgs) {
    ctx.send(m.out_index,
             std::make_unique<SyncEnvelope>(round_, std::move(m.payload)));
  }
  // Buffered app messages that raced ahead of our GO.
  auto it = buffered_.find(round_);
  if (it != buffered_.end()) {
    for (auto& incoming : it->second) inbox_.push_back(std::move(incoming));
    buffered_.erase(it);
  }
  maybe_report_safe(ctx);
}

void BetaSyncNode::maybe_report_safe(Context& ctx) {
  if (finished_ || safe_reported_) return;
  if (unacked_ != 0) return;
  if (children_safe_ != wiring_.children_out.size()) return;
  safe_reported_ = true;
  if (wiring_.is_root) {
    advance(ctx);  // the whole tree is safe: move to the next round
  } else {
    ctx.send(wiring_.parent_out,
             std::make_unique<BetaControl>(BetaControl::Kind::kSafe, round_));
  }
}

void BetaSyncNode::advance(Context& ctx) {
  // Release the subtree first so deeper nodes overlap with our compute.
  const std::uint64_t next = round_ + 1;
  for (std::size_t out : wiring_.children_out) {
    ctx.send(out, std::make_unique<BetaControl>(BetaControl::Kind::kGo,
                                                next));
  }
  std::vector<SyncIncoming> inbox;
  inbox.swap(inbox_);
  auto msgs = app_->on_round(app_ctx_, round_, inbox);
  ++rounds_completed_;
  if (rounds_completed_ >= max_rounds_) {
    finished_ = true;
    return;
  }
  pending_sends_ = std::move(msgs);
  begin_round(ctx, next);
}

void BetaSyncNode::on_message(Context& ctx, std::size_t in_index,
                              const Payload& payload) {
  if (const auto* env = payload_cast<SyncEnvelope>(payload)) {
    // Ack on receipt, regardless of the round relationship: acks certify
    // delivery, which is all the sender's safety needs.
    ctx.send(wiring_.reverse_of_in[in_index],
             std::make_unique<BetaControl>(BetaControl::Kind::kAck,
                                           env->round()));
    if (!env->has_app()) return;
    if (env->round() == round_ && !finished_) {
      inbox_.push_back(SyncIncoming{in_index, env->app()});
    } else {
      ABE_CHECK_EQ(env->round(), round_ + 1)
          << "app message from an impossible round";
      buffered_[env->round()].push_back(SyncIncoming{in_index, env->app()});
    }
    return;
  }

  const auto& ctl = payload_as<BetaControl>(payload);
  switch (ctl.kind()) {
    case BetaControl::Kind::kAck:
      if (finished_) return;
      ABE_CHECK_EQ(ctl.round(), round_) << "stray ack";
      ABE_CHECK_GT(unacked_, 0u);
      --unacked_;
      maybe_report_safe(ctx);
      return;
    case BetaControl::Kind::kSafe:
      if (finished_) return;
      ABE_CHECK_EQ(ctl.round(), round_) << "SAFE outran its round";
      ++children_safe_;
      maybe_report_safe(ctx);
      return;
    case BetaControl::Kind::kGo:
      if (finished_) return;
      ABE_CHECK_EQ(ctl.round(), round_ + 1) << "GO for an impossible round";
      advance(ctx);
      return;
  }
}

std::string BetaSyncNode::state_string() const {
  std::ostringstream os;
  os << "beta r=" << round_ << (safe_reported_ ? " safe" : "")
     << (finished_ ? " done" : "");
  return os.str();
}

namespace {

class BetaSyncDriver final : public AlgorithmDriver {
 public:
  BetaSyncDriver(const SyncAppFactory& factory, std::uint64_t rounds,
                 BetaRunResult* sink)
      : factory_(factory), rounds_(rounds), sink_(sink) {
    ABE_CHECK(sink_ != nullptr);
    ABE_CHECK(static_cast<bool>(factory_));
  }

  void configure(RuntimeConfig& config) override {
    const SpanningTree tree = bfs_spanning_tree(config.topology, 0);
    wiring_ = build_beta_wiring(config.topology, tree);
  }

  NodePtr make_node(std::size_t index) override {
    return std::make_unique<BetaSyncNode>(factory_(index), rounds_,
                                          wiring_[index]);
  }

  bool done(const Runtime& rt) override {
    for (std::size_t i = 0; i < rt.size(); ++i) {
      if (!rt.terminated(i)) return false;
    }
    return true;
  }

  TrialOutcome extract(Runtime& rt, bool completed) override {
    const RunStats stats = rt.stats();
    sink_->completed = completed;
    sink_->rounds = rounds_;
    sink_->messages_total = stats.messages_sent;
    sink_->messages_per_round =
        static_cast<double>(sink_->messages_total) /
        static_cast<double>(rounds_);
    sink_->completion_time = rt.now();
    sink_->outputs.resize(rt.size());
    for (std::size_t i = 0; i < rt.size(); ++i) {
      sink_->outputs[i] =
          static_cast<const BetaSyncNode&>(rt.node(i).algorithm_node())
              .app()
              .output();
    }

    TrialOutcome out;
    out.completed = completed;
    // The synchronizer itself has no terminal safety predicate; what the
    // outputs must satisfy is the app's business (callers check them).
    out.safety_ok = completed;
    out.time = sink_->completion_time;
    out.messages = sink_->messages_total;
    return out;
  }

 private:
  const SyncAppFactory& factory_;
  std::uint64_t rounds_;
  BetaRunResult* sink_;
  std::vector<BetaWiring> wiring_;
};

}  // namespace

RuntimeConfig beta_runtime_config(const Topology& topology,
                                  const DelayModelPtr& delay,
                                  std::uint64_t seed, SimTime deadline,
                                  const BetaEnvironment& environment) {
  RuntimeConfig config;
  config.topology = topology;
  config.delay = delay;
  config.ordering = ChannelOrdering::kArbitrary;
  config.clock_bounds = environment.clock_bounds;
  config.drift = environment.drift;
  config.processing = environment.processing;
  config.loss_probability = environment.loss_probability;
  config.seed = seed;
  config.deadline = deadline;
  return config;
}

std::unique_ptr<AlgorithmDriver> make_beta_sync_driver(
    const SyncAppFactory& factory, std::uint64_t rounds,
    BetaRunResult* sink) {
  return std::make_unique<BetaSyncDriver>(factory, rounds, sink);
}

BetaRunResult run_beta_synchronizer(const Topology& topology,
                                    const SyncAppFactory& factory,
                                    std::uint64_t rounds,
                                    const DelayModelPtr& delay,
                                    std::uint64_t seed, SimTime deadline,
                                    const BetaEnvironment& environment) {
  BetaRunResult result;
  const auto driver = make_beta_sync_driver(factory, rounds, &result);
  run_algorithm_trial(
      RuntimeKind::kSim,
      beta_runtime_config(topology, delay, seed, deadline, environment),
      *driver);
  return result;
}

}  // namespace abe
