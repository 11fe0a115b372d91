#include "net/runtime_config.h"

#include <utility>

#include "util/check.h"

namespace abe {

const char* runtime_kind_name(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::kSim:
      return "sim";
    case RuntimeKind::kThread:
      return "thread";
    case RuntimeKind::kUdp:
      return "udp";
  }
  return "?";
}

bool runtime_kind_from_name(const std::string& name, RuntimeKind* out) {
  for (RuntimeKind kind :
       {RuntimeKind::kSim, RuntimeKind::kThread, RuntimeKind::kUdp}) {
    if (name == runtime_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const char* channel_ordering_name(ChannelOrdering o) {
  switch (o) {
    case ChannelOrdering::kFifo:
      return "fifo";
    case ChannelOrdering::kArbitrary:
      return "arbitrary";
  }
  return "?";
}

const char* tick_phase_name(TickPhase p) {
  switch (p) {
    case TickPhase::kRandomPerNode:
      return "random";
    case TickPhase::kAligned:
      return "aligned";
  }
  return "?";
}

double ProcessingModel::sample(Rng& rng) const {
  switch (kind) {
    case Kind::kZero:
      return 0.0;
    case Kind::kFixed:
      return mean;
    case Kind::kExponential:
      return mean > 0.0 ? rng.exponential(mean) : 0.0;
  }
  return 0.0;
}

RuntimeConfig validate(RuntimeKind kind, RuntimeConfig config) {
  validate_topology(config.topology);
  config.clock_bounds.validate();
  if (!config.delay) config.delay = exponential_delay(1.0);
  ABE_CHECK_GE(config.loss_probability, 0.0);
  ABE_CHECK_LT(config.loss_probability, 1.0)
      << "loss probability 1 would never deliver";
  ABE_CHECK_GT(config.tick_local_period, 0.0);
  ABE_CHECK_GE(config.timeseries_interval, 0.0);
  if (kind == RuntimeKind::kSim) return config;

  const std::string name = runtime_kind_name(kind);
  if (kind == RuntimeKind::kUdp) {
    ABE_CHECK_LE(config.topology.n, kMaxUdpRuntimeNodes)
        << "udp runtime opens one loopback socket and two OS threads per "
           "node";
  } else {
    ABE_CHECK_LE(config.topology.n, kMaxThreadRuntimeNodes)
        << "thread runtime spawns one OS thread per node";
    config.udp_reliable = false;
  }
  ABE_CHECK_GT(config.time_scale_us, 0.0) << name << " runtime";
  ABE_CHECK_GT(config.wall_timeout_ms, 0.0) << name << " runtime";
  ABE_CHECK(config.drift != DriftModel::kPiecewiseRandom)
      << name
      << " runtime realises clocks as scaled wall time; only kNone and "
         "kFixedRandomRate are possible";
  return config;
}

}  // namespace abe
