// The ABE environment of one trial, declared once for every substrate.
//
// Definition 1 of the paper fixes one environment: channel delays with a
// known mean δ, clock rates within [s_low, s_high], and a processing time
// with a known expected bound γ. RuntimeConfig states that environment plus
// the trial's failure injection, ticks, seed and observability switches, and
// every substrate takes it as is: the discrete-event simulator
// (net/network.h) and the real-time network over its in-process or udp
// transport (runtime/thread_net.h). A few fields are read by one side only;
// their comments say which ("sim only", "real-time only", "udp only").
// validate() holds the one set of checks both substrates apply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "clock/local_clock.h"
#include "net/delay.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace abe {

// The substrate a trial runs on.
enum class RuntimeKind : std::uint8_t {
  kSim,     // discrete-event simulator (deterministic, any n)
  kThread,  // one OS thread per node, wall-clock delays (fidelity check)
  kUdp,     // real loopback UDP datagrams, measured delays (udp_transport.h)
};

const char* runtime_kind_name(RuntimeKind kind);
// Non-aborting parse of the names printed by runtime_kind_name; returns
// false on unknown input (the CLI validation boundary).
bool runtime_kind_from_name(const std::string& name, RuntimeKind* out);

// Node cap for the thread runtime: one OS thread per node.
constexpr std::size_t kMaxThreadRuntimeNodes = 256;

// Node cap for the udp runtime: one loopback socket (fd + ephemeral port)
// plus TWO OS threads (reader + dispatcher) per node, so its budget is
// tighter than the thread runtime's.
constexpr std::size_t kMaxUdpRuntimeNodes = 128;

// Delivery order within one channel.
enum class ChannelOrdering : std::uint8_t {
  kFifo,       // messages arrive in send order
  kArbitrary,  // independent delays; messages may overtake (paper's setting)
};

const char* channel_ordering_name(ChannelOrdering o);

// Initial phase of each node's tick train (see RuntimeConfig::tick_phase).
enum class TickPhase : std::uint8_t {
  kRandomPerNode,  // phase ~ U[0, tick_local_period) per node (asynchronous)
  kAligned,        // phase 0 everywhere (lockstep when clocks are ideal)
};

const char* tick_phase_name(TickPhase p);

// Definition 1(3): time a node is busy handling one delivered message.
struct ProcessingModel {
  enum class Kind : std::uint8_t { kZero, kFixed, kExponential };
  Kind kind = Kind::kZero;
  double mean = 0.0;

  double sample(Rng& rng) const;

  static ProcessingModel zero() { return {Kind::kZero, 0.0}; }
  static ProcessingModel fixed(double t) { return {Kind::kFixed, t}; }
  static ProcessingModel exponential(double mean) {
    return {Kind::kExponential, mean};
  }
};

struct RuntimeConfig {
  Topology topology;
  // Delay model of every channel (Definition 1(1)), in sim units; failure
  // degradation (FailureProfile::apply) is wrapped in before it gets here.
  // Unset means exponential with mean 1.
  DelayModelPtr delay;
  // When set, overrides `delay` for every channel: the adversary chooses
  // each message's delay (stateful, edge-aware) instead of sampling the
  // model. Build only via make_bounded_adversary (adversary/delay_policy.h),
  // which enforces the ABE empirical-mean bound per channel and synchronises
  // internally, since real-time nodes call it concurrently. nullptr keeps
  // the honest sampling path byte-for-byte.
  AdversaryPolicyPtr adversary_delay;
  // Sim only: FIFO channels clamp each arrival behind the previous one.
  ChannelOrdering ordering = ChannelOrdering::kArbitrary;
  // Clock-drift band (Definition 1(2)). kNone pins every rate to 1;
  // kFixedRandomRate draws one rate per node within the bounds;
  // kPiecewiseRandom re-draws it at random segment boundaries and is sim
  // only, since real-time clocks are scaled wall time.
  ClockBounds clock_bounds{};
  DriftModel drift = DriftModel::kNone;
  // Definition 1(3): handling a delivered message occupies the node (the
  // real-time dispatcher sleeps for the sampled time).
  ProcessingModel processing = ProcessingModel::zero();
  // Tick generation: each node has a train of local ticks, tick k due at
  // local time phase + k·tick_local_period. The simulator keeps at most one
  // pending tick event per node and fires only the ticks the node asks for
  // (Node::next_tick_of_interest); nodes that do not override that hook get
  // every tick. A node's train stops once it reports is_terminated() after
  // a tick. A skipped tick due at the very instant a message reaches its
  // node counts as elapsed; only such exact ties (kAligned phases with
  // lattice delays) can make sparse delivery differ from dense delivery.
  // The real-time dispatcher fires every tick.
  bool enable_ticks = false;
  double tick_local_period = 1.0;
  // Sim only. Nodes in an asynchronous network share no time origin, so by
  // default every node draws its tick phase uniformly in
  // [0, tick_local_period). kAligned pins all phases to 0: with ideal clocks
  // every node then ticks at the very same instants — a degenerate lockstep
  // regime the ABE model never promises. Under a fixed (ABD) delay that
  // regime makes symmetric election rounds self-repeat, so keep kAligned
  // only for tests that pin exact tick times.
  TickPhase tick_phase = TickPhase::kRandomPerNode;
  // Per-attempt silent drop (FailureProfile::channel_loss); plain ABE
  // networks keep it at 0, since the model requires delivery. Dropped sends
  // still count as sent, so sent - delivered - dropped is the in-flight
  // count on every substrate. A reliable udp cell draws the coin per
  // datagram attempt and retransmits, counting only give-ups as drops.
  double loss_probability = 0.0;
  // Root seed; all stochastic behaviour derives from it.
  std::uint64_t seed = 1;
  // Give up past this simulated time (real time: scaled to a wall budget
  // and clamped by wall_timeout_ms). Read by run_algorithm_trial.
  SimTime deadline = 1e7;
  // Full-detail tracing (payload strings in every record). The flight
  // recorder itself is always on at small capacity. See trace/trace.h.
  bool trace = false;
  // Extended metrics: delay histogram and per-channel counts on the
  // simulator, per-node handler time in real time. Recording consumes no
  // RNG and never reorders events, so flipping this cannot change any
  // seeded aggregate. Scenario sweeps turn it on.
  bool metrics = false;
  // Causal-history mode: widen the flight ring to full capacity while
  // keeping records lite (no detail strings), so critical-path chains
  // (obs/causal.h) reach back to their roots instead of truncating at 256
  // events. Same no-RNG/no-reorder contract as `metrics`.
  bool causal_history = false;
  // Sim only: sample load gauges (obs/timeseries.h) every this many units
  // of sim time; 0 disables. Real-time gauges would be wall-clock artefacts.
  double timeseries_interval = 0.0;
  // Real-time only: wall microseconds per sim unit.
  double time_scale_us = 200.0;
  // Real-time only: hard per-trial wall budget, counted from start().
  // run_until_done and drain share it (a stalled run cannot burn the full
  // budget twice); settle windows (run_for) are bounded sleeps on top.
  double wall_timeout_ms = 30000.0;
  // Udp only: the udp transport's own per-channel ARQ (sequence numbers,
  // ACKs, timeout retransmission, receiver dedup; runtime/udp_transport.h).
  // Injected loss then degrades goodput instead of dropping messages.
  bool udp_reliable = false;
};

// Checks `config` for a substrate of `kind` and returns it normalised: an
// unset delay becomes exponential with mean 1, and udp_reliable is cleared
// unless `kind` is kUdp. Aborts on a config no substrate of `kind` can
// realise (the real-time kinds reject piecewise drift and node counts past
// their caps); gate user input with runtime_cell_problem
// (scenario/scenario.h) first.
RuntimeConfig validate(RuntimeKind kind, RuntimeConfig config);

}  // namespace abe
