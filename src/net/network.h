// The discrete-event network: the simulator substrate of the ABE model.
//
// A Network owns the scheduler, per-node drifting clocks, channels with
// stochastic delay, the per-event processing-delay model, and metrics. It
// takes the one environment struct every substrate shares, RuntimeConfig
// (net/runtime_config.h), and implements Definition 1 of the paper directly:
//   (1) channel delays come from a DelayModel whose mean is known (δ);
//   (2) each node's clock rate stays within [s_low, s_high];
//   (3) handling a delivered message occupies the node for a random
//       processing time with known expected bound (γ).
// Setting a FixedDelay model, ideal clocks, and zero processing recovers the
// classic ABD model; an exponential/Lomax delay gives a genuine ABE network
// where no worst-case delay bound exists. The real-time fields of the config
// (time_scale_us, wall_timeout_ms, udp_reliable) are ignored here.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "clock/local_clock.h"
#include "net/delay.h"
#include "net/node.h"
#include "net/runtime_config.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/scheduler.h"
#include "trace/trace.h"

namespace abe {

struct NetworkMetrics {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t ticks_fired = 0;
  std::uint64_t timers_fired = 0;
  double total_channel_delay = 0.0;  // summed over delivered messages
  double max_channel_delay = 0.0;
  std::vector<std::uint64_t> sent_by_node;
  std::vector<std::uint64_t> sent_by_channel;

  std::uint64_t in_flight() const {
    return messages_sent - messages_delivered - messages_dropped;
  }
  double mean_channel_delay() const {
    return messages_delivered == 0
               ? 0.0
               : total_channel_delay / static_cast<double>(messages_delivered);
  }
};

class Network {
 public:
  explicit Network(RuntimeConfig config);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- construction ---------------------------------------------------
  // Installs one node per topology slot, in index order.
  void add_node(NodePtr node);
  // Convenience: builds all n nodes from a factory.
  void build_nodes(const std::function<NodePtr(std::size_t)>& factory);
  // Overrides the delay model / loss probability of a single channel
  // (edge index into topology().edges). Must precede start().
  void set_channel_delay(std::size_t edge_index, DelayModelPtr delay);
  void set_channel_loss(std::size_t edge_index, double loss_probability);

  // Schedules on_start for every node (and first ticks). Requires exactly
  // topology.n nodes installed. Must be called exactly once.
  void start();

  // --- running ----------------------------------------------------------
  Scheduler& scheduler() { return scheduler_; }
  SimTime now() const { return scheduler_.now(); }

  // Runs until `pred()` holds (checked after every event), the scheduler
  // idles, or `deadline` passes. Returns true iff pred() held at exit.
  bool run_until(const std::function<bool()>& pred,
                 SimTime deadline = kTimeInfinity);

  // Runs until no events remain or `deadline` passes. With ticks enabled a
  // node on the dense train keeps the queue from ever draining, so a finite
  // deadline is required then.
  void run_until_quiescent(SimTime deadline = kTimeInfinity);

  // --- introspection ----------------------------------------------------
  std::size_t size() const { return config_.topology.n; }
  Node& node(std::size_t i);
  const Node& node(std::size_t i) const;
  const Topology& topology() const { return config_.topology; }
  const RuntimeConfig& config() const { return config_; }
  const NetworkMetrics& metrics() const { return metrics_; }
  LocalClock& clock(std::size_t i);
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }
  // Sampled load gauges (config.timeseries_interval > 0; empty otherwise).
  const TimeSeries& timeseries() const { return timeseries_; }

  // Extended observability, populated when config.metrics is on: delivered
  // and dropped counts per channel (edge index into topology().edges; empty
  // vectors when disabled). The seed-pinned lossy-ring regression in
  // tests/test_obs.cpp reads these directly.
  const std::vector<std::uint64_t>& delivered_by_channel() const {
    return delivered_by_channel_;
  }
  const std::vector<std::uint64_t>& dropped_by_channel() const {
    return dropped_by_channel_;
  }

  // Deterministic harvest of scheduler + network instruments, sorted by
  // metric name (obs/metrics.h). Always includes the always-on scalar
  // counters; the delay histogram and per-channel rollups appear only when
  // config.metrics is on.
  MetricsSnapshot metrics_snapshot() const;

  // The effective ABE parameter δ of this network: the max channel mean.
  double expected_delay_bound() const;

 private:
  class ContextImpl;
  struct ChannelState {
    DelayModelPtr delay;
    double loss_probability = 0.0;
    SimTime last_arrival = 0.0;  // FIFO floor
  };
  struct NodeSlot {
    NodePtr node;
    std::unique_ptr<ContextImpl> context;
    std::unique_ptr<LocalClock> clock;
    Rng rng;
    SimTime busy_until = 0.0;
    std::uint64_t ticks = 0;         // number of the last fired tick
    std::uint64_t pending_tick = 0;  // tick of tick_event; 0 when none
    EventId tick_event;
    double tick_phase = 0.0;  // local-time offset of the tick train
    bool ticking = false;
  };

  void send_from(std::size_t node_index, std::size_t out_index,
                 PayloadPtr payload);
  void deliver(std::size_t edge_index, std::shared_ptr<const Payload> payload,
               SimTime sent_at, std::int64_t send_id);
  // Local ticks of node `node_index` due at or before now(), exactly as the
  // dense train would have fired them (a pending tick due at now() has not).
  std::uint64_t ticks_elapsed(std::size_t node_index);
  // Asks the node for its next tick of interest after local tick `after`
  // and moves its pending tick event there, if the answer changed.
  void arm_tick(std::size_t node_index, std::uint64_t after);
  void sample_timeseries();
  TimerId set_timer(std::size_t node_index, double local_delay,
                    std::uint64_t tag);
  bool cancel_timer_impl(TimerId id);

  RuntimeConfig config_;
  Scheduler scheduler_;
  Rng root_rng_;
  Rng channel_rng_;
  Trace trace_;
  NetworkMetrics metrics_;
  // Extended observability state (config_.metrics only). The histogram
  // lives in the registry; the hot paths cache one raw pointer and pay a
  // single null test when metrics are off (the obs cost contract).
  MetricsRegistry registry_;
  FixedHistogram* delay_hist_ = nullptr;
  std::vector<std::uint64_t> delivered_by_channel_;
  std::vector<std::uint64_t> dropped_by_channel_;
  std::vector<NodeSlot> slots_;
  // Per-node processing-time streams (Definition 1(3)); empty when the
  // processing model is zero. Kept apart from the node streams so a node
  // drawing its coins ahead cannot shift the processing times.
  std::vector<Rng> processing_rngs_;
  std::vector<ChannelState> channels_;
  std::vector<std::vector<std::size_t>> out_channels_;  // node -> edge indices
  std::vector<std::vector<std::size_t>> in_channels_;
  std::vector<std::size_t> in_index_of_edge_;  // edge -> receiver's in-index
  // Causality: the trace id of the event whose handler is currently running
  // (-1 between handlers / inside on_start). Every record made from inside a
  // handler — sends, drops, scheduled timer/tick fires — links back to it.
  std::int64_t current_cause_ = -1;
  // Time-series sampling state: next sim-time grid point to sample.
  TimeSeries timeseries_;
  SimTime next_sample_ = 0.0;
  std::size_t installed_ = 0;  // nodes added so far: the next free slot
  bool started_ = false;
};

}  // namespace abe
