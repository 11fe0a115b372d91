// The real-time network: one dispatcher thread per node, blocking
// mailboxes, wall-clock delays. This is the substrate behind ThreadRuntime —
// the real-time half of the unified Runtime contract (runtime/runtime.h),
// serving both RuntimeKind::kThread and RuntimeKind::kUdp. It takes the same
// RuntimeConfig as the simulator (net/runtime_config.h), and algorithm code
// reaches it through the same Node/Context interface, so the exact same node
// objects run on every substrate.
//
// One simulated time unit maps to `time_scale_us` microseconds of wall
// time; channel delays are sampled from the same DelayModel and realised by
// due-time enqueueing. Local clocks are wall clocks scaled by a per-node
// fixed drift rate within the configured bounds — an honest (if
// small-scale) physical realisation of the ABE model, used as a fidelity
// check on the simulator's conclusions. Failure injection mirrors the
// simulator: per-attempt silent loss (`loss_probability`, drops counted in
// messages_dropped()) and congestion-degraded delays (wrap the DelayModel
// with FailureProfile::apply before handing it in). Definition 1(3)
// processing time is realised literally: the node's thread sleeps for the
// sampled handling time before processing a delivered message. The
// simulator-only fields (ordering, tick_phase, timeseries_interval) are
// ignored.
//
// How a sent message reaches its receiver's mailbox is the one thing the
// two real-time kinds do differently, so it sits behind a Transport seam
// under the shared dispatcher:
//   - kThread pushes the due-time item straight into the receiver's
//     mailbox;
//   - kUdp carries every message as a real loopback datagram with a
//     measured transit and an optional per-channel ARQ
//     (runtime/udp_transport.h).
// The kind also names the substrate in RNG substreams ("thread-node" /
// "udp-node"), metric rows ("thread.*" / "udp.*") and check messages
// ("thread runtime" / "udp runtime"). Everything else — config validation,
// the Context, the dispatcher and its tick train, trace stamping, the net.*
// counters, quiescence and stop ordering — exists once, here.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "clock/local_clock.h"
#include "net/delay.h"
#include "net/node.h"
#include "net/runtime_config.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "runtime/mailbox.h"
#include "trace/trace.h"
#include "util/thread_annotations.h"

namespace abe {

class ThreadNetwork {
 public:
  // `kind` is kThread or kUdp; it picks the transport.
  ThreadNetwork(RuntimeKind kind, RuntimeConfig config);
  ~ThreadNetwork();
  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  // Installs nodes (same contract as Network).
  void add_node(NodePtr node);
  void build_nodes(const std::function<NodePtr(std::size_t)>& factory);

  // Starts the transport (udp: one reader thread per node), then spawns the
  // dispatcher threads and delivers on_start on each node's dispatcher.
  void start();

  // Blocks until `pred()` holds or the wall timeout expires, and returns
  // whether pred() held. The predicate is re-evaluated on every node-event
  // completion via condition-variable notification (no busy polling), so a
  // satisfied predicate returns promptly. It runs concurrently with node
  // threads and must only read atomics (terminated(i), the message
  // counters, or caller-owned atomic observers).
  bool wait_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout) EXCLUDES(progress_mutex_);

  // Blocks until no message is in flight or being handled (quiescence for
  // message-driven protocols; meaningless with tick generators or live
  // timers) or the wall timeout expires. Returns whether quiescence held.
  // An unACKed reliable message keeps sent > delivered + dropped until it
  // is handled or given up, so the udp ARQ needs no extra clause.
  bool wait_quiescent(std::chrono::milliseconds timeout);

  // Stops the transport (udp: shuts each socket's read side, which wakes
  // its reader at once, and joins the readers), then closes all mailboxes
  // and joins the dispatchers. Idempotent; also runs on destruction.
  void stop();

  std::size_t size() const { return config_.topology.n; }
  RuntimeKind kind() const { return kind_; }
  // The validated environment (validate(), net/runtime_config.h).
  const RuntimeConfig& config() const { return config_; }
  // Only safe after stop(): node state is owned by its thread while running.
  Node& node(std::size_t i);
  // Race-free terminated flag, updated by the node's thread after each event.
  bool terminated(std::size_t i) const;

  std::uint64_t messages_sent() const { return messages_sent_.load(); }
  std::uint64_t messages_delivered() const {
    return messages_delivered_.load();
  }
  std::uint64_t messages_dropped() const { return messages_dropped_.load(); }
  std::uint64_t ticks_fired() const { return ticks_fired_.load(); }
  // Wall time since start(), in sim units.
  double now_sim() const;
  // The single monotonic-clock read start() took; ThreadRuntime derives
  // its wall deadline from it so budget arithmetic and now_sim() share one
  // origin (one clock read point per phase).
  MailItem::Clock::time_point start_time() const { return start_time_; }

  // Copy of the flight recorder (trace/trace.h): always-on ring of recent
  // events, stamped with mailbox DELIVERY time (now_sim() at pop), so the
  // transcript orders events the way the node experienced them, not the
  // way producers enqueued them. RuntimeConfig::trace switches it to the
  // full-detail ring the CrossRuntimeParity transcript checks read.
  Trace trace_copy() const EXCLUDES(trace_mutex_);

  // Deterministic-by-name harvest mirroring Network::metrics_snapshot():
  // net.* counters shared with the simulator plus per-transport rows —
  // thread.* / udp.* CV wakeups, mailbox high-water and (with
  // RuntimeConfig::metrics) per-node handler time, and on udp the
  // datagram/ack/retransmit counts, the measured udp.transit_us histogram
  // and, when reliable, arq.rtt. Values are wall-clock facts, so unlike
  // simulator snapshots they are not bit-reproducible across runs.
  MetricsSnapshot metrics_snapshot() const EXCLUDES(trace_mutex_);

 private:
  class ThreadContext;

  // The seam under the shared dispatcher: how a message that survived the
  // loss coin and got its delay reaches the receiver's mailbox.
  class Transport {
   public:
    virtual ~Transport() = default;
    // Before the dispatchers spawn (udp: spawns the readers).
    virtual void start() {}
    // Carries one message from `from` toward its receiver. Runs on the
    // sender's dispatcher thread; `item` carries everything but `due`.
    virtual void send(std::size_t from, std::size_t out_index,
                      MailItem item) = 0;
    // A kTransportTimerId item popped from `index`'s mailbox, on its
    // dispatcher thread.
    virtual void on_timer(std::size_t index, std::uint64_t tag) {
      (void)index;
      (void)tag;
    }
    // Stops and joins whatever the transport runs beside the dispatchers;
    // called before the mailboxes close, so nothing pushes after it.
    virtual void stop() {}
    // Adds the transport's own metric rows.
    virtual void add_metrics(MetricsSnapshot& snap) const { (void)snap; }
  };
  class InProcessTransport;
  class UdpTransport;  // runtime/udp_transport.cpp

  // Mailbox timer_id sentinels (user timers are nonnegative): the local
  // tick generator, and a transport's own timer (udp: ARQ retransmission),
  // which the dispatcher hands to Transport::on_timer.
  static constexpr std::int64_t kTickTimerId = -1;
  static constexpr std::int64_t kTransportTimerId = -2;

  struct Slot {
    NodePtr node;
    std::unique_ptr<Mailbox> mailbox;
    std::unique_ptr<ThreadContext> context;
    std::thread dispatcher;
    Rng rng;
    double clock_rate = 1.0;
    // Trace id of the event this node's thread is currently handling (-1
    // outside handlers). Like `rng`, touched only by the owning thread:
    // sends stamp it as their cause, pops overwrite it.
    std::int64_t current_cause = -1;
    std::atomic<bool> terminated{false};
    // Nanoseconds spent inside event handlers (metrics mode only). Written
    // by the owning node thread, read by metrics_snapshot().
    std::atomic<std::uint64_t> handler_ns{0};
  };

  static std::unique_ptr<Transport> make_udp_transport(ThreadNetwork& net);
  void dispatcher_main(std::size_t index);
  // The shared half of Context::send: SEND record, unreliable loss coin,
  // delay draw, then the transport.
  void send(std::size_t from, std::size_t out_index, PayloadPtr payload);
  // Wakes wait_until/wait_quiescent callers after a state change.
  void signal_progress() EXCLUDES(progress_mutex_);
  MailItem::Clock::time_point sim_to_wall(double sim_delay_from_now) const;
  // Appends to the flight recorder and returns the record's id; called
  // concurrently from node threads. `detail` is recorded only in full-trace
  // mode (or for kCustom, whose payload IS the string). `cause`/`delay`/
  // `work` mirror Trace::record (obs/causal.h attribution).
  std::int64_t record_trace(TraceKind kind, NodeId node, std::int64_t arg,
                            const std::string& detail = std::string(),
                            std::int64_t cause = -1, double delay = 0.0,
                            double work = 0.0) EXCLUDES(trace_mutex_);
  // "edge=N <payload>" in full-trace mode, empty otherwise — so lite-mode
  // sends never pay for string formatting.
  std::string trace_detail(const Payload& payload, std::size_t edge) const;

  RuntimeKind kind_;
  RuntimeConfig config_;
  Rng root_rng_;
  std::vector<Slot> slots_;
  std::vector<std::vector<std::size_t>> out_channels_;
  std::vector<std::vector<std::size_t>> in_channels_;
  std::vector<std::size_t> in_index_of_edge_;
  std::unique_ptr<Transport> transport_;
  std::size_t installed_ = 0;  // nodes added so far: the next free slot
  MailItem::Clock::time_point start_time_{};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_delivered_{0};
  std::atomic<std::uint64_t> messages_dropped_{0};
  std::atomic<std::uint64_t> ticks_fired_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> cv_wakeups_{0};
  // Nodes currently inside an event handler; part of the quiescence
  // condition (a handler may still send).
  std::atomic<std::uint64_t> active_handlers_{0};
  // Nodes whose on_start has completed; quiescence is meaningless before
  // every node came up (a fresh network has sent nothing yet).
  std::atomic<std::size_t> nodes_started_{0};
  std::atomic<std::int64_t> next_timer_id_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  // Pure wakeup fence: no field is guarded by it — waiter predicates read
  // only the atomics above — so its whole job is the missed-wakeup pairing
  // in signal_progress()/wait_until(). The EXCLUDES contracts on those two
  // are what -Wthread-safety checks here.
  mutable AnnotatedMutex progress_mutex_;
  AnnotatedCondVar progress_cv_;
  // Flight recorder, shared by all node threads. Separate mutex from the
  // progress fence: trace records happen on every event, progress waits
  // only at the run boundary, and the two must not contend.
  mutable AnnotatedMutex trace_mutex_;
  Trace trace_ GUARDED_BY(trace_mutex_);
};

}  // namespace abe
