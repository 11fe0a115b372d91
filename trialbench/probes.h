// Probes for the traced run: timing decorators around the Node, Context and
// DelayModel seams, plus process memory readings.
//
// The decorators observe without steering: they forward every call to the
// wrapped object unchanged, draw no randomness and schedule nothing, so a
// traced trial pops the same events in the same order as an untraced one.
// The benchmark checks that claim per seed (traced vs untraced outcomes
// must be bit-identical). Counters are relaxed atomics because the udp
// runtime calls handlers and delay sampling from node threads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "net/delay.h"
#include "net/node.h"

namespace trialbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Handler tallies, shared by every TimingNode of one traced pass.
struct HandlerCounters {
  std::atomic<std::uint64_t> tick_calls{0};
  std::atomic<std::uint64_t> tick_ns{0};
  // Ticks during which the node sent at least one message.
  std::atomic<std::uint64_t> tick_useful{0};
  std::atomic<std::uint64_t> msg_calls{0};
  std::atomic<std::uint64_t> msg_ns{0};
};

struct DelayCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};

// Forwards every Context call to the runtime's context and counts sends, so
// a tick handler's useful work is visible. Lives on the stack of one
// on_tick call.
class CountingContext final : public abe::Context {
 public:
  explicit CountingContext(abe::Context& inner) : inner_(inner) {}

  abe::NodeId self() const override { return inner_.self(); }
  std::size_t out_degree() const override { return inner_.out_degree(); }
  std::size_t in_degree() const override { return inner_.in_degree(); }
  std::size_t network_size() const override { return inner_.network_size(); }
  void send(std::size_t out_index, abe::PayloadPtr payload) override {
    ++sends_;
    inner_.send(out_index, std::move(payload));
  }
  double local_now() override { return inner_.local_now(); }
  abe::SimTime real_now() const override { return inner_.real_now(); }
  abe::TimerId set_timer_local(double local_delay,
                               std::uint64_t tag) override {
    return inner_.set_timer_local(local_delay, tag);
  }
  bool cancel_timer(abe::TimerId id) override {
    return inner_.cancel_timer(id);
  }
  abe::Rng& rng() override { return inner_.rng(); }
  void log(const std::string& detail) override { inner_.log(detail); }

  std::uint64_t sends() const { return sends_; }

 private:
  abe::Context& inner_;
  std::uint64_t sends_ = 0;
};

// Times on_tick / on_message around the wrapped algorithm node and counts
// the ticks that send. Result extraction sees through it via
// algorithm_node(), like FaultyNode.
class TimingNode final : public abe::Node {
 public:
  TimingNode(abe::NodePtr inner, HandlerCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  void on_start(abe::Context& ctx) override { inner_->on_start(ctx); }
  void on_message(abe::Context& ctx, std::size_t in_index,
                  const abe::Payload& payload) override {
    const std::int64_t t0 = now_ns();
    inner_->on_message(ctx, in_index, payload);
    add(counters_->msg_ns, now_ns() - t0);
    counters_->msg_calls.fetch_add(1, std::memory_order_relaxed);
  }
  void on_tick(abe::Context& ctx, std::uint64_t tick) override {
    CountingContext counted(ctx);
    const std::int64_t t0 = now_ns();
    inner_->on_tick(counted, tick);
    add(counters_->tick_ns, now_ns() - t0);
    counters_->tick_calls.fetch_add(1, std::memory_order_relaxed);
    if (counted.sends() > 0) {
      counters_->tick_useful.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void on_timer(abe::Context& ctx, abe::TimerId id,
                std::uint64_t tag) override {
    inner_->on_timer(ctx, id, tag);
  }
  std::string state_string() const override { return inner_->state_string(); }
  bool is_terminated() const override { return inner_->is_terminated(); }
  abe::Node& algorithm_node() override { return inner_->algorithm_node(); }
  const abe::Node& algorithm_node() const override {
    return inner_->algorithm_node();
  }

 private:
  static void add(std::atomic<std::uint64_t>& total, std::int64_t ns) {
    total.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
  }

  abe::NodePtr inner_;
  HandlerCounters* counters_;
};

// Times DelayModel::sample; every other query forwards.
class TimingDelay final : public abe::DelayModel {
 public:
  TimingDelay(abe::DelayModelPtr inner, DelayCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  double sample(abe::Rng& rng) const override {
    const std::int64_t t0 = now_ns();
    const double d = inner_->sample(rng);
    counters_->ns.fetch_add(static_cast<std::uint64_t>(now_ns() - t0),
                            std::memory_order_relaxed);
    counters_->calls.fetch_add(1, std::memory_order_relaxed);
    return d;
  }
  double mean_delay() const override { return inner_->mean_delay(); }
  bool bounded() const override { return inner_->bounded(); }
  double worst_case() const override { return inner_->worst_case(); }
  std::string name() const override { return inner_->name(); }

 private:
  abe::DelayModelPtr inner_;
  DelayCounters* counters_;
};

// Resident set size now, from /proc/self/statm (0 when unreadable).
std::int64_t rss_bytes();
// Bytes the allocator has handed out and not yet taken back (mallinfo2:
// arena chunks in use plus mmap'd chunks). Unlike RSS it does not hide
// allocations that reuse pages freed by an earlier trial.
std::int64_t heap_bytes();
// The process's peak RSS in MiB: VmHWM from /proc/self/status. (ru_maxrss
// survives execve, so it would report the launcher's RSS when that is
// larger.)
double peak_rss_mb();

}  // namespace trialbench
