// Test-only oracle for the scheduler's pop order: the same public surface
// as abe::Scheduler, implemented as a std::map keyed on (time bits, seq)
// with a handle index for cancel. Slow and allocation-heavy on purpose —
// it shares no code with the 4-ary heap, so a differential trace between
// the two checks the heap against an independent definition of "pop in
// (time, insertion) order".
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <utility>

#include "sim/time.h"
#include "util/check.h"
#include "util/ids.h"

namespace abe {

class ReferenceScheduler {
 public:
  using Action = std::function<void()>;

  SimTime now() const { return now_; }

  EventId schedule_at(SimTime when, Action action) {
    ABE_CHECK_GE(when, now_);
    const Key key{time_bits(when), next_seq_};
    events_.emplace(key, std::move(action));
    handles_.emplace(next_seq_, key);
    return EventId{static_cast<std::int64_t>(next_seq_++)};
  }

  EventId schedule_in(SimTime delay, Action action) {
    ABE_CHECK_GE(delay, 0.0);
    return schedule_at(now_ + delay, std::move(action));
  }

  bool cancel(EventId id) {
    const auto it = handles_.find(static_cast<std::uint64_t>(id.value()));
    if (it == handles_.end()) return false;
    events_.erase(it->second);
    handles_.erase(it);
    return true;
  }

  std::uint64_t run() { return run_while([] { return true; }); }

  std::uint64_t run_steps(std::uint64_t max_events) {
    std::uint64_t left = max_events;
    return run_while([&left] { return left-- > 0; });
  }

  // Same contract as Scheduler::run_until: run everything at or before the
  // deadline, then jump to it unless a stop left such events pending.
  std::uint64_t run_until(SimTime deadline) {
    ABE_CHECK_GE(deadline, now_);
    const std::uint64_t limit = time_bits(deadline);
    const std::uint64_t n = run_while(
        [&] { return events_.begin()->first.first <= limit; });
    if (now_ < deadline &&
        (events_.empty() || events_.begin()->first.first > limit)) {
      now_ = deadline;
    }
    return n;
  }

  void request_stop() { stop_requested_ = true; }
  std::uint64_t live_count() const { return events_.size(); }

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (time bits, seq)

  // Non-negative doubles order like their bit patterns; -0.0 is folded
  // into +0.0 so it sorts first rather than after +inf.
  static std::uint64_t time_bits(SimTime t) {
    if (t == 0.0) return 0;
    std::uint64_t bits;
    std::memcpy(&bits, &t, sizeof(bits));
    return bits;
  }

  // Pops and runs the earliest event while `more()` holds, the queue is
  // non-empty and no stop was requested. `more` sees a non-empty queue.
  template <class More>
  std::uint64_t run_while(More more) {
    stop_requested_ = false;
    std::uint64_t n = 0;
    while (!stop_requested_ && !events_.empty() && more()) {
      const auto top = events_.begin();
      SimTime when;
      std::memcpy(&when, &top->first.first, sizeof(when));
      now_ = when;
      Action action = std::move(top->second);
      handles_.erase(top->first.second);
      events_.erase(top);
      action();
      ++n;
    }
    return n;
  }

  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  bool stop_requested_ = false;
  std::map<Key, Action> events_;
  std::map<std::uint64_t, Key> handles_;  // live handle (seq) -> key
};

}  // namespace abe
