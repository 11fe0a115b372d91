// Event-scheduler ordering tests: unit behavior of the heap-backed
// Scheduler's pop order, and the randomized differential trace that pins
// its core contract — for the same schedule/cancel/run trace, the
// scheduler's 4-ary heap pops the bit-identical sequence that an
// independent std::map reference (reference_scheduler.h) does.
//
// The tier-1 differential here runs at n ≈ 4k live events; the n ≈ 10^5
// version (and the n = 10^4 scenario-level thread-count check) lives in
// test_equeue_stress.cpp under the `slow` label.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "reference_scheduler.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace abe {
namespace {

TEST(Equeue, PopsInKeyOrderWithFifoTies) {
  Scheduler s;
  std::vector<int> ran;
  // Three distinct times, each with three FIFO-tied events.
  int tag = 0;
  for (double t : {5.0, 1.0, 3.0}) {
    for (int i = 0; i < 3; ++i) {
      s.schedule_at(t, [&ran, tag] { ran.push_back(tag); });
      ++tag;
    }
  }
  ASSERT_EQ(s.live_count(), 9u);
  s.run();
  EXPECT_EQ(ran, (std::vector<int>{3, 4, 5, 6, 7, 8, 0, 1, 2}));
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.next_event_time(), kTimeInfinity);
}

TEST(Equeue, PeekMatchesPopAndEraseRemoves) {
  Scheduler s;
  std::vector<int> ran;
  EXPECT_EQ(s.live_count(), 0u);
  s.schedule_at(2.0, [&ran] { ran.push_back(10); });
  const EventId earliest = s.schedule_at(1.0, [&ran] { ran.push_back(20); });
  s.schedule_at(3.0, [&ran] { ran.push_back(30); });
  EXPECT_EQ(s.live_count(), 3u);
  EXPECT_EQ(s.next_event_time(), 1.0);
  EXPECT_TRUE(s.cancel(earliest));
  EXPECT_EQ(s.live_count(), 2u);
  EXPECT_EQ(s.next_event_time(), 2.0);
  EXPECT_EQ(s.run_steps(1), 1u);
  EXPECT_EQ(s.now(), 2.0);
  EXPECT_EQ(s.next_event_time(), 3.0);
  s.run();
  EXPECT_EQ(ran, (std::vector<int>{10, 30}));
}

TEST(Equeue, InfinityAndZeroTimesStayOrdered) {
  Scheduler s;
  std::vector<int> ran;
  int tag = 0;
  for (double t : {kTimeInfinity, 0.0, 1e300, kTimeInfinity}) {
    s.schedule_at(t, [&ran, tag] { ran.push_back(tag); });
    ++tag;
  }
  s.run();
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 0, 3}));
  EXPECT_EQ(s.now(), kTimeInfinity);
}

// --- randomized differential trace -----------------------------------------

// One trace event: (time, tag) in execution order.
using Trace = std::vector<std::pair<double, int>>;

// Drives `s` (the Scheduler or the ReferenceScheduler) through a
// deterministic pseudo-random schedule/cancel/run trace (seeded by `seed`)
// and records every executed action. The trace covers:
// schedule_at/schedule_in (with time clusters, exact ties, lattice times,
// heavy tails), direct cancels, cancels of stale ids (already run /
// already cancelled), run_steps, run_until with request_stop fired from
// inside actions, and a final drain.
template <class Sched>
Trace drive(Sched& s, std::uint64_t seed, int rounds, int target_live) {
  Trace trace;
  Rng rng(seed);
  std::vector<EventId> handles;   // mix of live and stale handles
  std::vector<EventId> retired;   // known-stale (cancelled or likely run)
  int tag = 0;

  const auto schedule_one = [&] {
    const double r = rng.uniform01();
    double t;
    if (r < 0.35) {
      t = s.now() + rng.exponential(1.0);
    } else if (r < 0.5) {
      t = s.now() + rng.uniform01() * 100.0;
    } else if (r < 0.6) {
      t = s.now();  // simultaneous with the current instant
    } else if (r < 0.7) {
      t = s.now() + 10.0 + rng.uniform01() * 1e-7;  // tight cluster
    } else if (r < 0.8) {
      t = s.now() + static_cast<double>(1 + rng.uniform_int(5));  // lattice
    } else if (r < 0.9) {
      t = s.now() + rng.exponential(1.0) * 1000.0;  // far tail
    } else {
      t = s.now() + 0.25 * static_cast<double>(rng.uniform_int(4));
    }
    const int this_tag = tag++;
    const bool stopper = rng.bernoulli(0.02);
    handles.push_back(s.schedule_at(t, [&trace, &s, this_tag, stopper] {
      trace.emplace_back(s.now(), this_tag);
      if (stopper) s.request_stop();
    }));
  };

  for (int round = 0; round < rounds; ++round) {
    const int burst = 1 + static_cast<int>(rng.uniform_int(
                              static_cast<std::size_t>(target_live / 8)));
    for (int i = 0; i < burst && s.live_count() <
                                     static_cast<std::uint64_t>(target_live);
         ++i) {
      schedule_one();
    }
    // Cancels: a mix of live, already-cancelled and already-run handles.
    const int cancels = static_cast<int>(rng.uniform_int(8));
    for (int i = 0; i < cancels && !handles.empty(); ++i) {
      const std::size_t pick = rng.uniform_int(handles.size());
      if (s.cancel(handles[pick])) {
        retired.push_back(handles[pick]);
      }
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (!retired.empty() && rng.bernoulli(0.5)) {
      // Stale-handle cancels must be rejected (and must not disturb state).
      const std::size_t pick = rng.uniform_int(retired.size());
      EXPECT_FALSE(s.cancel(retired[pick]));
    }
    // Run: steps or a deadline window (which exercises peek-then-pop and
    // the request_stop/run_until interleaving semantics).
    if (rng.bernoulli(0.5)) {
      s.run_steps(1 + rng.uniform_int(16));
    } else {
      s.run_until(s.now() + rng.uniform01() * 10.0);
    }
  }
  s.run();  // drain
  return trace;
}

// The two backends compared are the scheduler's heap and the std::map
// reference; each seed must produce the identical (time, tag) sequence.
TEST(EqueueDifferential, IdenticalTraceAcrossAllBackends) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    ReferenceScheduler oracle;
    const Trace reference = drive(oracle, seed, /*rounds=*/300,
                                  /*target_live=*/4096);
    ASSERT_FALSE(reference.empty());
    // Times must be nondecreasing (sanity of the reference itself).
    for (std::size_t i = 1; i < reference.size(); ++i) {
      ASSERT_GE(reference[i].first, reference[i - 1].first);
    }
    Scheduler s;
    const Trace got = drive(s, seed, 300, 4096);
    ASSERT_EQ(got.size(), reference.size()) << "seed " << seed;
    EXPECT_TRUE(got == reference)
        << "seed " << seed << ": pop sequence diverged from the reference";
  }
}

}  // namespace
}  // namespace abe
