// Failure injection: what happens when the ABE assumptions are *broken*.
//
// The ABE model (like the asynchronous model) requires that every message
// is eventually delivered. These tests knock that pillar out on purpose —
// messages silently dropped with probability q — and check that the failure
// mode is the theoretically expected one: SAFETY survives (never two
// leaders; hop = n still certifies n−1 passives) while LIVENESS dies with
// positive probability (the winning token can vanish, leaving one eternal
// active candidate and a passive ring). This is evidence the implementation
// fails the way the theory says it must, not arbitrarily.
#include <gtest/gtest.h>

#include "core/election.h"
#include "core/invariants.h"
#include "net/network.h"
#include "net/topology.h"

namespace abe {
namespace {

struct LossyOutcome {
  bool elected = false;
  bool safety_ok = true;
  std::size_t leaders = 0;
};

LossyOutcome run_lossy_election(std::size_t n, double loss,
                                std::uint64_t seed, SimTime horizon) {
  RuntimeConfig config;
  config.topology = unidirectional_ring(n);
  config.delay = exponential_delay(1.0);
  config.enable_ticks = true;
  config.loss_probability = loss;
  config.seed = seed;
  Network net(std::move(config));

  ElectionInvariantChecker checker(n);
  ElectionOptions options;
  options.a0 = linear_regime_a0(n, 4.0);
  options.observer = &checker;
  net.build_nodes([&](std::size_t) -> NodePtr {
    return std::make_unique<ElectionNode>(options);
  });
  net.start();
  const bool elected = net.run_until(
      [&] { return checker.leaders_now() > 0; }, horizon);
  // Run a little longer to catch any post-election violation.
  net.run_until([] { return false; }, net.now() + 50.0);

  LossyOutcome outcome;
  outcome.elected = elected;
  outcome.leaders = checker.leaders_now();
  // Note: token conservation intentionally NOT checked — loss breaks it by
  // design. Leader uniqueness and passive-absorption must still hold.
  outcome.safety_ok = checker.leaders_now() <= 1;
  for (const auto& v : checker.violations()) {
    if (v.find("two leaders") != std::string::npos ||
        v.find("left the passive") != std::string::npos ||
        v.find("left the leader") != std::string::npos) {
      outcome.safety_ok = false;
    }
  }
  return outcome;
}

TEST(FailureInjection, SafetySurvivesMessageLoss) {
  // Even at 30% silent loss, no run ever shows two leaders or a passive
  // resurrection.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto outcome = run_lossy_election(10, 0.3, seed, 5e4);
    EXPECT_TRUE(outcome.safety_ok) << "seed=" << seed;
    EXPECT_LE(outcome.leaders, 1u) << "seed=" << seed;
  }
}

TEST(FailureInjection, LivenessDegradesWithLoss) {
  // With heavy loss some runs must fail to elect within a generous horizon:
  // a dropped winning token leaves one active node waiting forever while
  // everyone else is passive. (The ABE/asynchronous delivery guarantee is
  // load-bearing, not decorative.)
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto outcome = run_lossy_election(8, 0.5, seed, 2e3);
    if (!outcome.elected) ++failures;
  }
  EXPECT_GT(failures, 0) << "expected at least one stalled election under "
                            "50% loss (deadlock after a dropped token)";
}

TEST(FailureInjection, NoLossNoFailures) {
  // Control: the identical configuration with loss = 0 always elects.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto outcome = run_lossy_election(8, 0.0, seed, 2e3);
    EXPECT_TRUE(outcome.elected) << "seed=" << seed;
    EXPECT_TRUE(outcome.safety_ok);
  }
}

// The model's own answer to loss: put the retransmission *inside* the
// channel (case iii) — the delay becomes unbounded-but-ABE and liveness
// returns. Loss handled at the right layer is not loss at all.
TEST(FailureInjection, RetransmissionChannelRestoresLiveness) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RuntimeConfig config;
    config.topology = unidirectional_ring(8);
    // Same 50% per-attempt loss, but modelled as geometric retransmission:
    // every message eventually arrives, mean delay 2 slots.
    config.delay = geometric_retransmission_delay(0.5, 1.0);
    config.enable_ticks = true;
    config.seed = seed;
    Network net(std::move(config));
    ElectionInvariantChecker checker(8);
    ElectionOptions options;
    options.a0 = linear_regime_a0(8, 4.0);
    options.observer = &checker;
    net.build_nodes([&](std::size_t) -> NodePtr {
      return std::make_unique<ElectionNode>(options);
    });
    net.start();
    const bool elected = net.run_until(
        [&] { return checker.leaders_now() > 0; }, 2e3);
    EXPECT_TRUE(elected) << "seed=" << seed;
    EXPECT_TRUE(checker.ok()) << checker.report();
  }
}

}  // namespace
}  // namespace abe
