// Tests for the online invariant checker, and property runs that use it to
// certify the election's internal lemmas during (not just after) execution.
#include "core/invariants.h"

#include <gtest/gtest.h>

#include "core/harness.h"
#include "net/network.h"
#include "net/topology.h"

namespace abe {
namespace {

TEST(InvariantChecker, AcceptsLegalHistory) {
  ElectionInvariantChecker checker(3);
  checker.on_state_change(NodeId{0}, ElectionState::kIdle,
                          ElectionState::kActive, 1.0);
  checker.on_state_change(NodeId{1}, ElectionState::kIdle,
                          ElectionState::kPassive, 2.0);
  checker.on_state_change(NodeId{2}, ElectionState::kIdle,
                          ElectionState::kPassive, 3.0);
  checker.on_state_change(NodeId{0}, ElectionState::kActive,
                          ElectionState::kLeader, 4.0);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(checker.leaders_now(), 1u);
  EXPECT_EQ(checker.passives_now(), 2u);
}

TEST(InvariantChecker, FlagsSecondLeader) {
  ElectionInvariantChecker checker(3);
  checker.on_state_change(NodeId{1}, ElectionState::kIdle,
                          ElectionState::kPassive, 0.5);
  checker.on_state_change(NodeId{2}, ElectionState::kIdle,
                          ElectionState::kPassive, 0.6);
  checker.on_state_change(NodeId{0}, ElectionState::kIdle,
                          ElectionState::kLeader, 1.0);
  EXPECT_TRUE(checker.ok()) << checker.report();
  // A passive node usurping the crown trips both I1 and I2.
  checker.on_state_change(NodeId{1}, ElectionState::kPassive,
                          ElectionState::kLeader, 2.0);
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().find("two leaders"), std::string::npos);
}

TEST(InvariantChecker, FlagsPassiveResurrection) {
  ElectionInvariantChecker checker(2);
  checker.on_state_change(NodeId{0}, ElectionState::kIdle,
                          ElectionState::kPassive, 1.0);
  checker.on_state_change(NodeId{0}, ElectionState::kPassive,
                          ElectionState::kActive, 2.0);
  EXPECT_FALSE(checker.ok());
}

TEST(InvariantChecker, FlagsInconsistentFromState) {
  ElectionInvariantChecker checker(2);
  // Node 0 is idle, but the transition claims it was active.
  checker.on_state_change(NodeId{0}, ElectionState::kActive,
                          ElectionState::kIdle, 1.0);
  EXPECT_FALSE(checker.ok());
}

TEST(InvariantChecker, FlagsEarlyLeader) {
  ElectionInvariantChecker checker(3);
  // Leader with only 1 of 2 required passives.
  checker.on_state_change(NodeId{1}, ElectionState::kIdle,
                          ElectionState::kPassive, 1.0);
  checker.on_state_change(NodeId{0}, ElectionState::kIdle,
                          ElectionState::kLeader, 2.0);
  EXPECT_FALSE(checker.ok());
}

TEST(InvariantChecker, TokenConservation) {
  ElectionInvariantChecker checker(2);
  checker.check_token_conservation(/*minted=*/5, /*retired=*/5,
                                   /*in_flight=*/0);
  EXPECT_TRUE(checker.ok()) << checker.report();
  checker.check_token_conservation(5, 3, 1);  // 5 != 3 + 1
  EXPECT_FALSE(checker.ok());
}

// ---------------------------------------------------------------------
// The real use: wire the checker into live elections and let it watch
// every transition across seeds, delay laws and policies.

void run_checked_election(std::size_t n, const char* delay,
                          ActivationPolicy policy, std::uint64_t seed) {
  RuntimeConfig config;
  config.topology = unidirectional_ring(n);
  config.delay = make_delay_model(delay, 1.0);
  config.enable_ticks = true;
  config.seed = seed;
  Network net(std::move(config));

  ElectionInvariantChecker checker(n);
  ElectionOptions options;
  options.a0 = linear_regime_a0(n, 6.0);  // hot enough to create knockouts
  options.policy = policy;
  options.observer = &checker;
  net.build_nodes([&](std::size_t) -> NodePtr {
    return std::make_unique<ElectionNode>(options);
  });
  net.start();
  const bool elected = net.run_until(
      [&] { return checker.leaders_now() > 0; }, 1e7);
  ASSERT_TRUE(elected) << "n=" << n << " delay=" << delay;

  std::uint64_t minted = 0, retired = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node = static_cast<const ElectionNode&>(net.node(i));
    minted += node.activations();
    retired += node.purges();
  }
  checker.check_token_conservation(minted, retired,
                                   net.metrics().in_flight());
  EXPECT_TRUE(checker.ok())
      << "n=" << n << " delay=" << delay << " seed=" << seed << "\n"
      << checker.report();
}

TEST(ElectionInvariants, HoldOnlineAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_checked_election(12, "exponential", ActivationPolicy::kAdaptive,
                         seed);
  }
}

TEST(ElectionInvariants, HoldOnlineAcrossDelayLaws) {
  for (const char* delay : {"fixed", "uniform", "lomax", "georetx"}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      run_checked_election(10, delay, ActivationPolicy::kAdaptive, seed);
    }
  }
}

TEST(ElectionInvariants, HoldOnlineForAblationPolicies) {
  for (ActivationPolicy policy :
       {ActivationPolicy::kConstant, ActivationPolicy::kLinear}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      run_checked_election(10, "exponential", policy, seed);
    }
  }
}

TEST(ElectionInvariants, HoldOnLargerRing) {
  run_checked_election(64, "exponential", ActivationPolicy::kAdaptive, 7);
}

}  // namespace
}  // namespace abe
