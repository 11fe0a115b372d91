// Tests for the paper's closed-form quantities and the ABE parameter
// plumbing.
#include "core/analysis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/abe.h"
#include "core/election_variants.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/rng.h"

namespace abe {
namespace {

TEST(Analysis, ExpectedTransmissionsIsOneOverP) {
  EXPECT_DOUBLE_EQ(expected_transmissions(1.0), 1.0);
  EXPECT_DOUBLE_EQ(expected_transmissions(0.5), 2.0);
  EXPECT_DOUBLE_EQ(expected_transmissions(0.1), 10.0);
}

// The paper's series: k_avg = Σ (k+1)(1-p)^k p. Evaluate it numerically and
// confirm it telescopes to 1/p.
TEST(Analysis, SeriesMatchesClosedForm) {
  for (double p : {0.2, 0.5, 0.8}) {
    double series = 0.0;
    for (int k = 0; k < 2000; ++k) {
      series += (k + 1) * std::pow(1.0 - p, k) * p;
    }
    EXPECT_NEAR(series, expected_transmissions(p), 1e-9) << "p=" << p;
  }
}

TEST(Analysis, RetransmissionTailUnbounded) {
  // (1-p)^k > 0 for every k: no sure bound on the delay exists.
  for (std::uint64_t k : {0ull, 1ull, 10ull, 100ull}) {
    EXPECT_GT(retransmission_tail(0.5, k), 0.0);
  }
  EXPECT_DOUBLE_EQ(retransmission_tail(0.5, 3), 0.125);
  EXPECT_DOUBLE_EQ(retransmission_tail(1.0, 5), 0.0);
}

TEST(Analysis, ActivationProbabilityBasics) {
  EXPECT_DOUBLE_EQ(activation_probability(0.3, 1), 0.3);
  EXPECT_NEAR(activation_probability(0.3, 2), 1 - 0.49, 1e-12);
  // Monotone in d.
  double prev = 0.0;
  for (std::uint64_t d = 1; d <= 64; ++d) {
    const double p = activation_probability(0.2, d);
    EXPECT_GT(p, prev);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
}

// The design invariant the paper states: "the overall wake-up probability
// for all nodes stays constant over time". Whatever partition of the ring
// the gap counters describe, the combined activation probability equals
// 1 − (1−A0)^n.
TEST(Analysis, CombinedActivationInvariantUnderPartitions) {
  const double a0 = 0.25;
  const std::uint64_t n = 24;
  const std::vector<std::vector<std::uint64_t>> partitions = {
      std::vector<std::uint64_t>(24, 1),  // nobody knocked out
      {24},                               // one survivor
      {12, 12},
      {8, 8, 8},
      {1, 2, 3, 4, 5, 9},
      {23, 1},
  };
  const double expected = 1.0 - std::pow(1.0 - a0, static_cast<double>(n));
  for (const auto& gaps : partitions) {
    std::uint64_t total = 0;
    for (auto g : gaps) total += g;
    ASSERT_EQ(total, n);
    EXPECT_NEAR(
        combined_activation_probability(a0, gaps.data(), gaps.size()),
        expected, 1e-12);
  }
}

// Monte-Carlo cross-check of the invariant: simulate idle nodes with the
// given gaps flipping coins; the empirical at-least-one-activation rate
// matches 1 − (1−A0)^n.
TEST(Analysis, CombinedActivationMonteCarlo) {
  const double a0 = 0.15;
  const std::vector<std::uint64_t> gaps = {5, 3, 7, 1};  // n = 16
  Rng rng(77);
  const int kTrials = 200000;
  int any = 0;
  for (int t = 0; t < kTrials; ++t) {
    bool activated = false;
    for (auto g : gaps) {
      if (rng.bernoulli(activation_probability(a0, g))) activated = true;
    }
    any += activated ? 1 : 0;
  }
  const double expected =
      combined_activation_probability(a0, gaps.data(), gaps.size());
  EXPECT_NEAR(static_cast<double>(any) / kTrials, expected, 0.005);
}

TEST(Analysis, ExpectedTicksToActivation) {
  EXPECT_DOUBLE_EQ(expected_ticks_to_activation(0.5), 2.0);
  EXPECT_DOUBLE_EQ(expected_ticks_to_activation(1.0), 1.0);
}

TEST(Analysis, RetransmissionDelayScalesWithSlot) {
  EXPECT_DOUBLE_EQ(expected_retransmission_delay(0.25, 2.0), 8.0);
}

TEST(ActivationPolicy, NamesRoundTrip) {
  for (auto p : {ActivationPolicy::kAdaptive, ActivationPolicy::kConstant,
                 ActivationPolicy::kLinear}) {
    EXPECT_EQ(activation_policy_from_name(activation_policy_name(p)), p);
  }
  EXPECT_DEATH(activation_policy_from_name("bogus"), "unknown");
}

TEST(ActivationPolicy, PolicyValues) {
  EXPECT_DOUBLE_EQ(
      activation_probability_for(ActivationPolicy::kConstant, 0.3, 10), 0.3);
  EXPECT_DOUBLE_EQ(
      activation_probability_for(ActivationPolicy::kLinear, 0.3, 2), 0.6);
  EXPECT_DOUBLE_EQ(
      activation_probability_for(ActivationPolicy::kLinear, 0.3, 10), 1.0);
  EXPECT_NEAR(
      activation_probability_for(ActivationPolicy::kAdaptive, 0.3, 2),
      0.51, 1e-12);
}

TEST(AbeParams, ValidateAndPrint) {
  AbeParams params;
  params.delta = 2.0;
  params.clocks = {0.5, 2.0};
  params.gamma = 0.1;
  params.validate();
  const std::string s = params.to_string();
  EXPECT_NE(s.find("delta=2"), std::string::npos);
}

TEST(AbeParams, DerivedFromNetwork) {
  RuntimeConfig config;
  config.topology = unidirectional_ring(4);
  config.delay = exponential_delay(3.0);
  config.clock_bounds = {0.9, 1.1};
  config.processing = ProcessingModel::exponential(0.25);
  Network net(std::move(config));
  const AbeParams params = abe_params_of(net);
  EXPECT_DOUBLE_EQ(params.delta, 3.0);
  EXPECT_DOUBLE_EQ(params.clocks.s_low, 0.9);
  EXPECT_DOUBLE_EQ(params.gamma, 0.25);
  EXPECT_FALSE(is_abd(net));
}

TEST(AbeParams, AbdDetection) {
  RuntimeConfig config;
  config.topology = unidirectional_ring(4);
  config.delay = uniform_delay(0.5, 1.5);
  Network net(std::move(config));
  EXPECT_TRUE(is_abd(net));
}

}  // namespace
}  // namespace abe
