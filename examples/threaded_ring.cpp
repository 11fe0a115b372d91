// Real threads, real queues: the election outside the simulator.
//
//   ./threaded_ring --n 12 --a0 0.05 --scale-us 200 --loss 0.01
//
// Spawns one OS thread per node with blocking mailboxes; channel delays are
// realised as wall-clock due times sampled from the same exponential model.
// The identical ElectionNode code that runs on the discrete-event simulator
// runs here unchanged — a fidelity check that nothing in the results depends
// on simulator artefacts. The run is the unified Runtime contract: the
// ring-election AlgorithmDriver (core/harness.h) executed by ThreadRuntime
// (runtime/runtime.h), with optional failure injection (--loss) that the
// thread runtime honors and counts.
#include <cstdio>
#include <utility>

#include "core/election.h"
#include "core/harness.h"
#include "runtime/runtime.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  abe::CliFlags flags(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.get_int("n", 12));
  const double a0 = flags.get_double("a0", abe::linear_regime_a0(12, 8.0));
  const double scale_us = flags.get_double("scale-us", 200.0);
  const double loss = flags.get_double("loss", 0.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));

  if (n > abe::kMaxThreadRuntimeNodes) {
    std::fprintf(stderr, "one OS thread per node; max n is %zu\n",
                 abe::kMaxThreadRuntimeNodes);
    return 2;
  }
  if (loss < 0.0 || loss >= 1.0) {
    std::fprintf(stderr, "--loss must be in [0, 1)\n");
    return 2;
  }

  std::printf("threaded ABE ring: %zu OS threads, A0=%g, 1 sim unit = %.0f "
              "microseconds%s\n",
              n, a0, scale_us,
              loss > 0.0 ? " (lossy channels)" : "");

  abe::ElectionExperiment experiment;
  experiment.n = n;
  experiment.election.a0 = a0;
  experiment.drift = abe::DriftModel::kFixedRandomRate;
  experiment.loss_probability = loss;
  experiment.seed = seed;
  // A positive settle time realises ThreadRuntime::run_for's 100 ms floor:
  // the window in which a second leader would show.
  experiment.settle_time = 1.0;
  abe::RuntimeConfig config = abe::election_runtime_config(experiment);
  config.time_scale_us = scale_us;
  abe::ElectionRunResult result;
  const auto driver = abe::make_ring_election_driver(experiment, &result);
  abe::run_algorithm_trial(abe::RuntimeKind::kThread, std::move(config),
                           *driver);

  if (!result.elected) {
    std::printf("no leader within the wall-clock budget (%llu messages "
                "sent by ~t=%.1f)\n",
                static_cast<unsigned long long>(result.messages),
                result.election_time);
    return 1;
  }
  std::printf("leader: node %zu after ~%.1f sim units (wall time), "
              "%llu messages\n",
              result.leader_index, result.election_time,
              static_cast<unsigned long long>(result.messages_total));
  std::printf("safety: %s\n", result.safety_ok
                                  ? "exactly one leader, others passive"
                                  : "VIOLATED");
  return result.safety_ok ? 0 : 2;
}
