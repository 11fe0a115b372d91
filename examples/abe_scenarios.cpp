// abe_scenarios: the scenario-engine CLI.
//
//   abe_scenarios list                      # registered scenarios + sweeps
//   abe_scenarios describe <scenario>       # full spec of one scenario
//   abe_scenarios run <scenario> [flags]    # run one scenario's cell
//   abe_scenarios sweep [<sweep>] [flags]   # expand + run a scenario matrix
//   abe_scenarios replay <scenario> --seed N [flags]
//                                           # re-run ONE simulator trial with
//                                           # tracing on and print the full
//                                           # event trace — the tool for the
//                                           # violation_seeds a sweep captures
//   abe_scenarios report [<sweep-or-scenario>] [flags]
//                                           # run cells and print each cell's
//                                           # merged metrics snapshot + wall
//                                           # phase times (obs/metrics.h)
//   abe_scenarios trace <scenario> --seed N [--chrome PATH] [--jsonl PATH]
//                                           # replay ONE simulator trial and
//                                           # export the flight recorder as
//                                           # Chrome trace JSON (load in
//                                           # chrome://tracing / Perfetto;
//                                           # causal links become flow
//                                           # arrows) or JSONL; no export
//                                           # flag prints the text transcript
//   abe_scenarios critical-path [<sweep-or-scenario>] [flags]
//                                           # run cells with causal history
//                                           # on and print each cell's
//                                           # critical-path profile
//                                           # (obs/causal.h) — chain length,
//                                           # delay/processing/queueing/
//                                           # waiting attribution, heaviest
//                                           # channels — plus the worst
//                                           # trial's full hop-by-hop chain;
//                                           # --timeseries I additionally
//                                           # samples queue gauges every I
//                                           # sim-time units into the JSON
//
// Common flags:
//   --trials N    trials per cell (default: the spec's default_trials)
//   --seed N      seed base (default 1; trials use seed, seed+1, …)
//   --threads N   trial-pool width (default: ABE_TRIAL_THREADS or serial)
//   --runtime R   execution substrate (sim|thread|udp) for cells that do
//                 not pin one. `thread` runs one OS thread per node with
//                 wall-clock delays — a fidelity check on the simulator;
//                 `udp` additionally makes every message a real loopback
//                 datagram (one socket per node) and measures transit
//                 delay instead of simulating it. Cells a wall-clock
//                 runtime cannot realise (piecewise drift, n > 256
//                 threads / n > 128 sockets) are rejected up front, and
//                 wall-clock results are nondeterministic by design.
//   --arq         udp cells only (run/replay): layer the net/arq.h
//                 retransmission protocol per channel (ACKs, seq dedup,
//                 bounded retries) so lossy cells still deliver exactly
//                 once; adds "/arq" to the cell id
//   --json PATH   also write the structured sweep JSON ("-" for stdout)
//   --n N         override the topology size (run/replay only)
//   --delay NAME --mean M   override the delay model (run/replay only)
//   --failure F   failure profile (none | loss-<p> | degrade-<q>x<f>),
//                 round-trips with each cell's `failure` JSON field
//   --behavior B  node behavior profile (honest | crash-<c>@<T> |
//                 crash-rand-<c> | equivocate-<c> | reorder-<c>x<k>):
//                 wraps the top <c> node indices in the named fault
//                 (run/replay only; sweeps carry their own behavior axis)
//   --adversary A bounded-expected-delay adversary (none | targeted |
//                 burst-stall): maximises damage while keeping every
//                 channel's empirical mean delay within the model bound
//                 (run/replay only)
//
// Results are bit-identical for every --threads value (see
// src/scenario/sweep.h); the JSON carries the same provenance metadata as
// the BENCH_*.json perf trajectory.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "adversary/delay_policy.h"
#include "core/trial_pool.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "stats/table.h"
#include "trace/trace_export.h"
#include "util/cli.h"

// Provenance injected by abe_add_buildinfo (top-level CMakeLists); the
// fallbacks keep stray compilations working.
#ifdef ABE_BENCH_HAVE_SHA_HEADER
#include "abe_bench_git_sha.h"
#endif
#ifndef ABE_BENCH_GIT_SHA
#define ABE_BENCH_GIT_SHA "unknown"
#endif
#ifndef ABE_BENCH_COMPILER
#define ABE_BENCH_COMPILER "unknown"
#endif
#ifndef ABE_BENCH_BUILD_TYPE
#define ABE_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s describe <scenario>\n"
               "       %s run <scenario> [--trials N] [--seed N] "
               "[--threads N] [--n N] [--delay NAME] [--mean M] "
               "[--failure F] [--behavior B] [--adversary A] "
               "[--runtime R] [--arq] [--json PATH]\n"
               "       %s sweep [<sweep>] [--trials N] [--seed N] "
               "[--threads N] [--runtime R] [--json PATH]\n"
               "       %s replay <scenario> --seed N [--n N] [--delay NAME] "
               "[--mean M] [--failure F] [--behavior B] [--adversary A]\n"
               "       %s report [<sweep-or-scenario>] [--trials N] "
               "[--seed N] [--threads N] [--runtime R] [--json PATH]\n"
               "       %s trace <scenario> --seed N [--chrome PATH] "
               "[--jsonl PATH] [run overrides]\n"
               "       %s critical-path [<sweep-or-scenario>] [--trials N] "
               "[--seed N] [--threads N] [--timeseries I] "
               "[--json PATH]\n",
               program, program, program, program, program, program,
               program, program);
  return 2;
}

int cmd_list() {
  abe::Table scenarios({"scenario", "cell", "about"});
  for (const abe::ScenarioSpec& s : abe::scenario_registry()) {
    scenarios.add_row({s.name, s.cell_id(), s.description});
  }
  std::printf("%s\n", scenarios.render("registered scenarios").c_str());

  abe::Table sweeps({"sweep", "cells", "about"});
  for (const abe::ScenarioMatrix& m : abe::sweep_registry()) {
    sweeps.add_row({m.name, abe::Table::fmt_int(static_cast<std::int64_t>(
                                m.expand().size())),
                    m.description});
  }
  std::printf("%s\n", sweeps.render("registered sweeps").c_str());
  return 0;
}

int cmd_describe(const std::string& name) {
  const abe::ScenarioSpec* spec = abe::find_scenario(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try `list`)\n",
                 name.c_str());
    return 2;
  }
  std::printf("%s", spec->describe().c_str());
  return 0;
}

abe::SweepRunMetadata make_metadata(std::uint64_t trials,
                                    std::uint64_t seed_base,
                                    unsigned threads,
                                    abe::RuntimeKind runtime) {
  abe::SweepRunMetadata meta;
  meta.git_sha = ABE_BENCH_GIT_SHA;
  meta.compiler = ABE_BENCH_COMPILER;
  meta.build_type = ABE_BENCH_BUILD_TYPE;
  meta.runtime = abe::runtime_kind_name(runtime);
  meta.threads = abe::resolve_trial_threads(threads);
  meta.trials = trials;
  meta.seed_base = seed_base;
  return meta;
}

// Writes the sweep JSON to `path` ("-" = stdout). Returns false on I/O
// failure.
bool emit_json(const std::string& path, const abe::SweepRunMetadata& meta,
               const std::vector<abe::SweepCellOutcome>& outcomes) {
  if (path == "-") {
    abe::write_sweep_json(std::cout, meta, outcomes);
    return static_cast<bool>(std::cout);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  abe::write_sweep_json(out, meta, outcomes);
  out.flush();
  return static_cast<bool>(out);
}

// Aligned per-cell critical-path profile (the `critical-path` command):
// how many decided trials produced a chain, how many chains truncated at
// the flight ring, and the mean attribution of the chain's extent to the
// four components of obs/causal.h.
std::string render_critical_path_report(
    const std::vector<abe::SweepCellOutcome>& outcomes) {
  abe::Table table({"cell", "paths", "trunc", "hops", "span", "delay",
                    "proc", "queue", "wait", "worst-seed"});
  for (const abe::SweepCellOutcome& outcome : outcomes) {
    const abe::CriticalPathAggregate& cp = outcome.aggregate.critical_path;
    table.add_row(
        {outcome.spec.cell_id(),
         std::to_string(cp.found) + "/" + std::to_string(cp.considered),
         abe::Table::fmt_int(static_cast<std::int64_t>(cp.truncated)),
         abe::Table::fmt(cp.hops.mean(), 1),
         abe::Table::fmt(cp.span.mean(), 2),
         abe::Table::fmt(cp.channel_delay.mean(), 2),
         abe::Table::fmt(cp.processing.mean(), 2),
         abe::Table::fmt(cp.queueing.mean(), 2),
         abe::Table::fmt(cp.waiting.mean(), 2),
         cp.has_worst ? std::to_string(cp.worst_seed) : "-"});
  }
  return table.render("critical paths");
}

// Replays the single worst trial across all cells (largest critical-path
// span; replay is simulator-only, so thread cells are skipped) with full
// tracing and prints its hop-by-hop causal chain.
void dump_worst_chain(const std::vector<abe::SweepCellOutcome>& outcomes,
                      std::FILE* out) {
  const abe::SweepCellOutcome* worst = nullptr;
  for (const abe::SweepCellOutcome& outcome : outcomes) {
    if (outcome.spec.runtime != abe::RuntimeKind::kSim) continue;
    const abe::CriticalPathAggregate& cp = outcome.aggregate.critical_path;
    if (!cp.has_worst) continue;
    if (worst == nullptr ||
        cp.worst_span > worst->aggregate.critical_path.worst_span) {
      worst = &outcome;
    }
  }
  if (worst == nullptr) return;
  const abe::CriticalPathAggregate& cp = worst->aggregate.critical_path;

  abe::ScenarioSpec spec = worst->spec;
  spec.causal_history = true;
  abe::Trace recorder;
  const abe::TrialOutcome outcome =
      abe::replay_scenario_trial(spec, cp.worst_seed, &recorder);
  std::fprintf(out, "\nworst trial: %s seed %llu (span %.6g)\n",
               spec.cell_id().c_str(),
               static_cast<unsigned long long>(cp.worst_seed),
               cp.worst_span);
  if (!outcome.completed || outcome.decision_node < 0) {
    std::fprintf(out, "(replay did not reach a decision)\n");
    return;
  }
  const abe::CriticalPath path = abe::extract_critical_path(
      recorder.events(), abe::NodeId{outcome.decision_node}, outcome.time);
  std::fprintf(out, "%s", path.render().c_str());
}

// Shared tail of `run` and `sweep`: execute cells, print the table, emit
// JSON, and fail the process when any cell violated safety.
// `runtime_overridable` is false for sweeps whose matrix declares its own
// runtimes axis: those cells pinned a substrate on purpose, and a blanket
// --runtime would rewrite the sim-pinned half into duplicates of the
// thread-pinned half (cell ids must stay unique).
// `metrics_report` additionally prints each cell's merged metrics snapshot
// and wall-phase times (the `report` command); `critical_path_report`
// prints the per-cell critical-path profile and the worst trial's chain
// (the `critical-path` command).
int run_cells(std::vector<abe::ScenarioSpec> cells,
              const abe::CliFlags& flags, bool runtime_overridable = true,
              bool metrics_report = false,
              bool critical_path_report = false) {
  const std::int64_t trials_flag = flags.get_int("trials", 0);
  const std::int64_t seed_flag = flags.get_int("seed", 1);
  const std::int64_t threads_flag = flags.get_int("threads", 0);
  if (trials_flag < 0 || seed_flag < 0 || threads_flag < 0 ||
      threads_flag > 4096) {
    std::fprintf(stderr,
                 "--trials/--seed must be >= 0 and --threads in [0, 4096]\n");
    return 2;
  }
  const auto trials = static_cast<std::uint64_t>(trials_flag);
  const auto seed_base = static_cast<std::uint64_t>(seed_flag);
  const auto threads = static_cast<unsigned>(threads_flag);

  // --runtime applies to every cell that has not pinned a substrate itself
  // (a matrix runtimes axis keeps its pins so cell ids stay truthful).
  // Cells the selected runtime cannot realise are rejected before any
  // trial runs — each with its structural reason, mirroring `describe` —
  // and the sweep proceeds with the realisable remainder (an empty
  // remainder is an error).
  abe::RuntimeKind runtime = abe::RuntimeKind::kSim;
  if (flags.has("runtime")) {
    const std::string name = flags.get_string("runtime", "sim");
    if (!abe::runtime_kind_from_name(name, &runtime)) {
      std::fprintf(stderr, "unknown runtime '%s'; known: sim thread udp\n",
                   name.c_str());
      return 2;
    }
    if (!runtime_overridable) {
      std::fprintf(stderr,
                   "this sweep pins its own runtime axis; --runtime does "
                   "not apply\n");
      return 2;
    }
    for (abe::ScenarioSpec& cell : cells) {
      if (cell.runtime == abe::RuntimeKind::kSim) cell.runtime = runtime;
    }
  }
  {
    std::vector<abe::ScenarioSpec> realisable;
    realisable.reserve(cells.size());
    for (abe::ScenarioSpec& cell : cells) {
      const std::string problem = abe::runtime_cell_problem(cell);
      if (problem.empty()) {
        realisable.push_back(std::move(cell));
      } else {
        std::fprintf(stderr, "rejected %s: %s\n", cell.cell_id().c_str(),
                     problem.c_str());
      }
    }
    if (realisable.empty()) {
      std::fprintf(stderr,
                   "no cell can run on the requested runtime (see reasons "
                   "above; `describe` shows per-scenario compatibility)\n");
      return 2;
    }
    cells = std::move(realisable);
  }

  const auto outcomes = abe::run_sweep(
      cells, trials, seed_base, threads,
      [](std::size_t i, std::size_t total,
         const abe::SweepCellOutcome& outcome) {
        const auto& agg = outcome.aggregate;
        std::fprintf(stderr, "[%zu/%zu] %s: %llu/%llu ok\n", i + 1, total,
                     outcome.spec.cell_id().c_str(),
                     static_cast<unsigned long long>(
                         agg.messages.count() - agg.safety_violations),
                     static_cast<unsigned long long>(agg.trials));
      });

  // With `--json -` stdout must stay a single parseable JSON document, so
  // the human-readable table moves to stderr next to the progress lines.
  const std::string json_path = flags.get_string("json", "");
  std::fprintf(json_path == "-" ? stderr : stdout, "%s\n",
               abe::render_sweep_table(outcomes).c_str());
  if (metrics_report) {
    std::fprintf(json_path == "-" ? stderr : stdout, "%s\n",
                 abe::render_metrics_report(outcomes).c_str());
  }
  if (critical_path_report) {
    std::FILE* out = json_path == "-" ? stderr : stdout;
    std::fprintf(out, "%s\n", render_critical_path_report(outcomes).c_str());
    dump_worst_chain(outcomes, out);
  }
  if (!json_path.empty() &&
      !emit_json(json_path,
                 make_metadata(trials, seed_base, threads, runtime),
                 outcomes)) {
    return 2;
  }

  std::uint64_t unsafe = 0;
  for (const auto& outcome : outcomes) {
    unsafe += outcome.aggregate.safety_violations;
  }
  if (unsafe > 0) {
    std::fprintf(stderr, "%llu trial(s) violated safety\n",
                 static_cast<unsigned long long>(unsafe));
    return 1;
  }
  return 0;
}

// Applies the run/replay-only overrides (--n/--delay/--mean/--failure/
// --behavior/--adversary) to `spec`, validating every piece of user input
// before it can reach a library aborting check. Returns 0, or 2 with a
// message on stderr.
int apply_cell_overrides(abe::ScenarioSpec& spec, const std::string& name,
                         const abe::CliFlags& flags) {
  if (flags.has("n")) {
    const std::int64_t n =
        flags.get_int("n", static_cast<std::int64_t>(spec.topology.n));
    if (n < 1) {
      std::fprintf(stderr, "--n must be >= 1\n");
      return 2;
    }
    spec.topology.n = static_cast<std::size_t>(n);
  }
  // User input must not reach the library's aborting size checks.
  const std::string problem = spec.topology.problem();
  if (!problem.empty()) {
    std::fprintf(stderr, "invalid topology for '%s': %s\n", name.c_str(),
                 problem.c_str());
    return 2;
  }
  if (flags.has("delay")) {
    const std::string delay = flags.get_string("delay", spec.delay_name);
    const auto& known = abe::standard_delay_model_names();
    if (std::find(known.begin(), known.end(), delay) == known.end()) {
      std::fprintf(stderr, "unknown delay model '%s'; known:", delay.c_str());
      for (const auto& name : known) std::fprintf(stderr, " %s", name.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
    spec.delay_name = delay;
  }
  if (flags.has("mean")) {
    const double mean = flags.get_double("mean", spec.mean_delay);
    if (mean <= 0.0) {
      std::fprintf(stderr, "--mean must be > 0\n");
      return 2;
    }
    spec.mean_delay = mean;
  }
  if (flags.has("failure")) {
    const std::string failure = flags.get_string("failure", "none");
    if (!abe::FailureProfile::parse(failure, &spec.failure)) {
      std::fprintf(stderr,
                   "unknown failure profile '%s'; grammar: none | "
                   "loss-<p> | degrade-<q>x<f> (p, q in [0, 1]; f >= 1)\n",
                   failure.c_str());
      return 2;
    }
  }
  if (flags.has("behavior")) {
    const std::string behavior = flags.get_string("behavior", "honest");
    if (!abe::behavior_spec_from_name(behavior, &spec.behavior)) {
      std::fprintf(stderr,
                   "unknown behavior profile '%s'; grammar: honest | "
                   "crash-<c>@<T> | crash-rand-<c> | equivocate-<c> | "
                   "reorder-<c>x<k>\n",
                   behavior.c_str());
      return 2;
    }
  }
  if (flags.has("adversary")) {
    spec.adversary = flags.get_string("adversary", "");
    if (spec.adversary == "none") spec.adversary.clear();
  }
  // ARQ reliable mode is a udp-runtime realisation knob; it is harmless on
  // other substrates (ignored) but only meaningful with --runtime udp.
  if (flags.has("arq")) {
    spec.udp_reliable = flags.get_bool("arq", false);
  }
  // One structural gate for the whole adversarial axis: afflicted count vs
  // n, profile-vs-algorithm support, and the adversary policy name.
  const std::string adversarial_problem = abe::behavior_cell_problem(spec);
  if (!adversarial_problem.empty()) {
    std::fprintf(stderr, "invalid adversarial cell for '%s': %s\n",
                 name.c_str(), adversarial_problem.c_str());
    return 2;
  }
  return 0;
}

int cmd_run(const std::string& name, const abe::CliFlags& flags) {
  const abe::ScenarioSpec* registered = abe::find_scenario(name);
  if (registered == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try `list`)\n",
                 name.c_str());
    return 2;
  }
  abe::ScenarioSpec spec = *registered;
  const int rc = apply_cell_overrides(spec, name, flags);
  if (rc != 0) return rc;
  return run_cells({std::move(spec)}, flags);
}

// Shared preamble of `replay` and `trace`: resolve the scenario, apply
// overrides, and pin the deterministic simulator (wall-clock runs cannot
// reproduce a trial). Returns 0 with *spec_out/*seed_out set, or 2.
int resolve_replay_cell(const std::string& name, const abe::CliFlags& flags,
                        abe::ScenarioSpec* spec_out,
                        std::uint64_t* seed_out) {
  const abe::ScenarioSpec* registered = abe::find_scenario(name);
  if (registered == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try `list`)\n",
                 name.c_str());
    return 2;
  }
  abe::ScenarioSpec spec = *registered;
  const int rc = apply_cell_overrides(spec, name, flags);
  if (rc != 0) return rc;
  if (flags.has("runtime") &&
      flags.get_string("runtime", "sim") != "sim") {
    std::fprintf(stderr, "replay is simulator-only (--runtime sim)\n");
    return 2;
  }
  spec.runtime = abe::RuntimeKind::kSim;
  const std::int64_t seed_flag = flags.get_int("seed", 1);
  if (seed_flag < 0) {
    std::fprintf(stderr, "--seed must be >= 0\n");
    return 2;
  }
  *spec_out = std::move(spec);
  *seed_out = static_cast<std::uint64_t>(seed_flag);
  return 0;
}

// Replays ONE simulator trial with tracing enabled and prints the event
// trace: the consumer of the violation_seeds list a sweep's JSON captures.
// Deterministic — the same seed reproduces the violating run bit for bit.
int cmd_replay(const std::string& name, const abe::CliFlags& flags) {
  abe::ScenarioSpec spec;
  std::uint64_t seed = 1;
  const int rc = resolve_replay_cell(name, flags, &spec, &seed);
  if (rc != 0) return rc;
  const std::int64_t seed_flag = static_cast<std::int64_t>(seed);

  abe::Trace recorder;
  const abe::TrialOutcome outcome =
      abe::replay_scenario_trial(spec, seed, &recorder);
  const std::string trace = recorder.to_string();
  std::printf("cell:      %s\n", spec.cell_id().c_str());
  std::printf("seed:      %lld\n", static_cast<long long>(seed_flag));
  std::printf("completed: %s\n", outcome.completed ? "yes" : "no");
  std::printf("stalled:   %s\n", outcome.stalled ? "yes" : "no");
  // Safety is a property of completed trials (a sweep counts violations the
  // same way); an incomplete trial has nothing to probe yet.
  std::printf("safety:    %s\n",
              !outcome.completed ? "not evaluated (trial did not complete)"
              : outcome.safety_ok ? "ok"
                                  : "VIOLATION");
  if (!outcome.safety_detail.empty()) {
    std::printf("detail:    %s\n", outcome.safety_detail.c_str());
  }
  std::printf("messages:  %llu\n",
              static_cast<unsigned long long>(outcome.messages));
  std::printf("time:      %.6g\n", outcome.time);

  // A long run (a large deadline, or a trial that keeps working after the
  // interesting part is over) can record millions of events; elide the
  // middle rather than flood the terminal. Violating runs complete early
  // and print in full.
  constexpr std::size_t kHeadLines = 2000;
  constexpr std::size_t kTailLines = 200;
  std::size_t lines = 0;
  for (char c : trace) lines += (c == '\n');
  std::printf("--- trace (%zu events) ---\n", lines);
  if (lines <= kHeadLines + kTailLines) {
    std::fwrite(trace.data(), 1, trace.size(), stdout);
  } else {
    std::size_t head_end = 0, seen = 0;
    while (seen < kHeadLines) {
      head_end = trace.find('\n', head_end) + 1;
      ++seen;
    }
    std::size_t tail_begin = trace.size();
    for (seen = 0; seen <= kTailLines; ++seen) {
      tail_begin = trace.rfind('\n', tail_begin - 1);
    }
    std::fwrite(trace.data(), 1, head_end, stdout);
    std::printf("... [%zu events elided] ...\n",
                lines - kHeadLines - kTailLines);
    std::fwrite(trace.data() + tail_begin + 1,
                1, trace.size() - tail_begin - 1, stdout);
  }
  return outcome.completed && !outcome.safety_ok ? 1 : 0;
}

int cmd_sweep(const std::string& name, const abe::CliFlags& flags) {
  const abe::ScenarioMatrix* matrix = abe::find_sweep(name);
  if (matrix == nullptr) {
    std::fprintf(stderr, "unknown sweep '%s' (try `list`)\n", name.c_str());
    return 2;
  }
  return run_cells(matrix->expand(), flags,
                   /*runtime_overridable=*/matrix->runtimes.empty());
}

// Runs a sweep (or a single scenario's cell) and prints the per-cell
// merged metrics snapshots next to the outcome table.
int cmd_report(const std::string& name, const abe::CliFlags& flags) {
  if (const abe::ScenarioMatrix* matrix = abe::find_sweep(name)) {
    return run_cells(matrix->expand(), flags,
                     /*runtime_overridable=*/matrix->runtimes.empty(),
                     /*metrics_report=*/true);
  }
  const abe::ScenarioSpec* registered = abe::find_scenario(name);
  if (registered == nullptr) {
    std::fprintf(stderr, "unknown sweep or scenario '%s' (try `list`)\n",
                 name.c_str());
    return 2;
  }
  abe::ScenarioSpec spec = *registered;
  const int rc = apply_cell_overrides(spec, name, flags);
  if (rc != 0) return rc;
  return run_cells({std::move(spec)}, flags, /*runtime_overridable=*/true,
                   /*metrics_report=*/true);
}

// Runs a sweep (or a single scenario's cell) with causal history switched
// on — an observation-only knob: cell ids and seeded aggregates are
// unchanged — and prints the per-cell critical-path profile plus the worst
// trial's chain. `--timeseries I` additionally samples the queue gauges
// every I sim-time units (simulator cells; surfaces in the JSON).
int cmd_critical_path(const std::string& name, const abe::CliFlags& flags) {
  double interval = 0.0;
  if (flags.has("timeseries")) {
    interval = flags.get_double("timeseries", 0.0);
    if (interval <= 0.0) {
      std::fprintf(stderr, "--timeseries must be > 0 (sim-time units)\n");
      return 2;
    }
  }
  std::vector<abe::ScenarioSpec> cells;
  bool runtime_overridable = true;
  if (const abe::ScenarioMatrix* matrix = abe::find_sweep(name)) {
    cells = matrix->expand();
    runtime_overridable = matrix->runtimes.empty();
  } else if (const abe::ScenarioSpec* registered = abe::find_scenario(name)) {
    abe::ScenarioSpec spec = *registered;
    const int rc = apply_cell_overrides(spec, name, flags);
    if (rc != 0) return rc;
    cells.push_back(std::move(spec));
  } else {
    std::fprintf(stderr, "unknown sweep or scenario '%s' (try `list`)\n",
                 name.c_str());
    return 2;
  }
  for (abe::ScenarioSpec& cell : cells) {
    cell.causal_history = true;
    cell.timeseries_interval = interval;
  }
  return run_cells(std::move(cells), flags, runtime_overridable,
                   /*metrics_report=*/false, /*critical_path_report=*/true);
}

// Writes `events` to `path` ("-" = stdout) in the selected export format.
bool export_events(const std::string& path, bool chrome,
                   const std::vector<abe::TraceEvent>& events) {
  if (path == "-") {
    chrome ? abe::write_chrome_trace(std::cout, events)
           : abe::write_trace_jsonl(std::cout, events);
    return static_cast<bool>(std::cout);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  chrome ? abe::write_chrome_trace(out, events)
         : abe::write_trace_jsonl(out, events);
  out.flush();
  return static_cast<bool>(out);
}

// Replays ONE simulator trial and exports the flight recorder — Chrome
// trace JSON for chrome://tracing / Perfetto, JSONL for scripting, or the
// plain text transcript when no export flag is given.
int cmd_trace(const std::string& name, const abe::CliFlags& flags) {
  abe::ScenarioSpec spec;
  std::uint64_t seed = 1;
  const int rc = resolve_replay_cell(name, flags, &spec, &seed);
  if (rc != 0) return rc;

  abe::Trace recorder;
  abe::replay_scenario_trial(spec, seed, &recorder);
  const std::vector<abe::TraceEvent> events = recorder.events();
  std::fprintf(stderr, "cell %s seed %llu: %zu events retained (%llu "
               "recorded, %llu evicted)\n",
               spec.cell_id().c_str(),
               static_cast<unsigned long long>(seed), events.size(),
               static_cast<unsigned long long>(recorder.total_recorded()),
               static_cast<unsigned long long>(recorder.evicted()));
  bool exported = false;
  if (flags.has("chrome")) {
    if (!export_events(flags.get_string("chrome", "-"), /*chrome=*/true,
                       events)) {
      return 2;
    }
    exported = true;
  }
  if (flags.has("jsonl")) {
    if (!export_events(flags.get_string("jsonl", "-"), /*chrome=*/false,
                       events)) {
      return 2;
    }
    exported = true;
  }
  if (!exported) std::printf("%s", recorder.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const abe::CliFlags flags(argc, argv);
  // Register the full flag vocabulary up front so a typo'd flag is rejected
  // before any trials run, not silently defaulted.
  for (const char* known :
       {"trials", "seed", "threads", "json", "n", "delay", "mean",
        "runtime", "arq", "failure", "behavior", "adversary",
        "chrome", "jsonl", "timeseries"}) {
    flags.has(known);
  }
  const auto unknown = flags.unknown_flags();
  if (!unknown.empty()) {
    for (const auto& flag : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    }
    return usage(argv[0]);
  }

  const auto& args = flags.positional();
  if (args.empty()) return usage(argv[0]);
  const std::string& command = args[0];

  if (command == "list") return cmd_list();
  if (command == "describe") {
    if (args.size() < 2) return usage(argv[0]);
    return cmd_describe(args[1]);
  }
  if (command == "run") {
    if (args.size() < 2) return usage(argv[0]);
    return cmd_run(args[1], flags);
  }
  if (command == "sweep") {
    return cmd_sweep(args.size() >= 2 ? args[1] : "robustness", flags);
  }
  if (command == "replay") {
    if (args.size() < 2) return usage(argv[0]);
    return cmd_replay(args[1], flags);
  }
  if (command == "report") {
    return cmd_report(args.size() >= 2 ? args[1] : "robustness", flags);
  }
  if (command == "trace") {
    if (args.size() < 2) return usage(argv[0]);
    return cmd_trace(args[1], flags);
  }
  if (command == "critical-path") {
    return cmd_critical_path(args.size() >= 2 ? args[1] : "robustness",
                             flags);
  }
  return usage(argv[0]);
}
