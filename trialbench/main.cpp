// abe_trialbench: closed-loop trial benchmark of the ABE simulation.
//
// One process runs one workload. Trials run serially (trial-pool width 1),
// each starting when the previous one ends, over a fixed panel of trial
// seeds 1..K whose walk order --seed shuffles. K is the workload's nominal
// trial rate times --seconds, so a run measures about --seconds of work on
// the reference host and every run covers the same inputs.
//
//   --trace 0  end-to-end metrics: tracing and RuntimeConfig::metrics off.
//   --trace 1  per-layer metrics: half the panel untraced, again traced
//              (spans, timing decorators, metrics on), then through
//              run_scenario_trial. run.py then runs each size-ladder rung
//              (--rung N) in its own process for the growth slopes.
//
// Both modes check every trial (see check_trial) and compare simulator
// outcomes per seed with run_scenario_trial. The last stdout line is one
// JSON object; trialbench/run.py adds set-up time and the build stamp.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "lifecycle.h"
#include "obs/metrics.h"
#include "probes.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "sim/rng.h"

#ifndef TB_COMPILER
#define TB_COMPILER "unknown"
#endif
#ifndef TB_BUILD_TYPE
#define TB_BUILD_TYPE "unknown"
#endif

namespace trialbench {
namespace {

struct Workload {
  const char* name;
  const char* scenario;  // registry preset the workload resizes
  std::size_t n;
  abe::RuntimeKind runtime;
  bool arq;
  // Trials per second on the reference host (Release, 4 cores); sizes the
  // seed panel so a run measures about --seconds.
  double nominal_rate;
  std::vector<std::size_t> ladder;  // sizes for the growth slopes
  std::size_t ladder_trials;        // seeds per ladder size
  // The exact message count of every trial, or 0 when not fixed.
  std::uint64_t expected_messages;
  // Smoke mode: tiny sizes, finishing in seconds.
  std::size_t smoke_n;
  std::vector<std::size_t> smoke_ladder;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"ring-1024", "ring-election", 1024, abe::RuntimeKind::kSim, false,
       1.3, {256, 512, 1024}, 8, 0, 16, {8, 16, 32}},
      {"polling-torus-10k", "polling-torus", 10000, abe::RuntimeKind::kSim,
       false, 1.25, {2500, 4900, 10000}, 3, 0, 64, {16, 36, 64}},
      {"udp-polling-4", "polling-ring", 4, abe::RuntimeKind::kUdp, true, 34.0,
       {}, 0, 9, 4, {}},
  };
  return all;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool setup_only = false;
  std::size_t rung = 0;  // > 0: run one size-ladder rung at this n
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "abe_trialbench: " << problem << "\n"
            << "usage: abe_trialbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--setup-only] [--rung N] "
               "[--spans-out PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--rung") {
      args.rung = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--spans-out") {
      args.spans_out = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

abe::ScenarioSpec make_spec(const Workload& w, std::size_t n) {
  const abe::ScenarioSpec* preset = abe::find_scenario(w.scenario);
  if (preset == nullptr) usage(std::string("no scenario ") + w.scenario);
  abe::ScenarioSpec spec = *preset;
  spec.topology.n = n;
  spec.runtime = w.runtime;
  spec.udp_reliable = w.arq;
  return spec;
}

// ---------------------------------------------------------------------------
// Checks

// Why a trial is wrong, or empty when it passes. `messages_total` counts
// the whole trial, settle traffic included; 0 when unknown.
std::string check_trial(const Workload& w, const abe::ScenarioSpec& spec,
                        const abe::TrialOutcome& out,
                        std::uint64_t messages_total) {
  if (!out.completed) return out.stalled ? "stalled" : "missed the deadline";
  if (!out.safety_ok) return "safety: " + out.safety_detail;
  if (spec.algorithm == abe::ScenarioAlgorithm::kRingElection &&
      spec.behavior.is_honest() &&
      (out.messages == 0 || out.messages % spec.topology.n != 0)) {
    return "ring message count " + std::to_string(out.messages) +
           " is not a multiple of n";
  }
  if (w.expected_messages != 0 && messages_total != 0 &&
      messages_total != w.expected_messages) {
    return "sent " + std::to_string(messages_total) + " messages, expected " +
           std::to_string(w.expected_messages);
  }
  return "";
}

// Trials attempted and failed, with the first few reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void add(std::uint64_t seed, const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (reasons.size() < 8) {
      reasons.push_back("seed " + std::to_string(seed) + ": " + problem);
    }
  }
};

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// The highest percentile with at least ten samples above it: the value at
// sorted rank N-10 (1-based). Falls back to the maximum below 11 samples.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  const std::size_t rank = n - 10;
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = 10;
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Output

struct Metric {
  double value;
  std::string unit;
  std::string note;  // shown in the report, not in the JSON result
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_[name] = Metric{value, unit, note};
  }
  void info(const std::string& key, const std::string& json_value) {
    info_[key] = json_value;
  }

  // Human-readable lines, then the JSON result as the last line.
  void print(const Tally& tally, bool correct) const {
    for (const auto& [name, m] : metrics_) {
      std::printf("metric %-32s %.6g %s%s%s\n", name.c_str(), m.value,
                  m.unit.c_str(), m.note.empty() ? "" : "  # ",
                  m.note.c_str());
    }
    for (const std::string& reason : tally.reasons) {
      std::printf("failure %s\n", reason.c_str());
    }
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      os << (first ? "" : ", ") << quote(name) << ": {\"value\": " << m.value
         << ", \"unit\": " << quote(m.unit) << "}";
      first = false;
    }
    os << "}, \"info\": {";
    first = true;
    for (const auto& [key, value] : info_) {
      os << (first ? "" : ", ") << quote(key) << ": " << value;
      first = false;
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
};

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "abe_trialbench: cannot write spans to " << path << "\n";
    std::exit(1);
  }
  for (const Span& s : spans) {
    out << "{\"trial\": " << s.trial << ", \"name\": \"" << s.name
        << "\", \"parent\": \"" << s.parent << "\", \"start_ns\": "
        << s.start_ns << ", \"end_ns\": " << s.end_ns << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Runs

struct Pass {
  std::vector<TrialRecord> trials;
  double elapsed_s = 0.0;
};

// One closed-loop pass over `seeds`: each trial starts when the last ends.
Pass run_pass(const abe::ScenarioSpec& spec,
              const std::vector<std::uint64_t>& seeds,
              const TraceOptions* trace) {
  Pass pass;
  pass.trials.reserve(seeds.size());
  const std::int64_t t0 = now_ns();
  for (const std::uint64_t seed : seeds) {
    pass.trials.push_back(run_trial(spec, seed, trace));
  }
  pass.elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
  return pass;
}

void check_pass(const Workload& w, const abe::ScenarioSpec& spec,
                const std::vector<std::uint64_t>& seeds, const Pass& pass,
                Tally* tally) {
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const TrialRecord& rec = pass.trials[i];
    tally->add(seeds[i],
               check_trial(w, spec, rec.outcome, rec.messages_total));
  }
}

// run_scenario_trial per seed, timed from outside. `problems[i]` says why
// seed i's reference trial fails its checks or, on the simulator, differs
// from the benchmark's own trial of that seed (compared bit for bit).
struct Reference {
  std::vector<abe::TrialOutcome> outcomes;
  std::vector<double> outside_ms;
  std::vector<std::string> problems;
};

Reference run_reference(const Workload& w, const abe::ScenarioSpec& spec,
                        const std::vector<std::uint64_t>& seeds,
                        const Pass& pass) {
  Reference ref;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::int64_t t0 = now_ns();
    abe::TrialOutcome out = abe::run_scenario_trial(spec, seeds[i]);
    ref.outside_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    std::string problem = check_trial(w, spec, out, 0);
    if (problem.empty() && spec.runtime == abe::RuntimeKind::kSim &&
        !same_outcome(out, pass.trials[i].outcome)) {
      problem = "outcome differs from run_scenario_trial";
    }
    ref.problems.push_back(std::move(problem));
    ref.outcomes.push_back(std::move(out));
  }
  return ref;
}

void report_end_to_end(const abe::ScenarioSpec& spec,
                       const Pass& pass, double peak_mb, Report* report) {
  std::vector<double> trial_ms;
  double trial_us = 0.0;
  double messages = 0.0;
  std::vector<double> sim_time;
  std::size_t completed = 0;
  for (const TrialRecord& rec : pass.trials) {
    trial_ms.push_back(rec.total_ms);
    if (!rec.outcome.completed) continue;
    ++completed;
    trial_us += rec.total_ms * 1e3;
    messages += static_cast<double>(rec.outcome.messages);
    sim_time.push_back(rec.outcome.time);
  }
  const double n = static_cast<double>(spec.topology.n);
  const Tail tail = tail_of(trial_ms);
  report->set("elections_per_s",
              static_cast<double>(completed) / pass.elapsed_s, "1/s");
  report->set("host_us_per_message", ratio(trial_us, messages), "us");
  report->set("trial_ms_p50", median(trial_ms), "ms");
  char note[96];
  std::snprintf(note, sizeof note, "p%.1f of %zu trials, %zu beyond",
                tail.percentile, trial_ms.size(), tail.beyond);
  report->set("trial_ms_tail", tail.value, "ms", note);
  report->set("peak_rss_mb", peak_mb, "MB");
  report->set("msgs_per_node", ratio(messages, n * completed), "msg/node");
  // The median, not the mean: on udp the election time is wall clock, and
  // its mean over a run spread 28% across ten runs on a shared host (the
  // median 17%). On the simulator both are exact for the fixed panel.
  report->set("sim_time_per_node", median(sim_time) / n, "delta/node",
              "median election time / n");
  report->info("trials", std::to_string(trial_ms.size()));
  report->info("tail_percentile", num(tail.percentile));
  report->info("loop_s", num(pass.elapsed_s));
}

// Sum of the named steps' times, per trial.
std::vector<double> steps_ms(const Pass& pass,
                             std::initializer_list<Step> steps) {
  std::vector<double> out;
  for (const TrialRecord& rec : pass.trials) {
    double ms = 0.0;
    for (const Step s : steps) ms += rec.step_ms[static_cast<std::size_t>(s)];
    out.push_back(ms);
  }
  return out;
}

double quantile(const abe::MetricsSnapshot& snap, const std::string& name,
                double q) {
  const abe::MetricValue* v = snap.find(name);
  if (v == nullptr || v->kind != abe::MetricKind::kHistogram) return 0.0;
  return abe::FixedHistogram::quantile_of(v->bounds, v->buckets, q);
}

// One rung of the size ladder, run in a fresh process so that the peak RSS
// belongs to this size alone (glibc keeps freed memory resident, so a
// larger earlier trial would mask it). Rung trials are traced but
// undecorated: the top rung also gives the scheduler's ns/event without
// handler-timing overhead. trialbench/run.py fits the slopes.
void report_rung(const Pass& pass, Report* report) {
  double run_ns = 0.0;
  double popped = 0.0;
  for (const TrialRecord& rec : pass.trials) {
    run_ns += rec.step_ms[static_cast<std::size_t>(Step::kRun)] * 1e6;
    popped += rec.metrics.value_of("sched.popped");
  }
  report->set("rung.build_ms",
              median(steps_ms(pass, {Step::kTopology, Step::kDriverMake,
                                     Step::kRuntimeConfig, Step::kConfigure,
                                     Step::kRuntimeMake, Step::kBuildNodes})),
              "ms");
  report->set("rung.run_ms", median(steps_ms(pass, {Step::kRun})), "ms");
  report->set("rung.peak_rss_mb", peak_rss_mb(), "MB");
  report->set("rung.ns_per_event", ratio(run_ns, popped), "ns");
}

void report_layers(const abe::ScenarioSpec& spec,
                   const Pass& untraced, const Pass& traced,
                   const Reference& ref, const HandlerCounters& handlers,
                   const DelayCounters& delay, Report* report) {
  const double trials = static_cast<double>(traced.trials.size());
  const double n = static_cast<double>(spec.topology.n);
  abe::MetricsSnapshot merged;
  std::vector<double> configure_rss_mb;
  std::vector<double> build_bytes_per_node;
  for (const TrialRecord& rec : traced.trials) {
    merged.merge(rec.metrics);
    configure_rss_mb.push_back(static_cast<double>(rec.configure_rss_bytes) /
                               (1024.0 * 1024.0));
    build_bytes_per_node.push_back(static_cast<double>(rec.build_heap_bytes) /
                                   n);
  }
  const auto med = [&](std::initializer_list<Step> steps) {
    return median(steps_ms(traced, steps));
  };
  report->set("topology.build_ms", med({Step::kTopology}), "ms");
  report->set("driver.configure_ms", med({Step::kConfigure}), "ms");
  report->set("driver.configure_rss_mb", median(configure_rss_mb), "MB");
  report->set("driver.extract_ms", med({Step::kExtract, Step::kProject}),
              "ms");
  report->set("runtime.build_ms",
              med({Step::kRuntimeMake, Step::kBuildNodes}), "ms");
  report->set("runtime.build_bytes_per_node", median(build_bytes_per_node),
              "B", "heap bytes in use after build_nodes, less before");
  report->set("runtime.start_ms", med({Step::kStart}), "ms");
  report->set("runtime.run_ms", med({Step::kRun}), "ms");
  report->set("runtime.settle_ms", med({Step::kOnComplete, Step::kSettle}),
              "ms");
  report->set("runtime.stop_ms", med({Step::kStop, Step::kDestroy}), "ms",
              "stop plus runtime, driver and topology destruction");

  const double popped = merged.value_of("sched.popped");
  const double sent = merged.value_of("net.sent");
  report->set("sched.events", popped / trials, "count", "per trial");
  const abe::MetricValue* high = merged.find("sched.queue_high_water");
  report->set("sched.queue_high_water", high != nullptr ? high->value : 0.0,
              "count");
  report->set("sched.events_per_message", ratio(popped, sent), "1");
  report->set("net.tick_share", ratio(merged.value_of("net.ticks"), popped),
              "1");

  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return static_cast<double>(a.load());
  };
  report->set("delay.sample_calls", load(delay.calls) / trials, "count",
              "per trial");
  report->set("delay.sample_ns", ratio(load(delay.ns), load(delay.calls)),
              "ns", "per call");
  report->set("handler.tick_calls", load(handlers.tick_calls) / trials,
              "count", "per trial");
  report->set("handler.tick_ns",
              ratio(load(handlers.tick_ns), load(handlers.tick_calls)), "ns",
              "per call");
  report->set("handler.tick_useful_share",
              ratio(load(handlers.tick_useful), load(handlers.tick_calls)),
              "1", "ticks that sent a message / ticks");
  report->set("handler.msg_calls", load(handlers.msg_calls) / trials, "count",
              "per trial");
  report->set("handler.msg_ns",
              ratio(load(handlers.msg_ns), load(handlers.msg_calls)), "ns",
              "per call");

  report->set("udp.transit_us_p50", quantile(merged, "udp.transit_us", 0.5),
              "us");
  report->set("udp.transit_us_p99", quantile(merged, "udp.transit_us", 0.99),
              "us");
  report->set("udp.retransmit_share",
              ratio(merged.value_of("udp.retransmits"),
                    merged.value_of("udp.datagrams_tx")),
              "1");
  report->set("udp.wakeups_per_message",
              ratio(merged.value_of("udp.cv_wakeups"), sent), "1");
  report->set("arq.rtt_p50", quantile(merged, "arq.rtt", 0.5), "delta");

  report->set("trace.overhead_ratio",
              ratio(traced.elapsed_s, untraced.elapsed_s), "1",
              "traced pass elapsed / untraced pass elapsed");
  report->set("trace.overhead_ms",
              (traced.elapsed_s - untraced.elapsed_s) * 1e3 / trials, "ms",
              "traced minus untraced, per trial");
  double outside = 0.0;
  double inside = 0.0;
  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    outside += ref.outside_ms[i];
    inside += ref.outcomes[i].wall.total_ms;
  }
  report->set("obs.wall_gap_share", ratio(outside - inside, outside), "1",
              "run_scenario_trial time not covered by wall.total_ms");
}

int run(const Args& args) {
  const auto& all = workloads();
  const auto it =
      std::find_if(all.begin(), all.end(), [&](const Workload& w) {
        return args.workload == w.name;
      });
  if (it == all.end()) usage("unknown workload " + args.workload);
  const Workload& w = *it;

  // --- set-up: resolve the spec, draw the panel order, warm up ----------
  const std::size_t n =
      args.rung > 0 ? args.rung : (args.smoke ? w.smoke_n : w.n);
  const abe::ScenarioSpec spec = make_spec(w, n);
  const auto panel_size = static_cast<std::size_t>(
      args.smoke ? 12 : std::max(12.0, std::round(args.seconds *
                                                  w.nominal_rate)));
  std::vector<std::uint64_t> seeds(panel_size);
  std::iota(seeds.begin(), seeds.end(), 1);
  abe::Rng order = abe::Rng(args.seed).substream("trialbench-order");
  for (std::size_t i = seeds.size(); i > 1; --i) {
    std::swap(seeds[i - 1], seeds[order.uniform_int(i)]);
  }
  // One small trial of the same workload pages in code and allocator
  // state before the first timed trial.
  run_trial(make_spec(w, w.smoke_n), 1, nullptr);
  std::printf("ready %lld\n", static_cast<long long>(now_ns()));
  std::fflush(stdout);
  if (args.setup_only) return 0;

  Report report;
  Tally tally;
  report.info("workload", Report::quote(w.name));
  report.info("seed_base", std::to_string(args.seed));
  report.info("panel",
              Report::quote("seeds 1.." + std::to_string(panel_size)));
  report.info("n", std::to_string(spec.topology.n));
  report.info("trial_pool_width", "1");
  report.info("compiler", Report::quote(TB_COMPILER));
  report.info("build_type", Report::quote(TB_BUILD_TYPE));

  if (args.rung > 0) {
    const std::vector<std::uint64_t> rung_seeds(
        seeds.begin(), seeds.begin() + std::min(seeds.size(),
                                                w.ladder_trials));
    const TraceOptions probes_only;
    const Pass pass = run_pass(spec, rung_seeds, &probes_only);
    check_pass(w, spec, rung_seeds, pass, &tally);
    report_rung(pass, &report);
  } else if (!args.trace) {
    const Pass pass = run_pass(spec, seeds, nullptr);
    const double peak_mb = peak_rss_mb();
    // The first quarter of the shuffled panel, so which seeds get the
    // reference comparison varies with --seed; the traced run compares
    // every seed it runs. Real-time runtimes have nothing to compare bit
    // for bit.
    const std::size_t compared =
        spec.runtime == abe::RuntimeKind::kSim ? (seeds.size() + 3) / 4 : 0;
    const Reference ref = run_reference(
        w, spec, {seeds.begin(), seeds.begin() + compared}, pass);
    // `attempted` counts the timed trials; a seed whose reference trial
    // fails or disagrees fails its timed trial too.
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const TrialRecord& rec = pass.trials[i];
      std::string problem =
          check_trial(w, spec, rec.outcome, rec.messages_total);
      if (problem.empty() && i < compared) problem = ref.problems[i];
      tally.add(seeds[i], problem);
    }
    report.info("reference_compared", std::to_string(compared));
    report_end_to_end(spec, pass, peak_mb, &report);
  } else {
    // The first half of the shuffled panel (which half depends on --seed)
    // keeps the three passes within about 1.5 × --seconds.
    seeds.resize((seeds.size() + 1) / 2);
    const Pass untraced = run_pass(spec, seeds, nullptr);
    check_pass(w, spec, seeds, untraced, &tally);
    std::vector<Span> spans;
    HandlerCounters handlers;
    DelayCounters delay;
    const TraceOptions options{&spans, &handlers, &delay};
    const Pass traced = run_pass(spec, seeds, &options);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const TrialRecord& rec = traced.trials[i];
      std::string problem =
          check_trial(w, spec, rec.outcome, rec.messages_total);
      if (problem.empty() && spec.runtime == abe::RuntimeKind::kSim &&
          !same_outcome(rec.outcome, untraced.trials[i].outcome)) {
        problem = "traced outcome differs from untraced";
      }
      tally.add(seeds[i], problem);
    }
    const Reference ref = run_reference(w, spec, seeds, untraced);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      tally.add(seeds[i], ref.problems[i]);
    }
    report_layers(spec, untraced, traced, ref, handlers, delay, &report);
    std::string rungs;
    for (const std::size_t rung : args.smoke ? w.smoke_ladder : w.ladder) {
      rungs += (rungs.empty() ? "" : ", ") + std::to_string(rung);
    }
    report.info("ladder", "[" + rungs + "]");
    report.info("spans", std::to_string(spans.size()));
    if (!args.spans_out.empty()) write_spans(args.spans_out, spans);
  }
  report.print(tally, tally.failed == 0);
  return 0;
}

}  // namespace
}  // namespace trialbench

int main(int argc, char** argv) {
  return trialbench::run(trialbench::parse_args(argc, argv));
}
