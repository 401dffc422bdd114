// risa_benchmark: runs one workload of the end-to-end benchmark in this
// process (so VmHWM is the workload's own peak RSS).
//
//   risa_benchmark --workload=NAME [--seed=S] [--seconds=T] [--trace=0|1]
//                  [--expected=FILE] [--out=FILE] [--trace-dir=DIR]
//   risa_benchmark --list          (workload names, one per line)
//
// --trace=0 (the timed run): one warm-up repetition on the default seed
// (which expected.json pins, so every run checks exact outputs), then timed
// repetitions on --seed -- at least kMinReps, and until --seconds have
// passed -- each building a fresh Engine and SyntheticStreamSource and
// calling Engine::run_stream.  Throughput, placement latency and set-up
// time report the fastest repetition (benchmark/README.md says why).
//
// --trace=1: the per-layer run.  The engine runs once with the phase
// profiler and a Telemetry trace; then, until --seconds have passed, plain
// engine passes alternate with passes of the outside-in layer replay
// (layer_replay.hpp), which times every layer call on the same stream and
// must reproduce the engine's counts.  Layer costs keep the fastest pass.
//
// Every metric prints as `name value unit`; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.  The exit status is
// 1 when any correctness check fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/histogram.hpp"
#include "layer_replay.hpp"
#include "sim/experiments.hpp"
#include "sim/phase_profiler.hpp"
#include "sim/sweep.hpp"
#include "sim/telemetry.hpp"
#include "workloads.hpp"

namespace {

using namespace risa;
using bench::WorkloadSpec;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinReps = 5;
constexpr int kMinReplayPasses = 3;
/// Sub-bins per octave of the placement-latency histogram: percentiles
/// quantize to 1/256 of their value, far below the gate bounds.
constexpr std::size_t kLatencySubBins = 256;
/// The paper's regime: RISA drops stay under this share of arrivals.
constexpr double kMaxRisaDropFraction = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process-wide peak resident set (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a64:%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The deterministic outcome of one run: what expected.json pins.
struct Counts {
  std::vector<std::pair<std::string, std::string>> fields;  // name, JSON value

  bool operator==(const Counts&) const = default;

  void add(const std::string& name, std::uint64_t v) {
    fields.emplace_back(name, std::to_string(v));
  }
};

Counts counts_of(const WorkloadSpec& spec, const sim::SimMetrics& m) {
  Counts c;
  c.add("placed", m.placed);
  c.add("dropped", m.dropped);
  c.add("inter_rack", m.inter_rack_placements);
  c.add("events_executed", m.events_executed);
  c.fields.emplace_back("metrics_fingerprint",
                        '"' + fnv1a64(sim::metrics_fingerprint(m)) + '"');
  if (spec.faults) {
    c.add("killed", m.killed);
    c.add("requeued", m.requeued);
    c.add("retry_placed", m.retry_placed);
    c.add("migrated", m.migrated);
  }
  return c;
}

struct Metric {
  std::string name;
  std::optional<double> value;  // nullopt: not defined on this workload
  std::string unit;
  bool in_json = true;  ///< part of the result line (BENCHMARK.json set)
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::uint64_t, Counts>> counts;  // by seed
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, std::optional<double> v, std::string unit,
           bool in_json = true) {
    metrics.push_back({std::move(name), v, std::move(unit), in_json});
  }
  void fail(std::string what) { failures.push_back(std::move(what)); }
};

std::optional<double> ratio(double num, double den) {
  if (den <= 0.0) return std::nullopt;
  return num / den;
}

/// Outcome checks that hold for any seed: accounting, the regime, and the
/// Figure 10 identity between the RTT mean and the inter-rack share.
void check_outcome(const WorkloadSpec& spec, const sim::Scenario& scenario,
                   const sim::SimMetrics& m, Report& r) {
  if (m.total_vms != spec.vms || m.placed + m.dropped != m.total_vms) {
    r.fail("placement accounting: placed + dropped != offered VMs");
  }
  if (!spec.faults && m.events_executed != m.total_vms + m.placed) {
    r.fail("events_executed != arrivals + departures");
  }
  const auto placements = static_cast<double>(m.cpu_ram_latency_ns.count());
  if (placements == 0.0) {
    r.fail("no placements");
    return;
  }
  const double inter =
      static_cast<double>(m.inter_rack_placements) / placements;
  const sim::LatencyModel& lat = scenario.latency;
  const double rtt =
      lat.intra_rack_ns + (lat.inter_rack_ns - lat.intra_rack_ns) * inter;
  if (std::abs(m.cpu_ram_latency_ns.mean() - rtt) > 1e-6 * rtt) {
    r.fail("CPU-RAM RTT mean disagrees with the inter-rack share");
  }
  if (!spec.faults && spec.algorithm == "RISA" &&
      m.drop_fraction() > kMaxRisaDropFraction) {
    r.fail("RISA drop fraction above the paper's low-drop regime");
  }
}

/// Simulated outputs of one run (identical in every repetition).  Only
/// placed_fraction goes in the result line: NALB's inter-rack share, and
/// with it power and RTT, drifts with the stream length and varies twofold
/// across seeds, so no cross-seed bound fits them; expected.json pins them
/// exactly instead (through the metrics fingerprint).  placed_fraction
/// stands in for the drop share, which reads 0 on the 256-rack workloads.
void add_outputs(const sim::SimMetrics& m, Report& r) {
  r.add("placed_fraction",
        ratio(static_cast<double>(m.placed), static_cast<double>(m.total_vms)),
        "ratio");
  r.add("drop_fraction", m.drop_fraction(), "ratio", false);
  r.add("inter_rack_fraction", m.inter_rack_fraction(), "ratio", false);
  r.add("optical_power_w", m.avg_optical_power_w, "W", false);
  r.add("cpu_ram_rtt_ns", m.cpu_ram_latency_ns.mean(), "ns", false);
}

Report run_timed(const WorkloadSpec& spec, std::uint64_t seed,
                 double seconds) {
  Report r;
  std::vector<double> setup;
  auto build = [&](std::uint64_t s) {
    const auto t0 = Clock::now();
    auto inst = std::make_unique<bench::Instance>(spec, s, true);
    setup.push_back(seconds_since(t0));
    return inst;
  };
  {
    // Warm-up: fills the allocator and caches; its seed is pinned.
    const auto inst = build(sim::kDefaultSeed);
    const sim::SimMetrics m =
        inst->engine().run_stream(inst->source(), std::string(spec.name));
    check_outcome(spec, inst->scenario(), m, r);
    r.counts.emplace_back(sim::kDefaultSeed, counts_of(spec, m));
  }

  std::vector<double> eps, p50, p90;
  std::optional<sim::SimMetrics> first;
  Counts first_counts;
  const auto measure_start = Clock::now();
  while (eps.size() < kMinReps || seconds_since(measure_start) < seconds) {
    const auto inst = build(seed);
    Log2Histogram latency(kLatencySubBins);
    inst->engine().set_latency_histogram(&latency);
    sim::SimMetrics m =
        inst->engine().run_stream(inst->source(), std::string(spec.name));
    r.attempted += m.total_vms;
    Counts c = counts_of(spec, m);
    if (!first) {
      check_outcome(spec, inst->scenario(), m, r);
      if (seed != sim::kDefaultSeed) {
        r.counts.emplace_back(seed, c);
      } else if (c != r.counts.front().second) {
        r.fail("the first timed repetition disagrees with the warm-up");
      }
      first = std::move(m);
      first_counts = std::move(c);
    } else if (c != first_counts) {
      r.fail("timed repetition " + std::to_string(eps.size()) +
             " disagrees with the first");
      r.failed += m.total_vms;
    }
    eps.push_back(m.events_per_sec());
    p50.push_back(latency.percentile(50.0));
    p90.push_back(latency.percentile(90.0));
  }
  r.add("events_per_sec", *std::max_element(eps.begin(), eps.end()),
        "events/s");
  r.add("place_p50_ns", *std::min_element(p50.begin(), p50.end()), "ns");
  // Printed only: the most contention-sensitive timing (its fastest
  // repetition spread up to 27% across runs), so it is reported per layer,
  // as core.try_place_p90_ns, and not bounded.
  r.add("place_p90_ns", *std::min_element(p90.begin(), p90.end()), "ns",
        false);
  r.add("setup_s", *std::min_element(setup.begin(), setup.end()), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  add_outputs(*first, r);
  r.add("timed_repetitions", static_cast<double>(eps.size()), "count", false);
  return r;
}

Report run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds, const std::string& trace_dir) {
  Report r;
  const std::string name(spec.name);
  auto trace_file = [&](const char* suffix) {
    return trace_dir.empty() ? std::string() : trace_dir + "/" + name + suffix;
  };
  const auto start = Clock::now();

  // Reference: the engine on the stream the replay can reproduce (the
  // plan-free twin on the faults workload), untraced.  This first run also
  // warms up the process.
  bench::Instance twin(spec, seed, /*with_faults=*/false);
  const sim::SimMetrics ref = twin.engine().run_stream(twin.source(), name);

  // Phase split: the workload itself with the profiler and telemetry on.
  // The trace keeps the phase track and the calendar and power counters;
  // lifecycle instants (one per drop, kill and retry) would run to ~100 MB.
  bench::Instance inst(spec, seed, /*with_faults=*/true);
  Log2Histogram latency(kLatencySubBins);
  sim::TelemetryConfig tc;
  tc.trace_path = trace_file("-engine.json");
  tc.categories = sim::kTraceCalendar | sim::kTracePower;
  tc.sample_cadence_tu = 1000.0;
  sim::Telemetry telemetry(tc);
  inst.engine().set_latency_histogram(&latency);
  inst.engine().set_profiling(true);
  inst.engine().set_telemetry(&telemetry);
  const sim::SimMetrics m = inst.engine().run_stream(inst.source(), name);
  telemetry.close();
  r.counts.emplace_back(seed, counts_of(spec, m));
  r.attempted = m.total_vms;
  check_outcome(spec, inst.scenario(), m, r);
  if (!spec.faults && counts_of(spec, ref) != r.counts.back().second) {
    r.fail("profiling or telemetry changed the engine's outcome");
  }

  // Replay passes, each after an untraced engine pass, until `seconds` have
  // passed: every pass is gated against the engine's counts; timings keep
  // the fastest pass, like the timed run.
  wl::SyntheticStreamSource source(bench::stream_of(spec), seed);
  std::optional<bench::ReplayResult> rp;
  double engine_wall = ref.sim_wall_seconds;
  for (int pass = 0; pass < kMinReplayPasses || seconds_since(start) < seconds;
       ++pass) {
    engine_wall = std::min(
        engine_wall,
        twin.engine().run_stream(twin.source(), name).sim_wall_seconds);
    const bench::ReplayResult p = bench::run_layer_replay(
        bench::scenario_of(spec, false), std::string(spec.algorithm), source,
        pass == 0 ? trace_file("-layers.json") : std::string());
    if (rp) {
      rp->keep_fastest(p);
    } else {
      rp = p;
    }
    if (p.total_vms != ref.total_vms || p.placed != ref.placed ||
        p.dropped != ref.dropped || p.inter_rack != ref.inter_rack_placements ||
        p.fallback != ref.fallback_placements) {
      std::ostringstream os;
      os << "replay gate: replay placed/dropped/inter-rack " << p.placed << '/'
         << p.dropped << '/' << p.inter_rack << " vs engine " << ref.placed
         << '/' << ref.dropped << '/' << ref.inter_rack_placements;
      r.fail(os.str());
      break;  // the layer timings of a diverged replay mean nothing
    }
  }

  auto ns = [&](bench::Cost c) -> std::optional<double> {
    if (std::isnan(rp->ns[c])) return std::nullopt;
    return rp->ns[c];
  };
  r.add("workload.pull_ns_per_vm", ns(bench::kPullPerVm), "ns");
  r.add("des.push_ns", ns(bench::kPush), "ns");
  r.add("des.pop_ns", ns(bench::kPop), "ns");
  r.add("des.depth_mean", rp->depth_mean, "count");
  r.add("core.try_place_ok_ns", ns(bench::kPlaceOk), "ns");
  r.add("core.try_place_fail_ns", ns(bench::kPlaceFail), "ns", false);
  r.add("core.try_place_p90_ns", latency.percentile(90.0), "ns");
  r.add("core.try_place_p99_ns", latency.percentile(99.0), "ns");
  r.add("core.success_ratio",
        ratio(static_cast<double>(rp->placed),
              static_cast<double>(rp->total_vms)),
        "ratio");
  r.add("core.fallback_ratio",
        ratio(static_cast<double>(rp->fallback),
              static_cast<double>(rp->placed)),
        "ratio", false);
  r.add("core.release_ns", ns(bench::kRelease), "ns");
  r.add("topology.eligible_racks_ns", ns(bench::kEligibleRacks), "ns");
  r.add("topology.end_release_batch_ns", ns(bench::kEndReleaseBatch), "ns");
  r.add("network.establish_ns", ns(bench::kEstablish), "ns");
  r.add("network.teardown_ns", ns(bench::kTeardown), "ns");
  r.add("network.hops_mean", rp->hops_mean, "hops");
  r.add("network.inter_rack_circuit_ratio", rp->inter_rack_circuit_ratio,
        "ratio", false);
  r.add("photonics.charge_vm_ns", ns(bench::kChargeVm), "ns");

  const double wall = m.sim_wall_seconds;
  for (std::size_t p = 0; p < sim::kNumPhases; ++p) {
    const auto phase = static_cast<sim::Phase>(p);
    // Ledger and checkpoint are zero without a fault plan or checkpoints.
    const bool always_nonzero =
        phase != sim::Phase::Ledger && phase != sim::Phase::Checkpoint;
    r.add("sim.phase." + std::string(sim::kPhaseNames[p]) + "_share",
          ratio(m.profile[phase], wall), "ratio", always_nonzero);
  }
  r.add("sim.attributed_share", ratio(m.profile.total(), wall), "ratio");
  if (spec.faults) {
    r.add("sim.killed_ratio",
          ratio(static_cast<double>(m.killed), static_cast<double>(m.placed)),
          "ratio", false);
    r.add("sim.retry_success_ratio",
          ratio(static_cast<double>(m.retry_placed),
                static_cast<double>(m.requeued)),
          "ratio", false);
    r.add("sim.migrated", static_cast<double>(m.migrated), "count", false);
    r.add("sim.degraded_share", ratio(m.degraded_tu, m.horizon_tu), "ratio",
          false);
  }
  r.add("sim.trace_overhead_ratio", ratio(rp->wall_s, engine_wall), "ratio");
  r.add("sim.span_overhead_ns", rp->span_overhead_ns, "ns");
  return r;
}

// ---- expected.json ---------------------------------------------------------
//
// {"<workload>": {"<seed>": {"<count>": <number or string>, ...}, ...}, ...}
// flattened to "workload/seed/count" -> the value's JSON text.

class ExpectedParser {
 public:
  explicit ExpectedParser(std::string text) : s_(std::move(text)) {}

  std::map<std::string, std::string> parse() {
    std::map<std::string, std::string> out;
    value("", out);
    skip_ws();
    if (i_ != s_.size()) error("trailing characters");
    return out;
  }

 private:
  void value(const std::string& path, std::map<std::string, std::string>& out) {
    skip_ws();
    if (peek() == '{') {
      ++i_;
      skip_ws();
      if (peek() == '}') {
        ++i_;
        return;
      }
      for (;;) {
        skip_ws();
        const std::string key = string_token();
        skip_ws();
        expect(':');
        value(path.empty() ? key : path + "/" + key, out);
        skip_ws();
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect('}');
        return;
      }
    }
    const std::size_t start = i_;
    if (peek() == '"') {
      (void)string_token();
    } else {
      while (i_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
                                s_[i_] == '-' || s_[i_] == '.' || s_[i_] == '+')) {
        ++i_;
      }
      if (i_ == start) error("expected a value");
    }
    out[path] = s_.substr(start, i_ - start);
  }
  std::string string_token() {
    expect('"');
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') error("escapes are not supported");
      ++i_;
    }
    expect('"');
    return s_.substr(start, i_ - 1 - start);
  }
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  [[nodiscard]] char peek() const {
    if (i_ >= s_.size()) error("unexpected end of input");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) error(std::string("expected '") + c + "'");
    ++i_;
  }
  [[noreturn]] void error(const std::string& what) const {
    throw std::runtime_error("expected.json: " + what + " at byte " +
                             std::to_string(i_));
  }

  std::string s_;
  std::size_t i_ = 0;
};

/// Compares the run's counts against expected.json for every seed it pins;
/// the default seed must be pinned.
void check_expected(const std::string& path, const WorkloadSpec& spec,
                    Report& r) {
  if (path.empty()) return;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const auto expected = ExpectedParser(text.str()).parse();
  for (const auto& [seed, counts] : r.counts) {
    const std::string prefix =
        std::string(spec.name) + "/" + std::to_string(seed) + "/";
    const bool pinned =
        std::any_of(expected.begin(), expected.end(), [&](const auto& kv) {
          return kv.first.rfind(prefix, 0) == 0;
        });
    if (!pinned) {
      if (seed == sim::kDefaultSeed) r.fail("expected.json does not pin " + prefix);
      continue;
    }
    for (const auto& [name, value] : counts.fields) {
      const auto it = expected.find(prefix + name);
      if (it == expected.end()) {
        r.fail("expected.json has no " + prefix + name);
      } else if (it->second != value) {
        r.fail(prefix + name + " = " + value + ", expected " + it->second);
      }
    }
  }
}

// ---- output ----------------------------------------------------------------

std::string json_number(std::optional<double> v) {
  if (!v || !std::isfinite(*v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", *v);
  return buf;
}

std::string metrics_json(const Report& r, bool all) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!all && !m.in_json) continue;
    if (!first) out += ", ";
    first = false;
    out += '"' + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

std::string result_line(const Report& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.failures.empty() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(r.attempted, 1)
     << ", \"failed\": " << r.failed << ", \"metrics\": " << metrics_json(r, false)
     << "}";
  return os.str();
}

void write_result_file(const std::string& path, const WorkloadSpec& spec,
                       std::uint64_t seed, bool trace, const Report& r) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"workload\": \"" << spec.name << "\", \"seed\": " << seed
      << ", \"trace\": " << (trace ? 1 : 0)
      << ", \"correct\": " << (r.failures.empty() ? "true" : "false")
      << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out << (i ? ", " : "") << '"' << r.failures[i] << '"';
  }
  // Same shape as one workload's entry in expected.json.
  out << "], \"counts\": {";
  for (std::size_t i = 0; i < r.counts.size(); ++i) {
    out << (i ? ", " : "") << '"' << r.counts[i].first << "\": {";
    const auto& fields = r.counts[i].second.fields;
    for (std::size_t j = 0; j < fields.size(); ++j) {
      out << (j ? ", " : "") << '"' << fields[j].first
          << "\": " << fields[j].second;
    }
    out << '}';
  }
  out << "}, \"metrics\": " << metrics_json(r, true) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("workload", "", "workload name (see benchmark/README.md)");
  flags.define("seed", std::to_string(sim::kDefaultSeed), "input seed");
  flags.define("seconds", "20", "minimum timed span of a --trace=0 run");
  flags.define("trace", "0", "1 = per-layer run, 0 = timed end-to-end run");
  flags.define("expected", "", "expected.json pinning counts per seed");
  flags.define("out", "", "write the full result as JSON here");
  flags.define("trace-dir", "", "directory for the --trace=1 trace files");
  flags.define("list", "false", "print the workload names and exit");
  if (!flags.parse_or_usage(argc, argv)) return 2;
  if (flags.b("list")) {
    for (const WorkloadSpec& w : bench::kWorkloads) {
      std::printf("%s\n", std::string(w.name).c_str());
    }
    return 0;
  }

  const WorkloadSpec* spec = bench::find_workload(flags.str("workload"));
  if (spec == nullptr) {
    std::cerr << "risa_benchmark: unknown workload '" << flags.str("workload")
              << "'; one of:";
    for (const WorkloadSpec& w : bench::kWorkloads) std::cerr << ' ' << w.name;
    std::cerr << '\n';
    return 2;
  }
  try {
    const auto seed = static_cast<std::uint64_t>(std::stoull(flags.str("seed")));
    const bool trace = flags.str("trace") == "1";
    if (!trace && flags.str("trace") != "0") {
      throw std::invalid_argument("--trace takes 0 or 1");
    }
    const double seconds = flags.f64("seconds");
    Report r = trace ? run_traced(*spec, seed, seconds, flags.str("trace-dir"))
                     : run_timed(*spec, seed, seconds);
    check_expected(flags.str("expected"), *spec, r);

    for (const Metric& m : r.metrics) {
      if (m.value) {
        std::printf("%s %.6g %s\n", m.name.c_str(), *m.value, m.unit.c_str());
      } else {
        std::printf("%s n/a %s\n", m.name.c_str(), m.unit.c_str());
      }
    }
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "risa_benchmark: CHECK FAILED [%s seed %llu]: %s\n",
                   std::string(spec->name).c_str(),
                   static_cast<unsigned long long>(seed), f.c_str());
    }
    if (!flags.str("out").empty()) {
      write_result_file(flags.str("out"), *spec, seed, trace, r);
    }
    std::printf("%s\n", result_line(r).c_str());
    return r.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "risa_benchmark: error: " << e.what() << '\n';
    return 1;
  }
}
