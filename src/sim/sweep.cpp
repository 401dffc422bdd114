#include "sim/sweep.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/flags.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "core/registry.hpp"
#include "sim/experiments.hpp"
#include "workload/azure.hpp"
#include "workload/synthetic.hpp"

namespace risa::sim {

namespace {
/// Trace-file name component: labels can carry spaces/slashes ("Azure
/// 3000"); anything outside [A-Za-z0-9_-] becomes '-'.
std::string sanitize_label(std::string_view label) {
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += keep ? c : '-';
  }
  return out;
}
}  // namespace

WorkloadSpec WorkloadSpec::synthetic(std::size_t count) {
  WorkloadSpec spec;
  spec.label = "Synthetic";
  spec.generate = [count](std::uint64_t seed) {
    wl::SyntheticConfig config;
    if (count > 0) config.count = count;
    return wl::generate_synthetic(config, seed);
  };
  return spec;
}

WorkloadSpec WorkloadSpec::azure(const std::string& subset) {
  const std::string key = to_lower(subset);
  for (const wl::AzureSpec& azure : wl::azure_all_subsets()) {
    if (to_lower(azure.label).find(key) == std::string::npos) continue;
    WorkloadSpec spec;
    spec.label = azure.label;
    spec.generate = [azure](std::uint64_t seed) {
      return wl::generate_azure(azure, seed);
    };
    return spec;
  }
  throw std::invalid_argument("WorkloadSpec::azure: unknown subset '" +
                              subset + "'");
}

std::vector<WorkloadSpec> WorkloadSpec::azure_all() {
  std::vector<WorkloadSpec> out;
  for (const wl::AzureSpec& azure : wl::azure_all_subsets()) {
    WorkloadSpec spec;
    spec.label = azure.label;
    spec.generate = [azure](std::uint64_t seed) {
      return wl::generate_azure(azure, seed);
    };
    out.push_back(std::move(spec));
  }
  return out;
}

WorkloadSpec WorkloadSpec::fixed(std::string label, wl::Workload w) {
  WorkloadSpec spec;
  spec.label = std::move(label);
  auto shared = std::make_shared<wl::Workload>(std::move(w));
  spec.generate = [shared](std::uint64_t) { return *shared; };
  return spec;
}

void SweepSpec::validate() const {
  if (scenarios.empty() || workloads.empty() || seeds.empty() ||
      algorithms.empty()) {
    throw std::invalid_argument("SweepSpec: empty matrix axis");
  }
  for (const auto& [label, scenario] : scenarios) {
    if (label.empty()) {
      throw std::invalid_argument("SweepSpec: unlabeled scenario");
    }
    scenario.validate();
  }
  for (const WorkloadSpec& w : workloads) {
    if (w.label.empty() || !w.generate) {
      throw std::invalid_argument("SweepSpec: malformed workload spec");
    }
  }
  for (const auto& [label, plan] : fault_plans) {
    if (label.empty()) {
      throw std::invalid_argument("SweepSpec: unlabeled fault plan");
    }
    plan.validate();
  }
  for (const auto& [label, plan] : migration_plans) {
    if (label.empty()) {
      throw std::invalid_argument("SweepSpec: unlabeled migration plan");
    }
    plan.validate();
  }
}

SweepSpec SweepSpec::figure_matrix(std::uint64_t seed) {
  SweepSpec spec;
  spec.scenarios = {{"paper", Scenario::paper_defaults()}};
  spec.workloads.push_back(WorkloadSpec::synthetic());
  for (WorkloadSpec& azure : WorkloadSpec::azure_all()) {
    spec.workloads.push_back(std::move(azure));
  }
  spec.seeds = {seed};
  spec.algorithms = core::algorithm_names();
  return spec;
}

SweepRunner::SweepRunner(int threads)
    : threads_(resolve_thread_count(threads)) {}

std::vector<SweepResult> SweepRunner::run(const SweepSpec& spec) const {
  spec.validate();

  // Materialize each (workload, seed) pair exactly once, up front, so the
  // matrix shares one immutable copy per pair instead of regenerating it
  // per algorithm cell.  Generation itself is parallelized the same way as
  // the cells (the Azure decoders are pure functions of their seed).
  const std::size_t pairs = spec.workloads.size() * spec.seeds.size();
  std::vector<wl::Workload> workloads(pairs);
  const std::size_t cells = spec.cell_count();
  const int pool_threads =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(threads_), std::max<std::size_t>(cells, 1)));
  ThreadPool pool(pool_threads);
  pool.run_indexed(pairs, [&](std::size_t, std::size_t i) {
    const std::size_t w = i / spec.seeds.size();
    const std::size_t s = i % spec.seeds.size();
    workloads[i] = spec.workloads[w].generate(spec.seeds[s]);
  });

  std::vector<SweepResult> results(cells);

  // Per-lane engine pool: one reusable stack per worker, rebuilt only when
  // the lane crosses a scenario boundary.
  std::vector<std::unique_ptr<Engine>> engines(pool.size());
  std::vector<std::size_t> engine_scenario(pool.size(), SIZE_MAX);

  pool.run_indexed(cells, [&](std::size_t lane, std::size_t i) {
    // Invert the scenario-major expansion (see SweepSpec::cell_index).
    std::size_t rest = i;
    const std::size_t a = rest % spec.algorithms.size();
    rest /= spec.algorithms.size();
    const std::size_t g = rest % spec.migration_count();
    rest /= spec.migration_count();
    const std::size_t f = rest % spec.fault_count();
    rest /= spec.fault_count();
    const std::size_t s = rest % spec.seeds.size();
    rest /= spec.seeds.size();
    const std::size_t w = rest % spec.workloads.size();
    const std::size_t sc = rest / spec.workloads.size();

    std::unique_ptr<Engine>& engine = engines[lane];
    if (engine == nullptr || engine_scenario[lane] != sc) {
      engine = std::make_unique<Engine>(spec.scenarios[sc].second,
                                        spec.algorithms[a]);
      engine_scenario[lane] = sc;
    } else {
      engine->set_algorithm(spec.algorithms[a]);
    }

    SweepResult& r = results[i];
    r.cell = i;
    r.scenario_index = sc;
    r.workload_index = w;
    r.seed_index = s;
    r.fault_index = f;
    r.migration_index = g;
    r.algorithm_index = a;
    r.scenario = spec.scenarios[sc].first;
    r.fault_plan =
        spec.fault_plans.empty() ? "none" : spec.fault_plans[f].first;
    r.migration_plan = spec.migration_plans.empty()
                           ? "none"
                           : spec.migration_plans[g].first;
    r.seed = spec.seeds[s];

    // The cell's fault/migration plans (the scenario's own when an axis is
    // unused).
    engine->set_fault_plan(
        spec.fault_plans.empty() ? nullptr : &spec.fault_plans[f].second);
    engine->set_migration_plan(spec.migration_plans.empty()
                                   ? nullptr
                                   : &spec.migration_plans[g].second);
    engine->set_profiling(spec.record_profile);
    engine->set_latency_histogram(spec.record_latency ? &r.latency : nullptr);
    // Per-cell trace (DESIGN.md §14): a private Telemetry per cell keeps
    // the lanes share-nothing, so traced sweeps stay deterministic at any
    // thread count (the trace file is named by cell index, not lane).
    std::unique_ptr<Telemetry> cell_tel;
    if (!spec.trace_dir.empty()) {
      TelemetryConfig cfg = spec.telemetry;
      cfg.trace_path = spec.trace_dir + "/cell" + std::to_string(i) + "." +
                       sanitize_label(spec.workloads[w].label) + "." +
                       sanitize_label(spec.algorithms[a]) + ".trace.json";
      cell_tel = std::make_unique<Telemetry>(std::move(cfg));
      engine->set_telemetry(cell_tel.get());
    }
    r.metrics = engine->run(workloads[w * spec.seeds.size() + s],
                            spec.workloads[w].label);
    engine->set_telemetry(nullptr);
    engine->set_latency_histogram(nullptr);
    engine->set_fault_plan(nullptr);
    engine->set_migration_plan(nullptr);
  });

  return results;
}

std::vector<SimMetrics> metrics_of(const std::vector<SweepResult>& results) {
  std::vector<SimMetrics> out;
  out.reserve(results.size());
  for (const SweepResult& r : results) out.push_back(r.metrics);
  return out;
}

namespace {

void put_u64(std::ostringstream& os, std::uint64_t v) {
  os << std::hex << v << std::dec << '|';
}

void put_f64(std::ostringstream& os, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(os, bits);
}

}  // namespace

std::string metrics_fingerprint(const SimMetrics& m) {
  std::ostringstream os;
  os << m.algorithm << '|' << m.workload << '|';
  put_u64(os, m.total_vms);
  put_u64(os, m.placed);
  put_u64(os, m.dropped);
  put_u64(os, m.inter_rack_placements);
  put_u64(os, m.any_pair_inter_rack);
  put_u64(os, m.fallback_placements);
  for (const core::DropReason reason : m.drops_by_reason.seen()) {
    os << core::name(reason) << '=' << m.drops_by_reason[reason] << '|';
  }
  for (ResourceType t : kAllResources) {
    put_f64(os, m.avg_utilization[t]);
    put_f64(os, m.peak_utilization[t]);
  }
  put_f64(os, m.avg_intra_net_utilization);
  put_f64(os, m.avg_inter_net_utilization);
  put_f64(os, m.peak_intra_net_utilization);
  put_f64(os, m.peak_inter_net_utilization);
  put_f64(os, m.avg_optical_power_w);
  put_f64(os, m.energy.switch_switching_j);
  put_f64(os, m.energy.switch_trimming_j);
  put_f64(os, m.energy.transceiver_j);
  put_u64(os, m.cpu_ram_latency_ns.count());
  put_f64(os, m.cpu_ram_latency_ns.sum());
  put_f64(os, m.cpu_ram_latency_ns.mean());
  put_f64(os, m.cpu_ram_latency_ns.count() > 0 ? m.cpu_ram_latency_ns.min()
                                               : 0.0);
  put_f64(os, m.cpu_ram_latency_ns.count() > 0 ? m.cpu_ram_latency_ns.max()
                                               : 0.0);
  // scheduler_exec_seconds and sim_wall_seconds deliberately omitted:
  // wall-clock, not simulation outputs (see the determinism contract in
  // sweep.hpp).  events_executed is omitted too -- it is derivable
  // (total_vms + placed), and keeping the field set frozen keeps digests
  // comparable across engine generations.
  put_f64(os, m.horizon_tu);
  return os.str();
}

}  // namespace risa::sim
