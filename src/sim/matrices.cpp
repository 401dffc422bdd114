#include "sim/matrices.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/table.hpp"
#include "core/registry.hpp"
#include "core/search.hpp"
#include "network/bandwidth.hpp"
#include "sim/experiments.hpp"
#include "sim/fault_plan.hpp"
#include "sim/migration_plan.hpp"
#include "sim/report.hpp"
#include "workload/characterize.hpp"

namespace risa::sim {

const SimMetrics& MatrixRun::cell(std::size_t scenario, std::size_t workload,
                                  std::size_t algorithm) const {
  return results.at(spec.cell_index(scenario, workload, 0, algorithm)).metrics;
}

std::size_t MatrixRun::algorithm(std::string_view algorithm) const {
  const auto it =
      std::find(spec.algorithms.begin(), spec.algorithms.end(), algorithm);
  if (it == spec.algorithms.end()) {
    throw std::logic_error("MatrixRun: no algorithm " + std::string(algorithm));
  }
  return static_cast<std::size_t>(it - spec.algorithms.begin());
}

namespace {

using Values = std::vector<double>;
using Metric = double (*)(const SimMetrics&);
using Holds = std::function<bool(const Values&)>;
using Names = std::vector<std::string>;
using Scenarios = std::vector<std::pair<std::string, Scenario>>;

double power_w(const SimMetrics& m) { return m.avg_optical_power_w; }
double kw(const SimMetrics& m) { return m.avg_optical_power_w / 1000.0; }
double inter(const SimMetrics& m) { return m.inter_rack_fraction(); }
double migrated(const SimMetrics& m) { return static_cast<double>(m.migrated); }
double rtt_ns(const SimMetrics& m) {
  return m.cpu_ram_latency_ns.count() > 0 ? m.cpu_ram_latency_ns.mean() : 0.0;
}
double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}
double kills_replaced(const SimMetrics& m) {
  return ratio(m.retry_placed, m.killed);
}
/// Inter-rack share net of migration (migration_table's column).
double net_inter(const SimMetrics& m) {
  return ratio(m.inter_rack_placements -
                   std::min(m.interrack_vms_recovered, m.inter_rack_placements),
               m.total_vms);
}

/// `metric` in every cell of each named algorithm: algorithm by algorithm,
/// cells in expansion order.
Values series(const MatrixRun& run, const Names& algorithms, Metric metric) {
  Values out;
  for (const std::string& algorithm : algorithms) {
    for (std::size_t i = run.algorithm(algorithm); i < run.results.size();
         i += run.spec.algorithms.size()) {
      out.push_back(metric(run.results[i].metrics));
    }
  }
  return out;
}

/// RISA's optical-power saving against NULB, cell by cell.
Values savings(const MatrixRun& run) {
  const Values nulb = series(run, {"NULB"}, power_w);
  Values out = series(run, {"RISA"}, power_w);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = 1.0 - out[i] / nulb[i];
  return out;
}

/// How a claim prints its values: `scale * value` at `precision`, joined by
/// `separator`, then `unit`.
struct Shown {
  double scale = 100.0;
  int precision = 1;
  const char* separator = "/";
  const char* unit = "%";
};
constexpr Shown kCounts{1.0, 0, "/", ""};
constexpr Shown kWatts{1.0, 0, "/", " W"};

Claim claim(ClaimKind kind, std::string text,
            std::function<Values(const MatrixRun&)> values, Holds holds,
            Shown shown = {}) {
  return {kind, std::move(text), [=](const MatrixRun& run) {
            const Values v = values(run);
            std::string measured;
            for (std::size_t i = 0; i < v.size(); ++i) {
              if (i > 0) measured += shown.separator;
              measured += TextTable::num(v[i] * shown.scale, shown.precision);
            }
            return ClaimVerdict{holds(v), measured + shown.unit};
          }};
}

/// A claim on `metric` in every cell of the named algorithms.
Claim claim(ClaimKind kind, std::string text, Names algorithms, Metric metric,
            Holds holds, Shown shown = {}) {
  return claim(
      kind, std::move(text),
      [=](const MatrixRun& run) { return series(run, algorithms, metric); },
      std::move(holds), shown);
}

template <class Pred>
Holds every(Pred pred) {
  return [=](const Values& v) { return std::all_of(v.begin(), v.end(), pred); };
}
Holds below(double bound) {
  return every([bound](double x) { return x < bound; });
}
Holds above(double bound) {
  return every([bound](double x) { return x > bound; });
}
const Holds kZero = every([](double x) { return x == 0.0; });
const Holds kRising = [](const Values& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
         v.end();
};
const Holds kFalling = [](const Values& v) {
  return std::adjacent_find(v.begin(), v.end(), std::less_equal<>()) ==
         v.end();
};

/// A one-seed spec; the paper scenario alone unless `scenarios` is given.
SweepSpec spec_of(std::uint64_t seed, std::vector<WorkloadSpec> workloads,
                  Names algorithms, Scenarios scenarios = {}) {
  SweepSpec spec;
  spec.scenarios = std::move(scenarios);
  if (spec.scenarios.empty()) {
    spec.scenarios = {{"paper", Scenario::paper_defaults()}};
  }
  spec.workloads = std::move(workloads);
  spec.seeds = {seed};
  spec.algorithms = std::move(algorithms);
  return spec;
}

// --- figures: Figures 5-12 and the §5.1 text --------------------------------

wl::Characterization characterized(const MatrixRun& run, std::size_t w) {
  return wl::characterize(run.spec.workloads[w].generate(run.spec.seeds.at(0)),
                          10);
}

/// One histogram of Figure 6; `paper` holds the decoded bin counts.
TextTable figure6_table(const Histogram& h,
                        std::span<const std::int64_t> paper) {
  TextTable t({"Bin", "Range", "Count (measured)", "Count (paper)"});
  for (std::size_t b = 0; b < h.bins(); ++b) {
    t.add_row({std::to_string(b),
               TextTable::num(h.bin_lo(b), 2) + " - " +
                   TextTable::num(h.bin_hi(b), 2),
               std::to_string(h.count(b)), std::to_string(paper[b])});
  }
  return t;
}

void print_figures(std::ostream& os, const MatrixRun& run) {
  const std::vector<SimMetrics> runs = metrics_of(run.results);
  // Synthetic rows feed Figures 5/11; Azure rows feed Figures 7-10/12.
  std::vector<SimMetrics> synthetic, azure;
  for (const SimMetrics& m : runs) {
    (m.workload == "Synthetic" ? synthetic : azure).push_back(m);
  }
  os << "=== Figure 5: inter-rack VM assignments (synthetic) ===\n"
     << figure5_table(synthetic) << '\n'
     << "=== SS5.1 text: average utilization (synthetic) ===\n"
     << utilization_table(synthetic) << '\n';
  for (std::size_t w = 0; w < run.spec.workloads.size(); ++w) {
    const std::string& label = run.spec.workloads[w].label;
    const std::span<const std::int64_t> paper = figure6_counts(label);
    if (paper.empty()) continue;
    const wl::Characterization ch = characterized(run, w);
    os << "=== Figure 6 (" << label << "): CPU cores histogram ===\n"
       << figure6_table(ch.cpu, paper.first(10)) << "=== Figure 6 (" << label
       << "): RAM GB histogram ===\n"
       << figure6_table(ch.ram, paper.subspan(10)) << '\n';
  }
  os << "=== Figure 7: % inter-rack VM assignments (Azure) ===\n"
     << figure7_table(azure) << '\n'
     << "=== Figure 8: network utilization (Azure) ===\n"
     << figure8_table(azure) << '\n'
     << "=== Figure 9: optical component power (Azure) ===\n"
     << figure9_table(azure) << '\n'
     << figure9_reduction_table(azure) << '\n'
     << "=== Figure 10: CPU-RAM round-trip latency (Azure) ===\n"
     << figure10_table(azure) << '\n'
     << "=== Figure 11 shape: scheduler execution time (synthetic) ===\n"
     << exec_time_table(synthetic, "fig11") << '\n'
     << "=== Figure 12 shape: scheduler execution time (Azure) ===\n"
     << exec_time_table(azure, "fig12") << '\n'
     << "=== Full metrics ===\n"
     << full_metrics_table(runs);
  // A plan axis here comes from figure_suite's --faults or --migrations.
  if (!run.spec.fault_plans.empty()) {
    os << "\n=== Lifecycle outcomes (fault plan) ===\n"
       << lifecycle_table(run.results);
  }
  if (!run.spec.migration_plans.empty()) {
    os << "\n=== Defragmentation outcomes (migration plan) ===\n"
       << migration_table(run.results);
  }
}

Claim figure6_claim(const std::string& subset) {
  const std::span<const std::int64_t> paper = figure6_counts(subset);
  return claim(
      ClaimKind::Exact,
      "Figure 6 (" + subset + "): CPU and RAM histograms equal the paper's",
      [subset](const MatrixRun& run) {
        Values counts;
        for (std::size_t w = 0; w < run.spec.workloads.size(); ++w) {
          if (run.spec.workloads[w].label != subset) continue;
          const wl::Characterization ch = characterized(run, w);
          for (const Histogram* h : {&ch.cpu, &ch.ram}) {
            counts.insert(counts.end(), h->counts().begin(), h->counts().end());
          }
        }
        return counts;
      },
      [paper = Values(paper.begin(), paper.end())](const Values& counts) {
        return counts == paper;
      },
      kCounts);
}

// --- failures (DESIGN.md §8) and migration (§9) plans -----------------------

/// Fail `boxes` random boxes once 1500 VMs have been admitted.
FaultPlan fail_after_1500(std::uint32_t boxes, std::uint32_t retries) {
  return {.actions = {{.after_admissions = 1500, .random_boxes = boxes}},
          .retry = {retries, retries > 0 ? 25.0 : 0.0},
          .seed = 99};  // victim-draw stream, independent of the workload
}

/// ~15 seeded box failures over the Azure-3000 horizon (~46750 tu), each
/// repaired ~800 tu later, with two bounded requeue attempts per victim.
/// Requeued VMs placed while their home rack is degraded are exactly the
/// stragglers migration recovers.
FaultPlan mtbf_churn() {
  FaultPlan plan = compile_mtbf_plan(
      {.mtbf_tu = 3000.0,
       .mttr_tu = 800.0,
       .seed = 99,  // failure-process stream, independent of the workload
       .horizon_tu = 45000.0,
       .num_boxes = Scenario::paper_defaults().cluster.total_boxes()});
  plan.retry = {2, 25.0};
  return plan;
}

/// Sweeps every `period` tu, up to `per_sweep` moves each and `total` over
/// the run, charging transfer time on both placements and waiting out
/// degraded windows.
MigrationPlan defrag(double period, std::uint32_t per_sweep,
                     std::uint32_t total) {
  return {.period_tu = period,
          .per_sweep_budget = per_sweep,
          .total_budget = total,
          .skip_while_degraded = true};
}

// --- the registry -----------------------------------------------------------

std::vector<Matrix> registry() {
  using net::BandwidthBasis;
  const WorkloadSpec azure3000 = WorkloadSpec::azure("3000");
  const auto paper = [](std::string label) {
    return std::pair{std::move(label), Scenario::paper_defaults()};
  };
  std::vector<Matrix> m;

  m.push_back({"figures", "figure_suite", SweepSpec::figure_matrix,
               print_figures,
               {figure6_claim("Azure-3000"), figure6_claim("Azure-5000"),
                figure6_claim("Azure-7500")}});

  // alpha: the MRR cell-sharing factor of Eq. (1), bounded in [0.5, 1.0].
  Scenarios alphas;
  for (const double alpha : {0.5, 0.7, 0.9, 1.0}) {
    alphas.push_back(paper(TextTable::num(alpha, 2)));
    alphas.back().second.photonics.switch_energy.mrr.alpha = alpha;
  }
  m.push_back(
      {"alpha", "ablation_alpha",
       [=](std::uint64_t seed) {
         return spec_of(seed, {azure3000}, {"NULB", "RISA"}, alphas);
       },
       [](std::ostream& os, const MatrixRun& run) {
         os << "=== Ablation: alpha sweep of Eq. (1), Azure-3000 ===\n";
         TextTable t({"alpha", "NULB kW", "RISA kW", "RISA reduction"});
         const Values saving = savings(run);
         for (std::size_t s = 0; s < saving.size(); ++s) {
           t.add_row({run.spec.scenarios[s].first,
                      TextTable::num(kw(run.cell(s, 0, 0)), 3),
                      TextTable::num(kw(run.cell(s, 0, 1)), 3),
                      TextTable::pct(saving[s], 1)});
         }
         os << t;
       },
       {claim(ClaimKind::Ordering,
              "RISA's optical power is below NULB's at every alpha (saving)",
              savings, above(0.0)),
        claim(ClaimKind::Ratio,
              "Optical power is linear in alpha: NULB's, then RISA's, interior "
              "points lie within 0.1% of the line through the end points",
              [](const MatrixRun& run) {
                Values a, out;
                for (const auto& s : run.spec.scenarios) {
                  a.push_back(s.second.photonics.switch_energy.mrr.alpha);
                }
                for (const char* algorithm : {"NULB", "RISA"}) {
                  const Values p = series(run, {algorithm}, power_w);
                  for (std::size_t i = 1; i + 1 < p.size(); ++i) {
                    const double line = p[0] + (p.back() - p[0]) *
                                                   (a[i] - a[0]) /
                                                   (a.back() - a[0]);
                    out.push_back(std::abs(p[i] - line) / line);
                  }
                }
                return out;
              },
              below(0.001), {100.0, 3})}});

  // bandwidth: Table 2's "Gb/s per unit" basis (DESIGN.md §2.5).
  constexpr std::pair<BandwidthBasis, BandwidthBasis> kBases[] = {
      {BandwidthBasis::CpuUnits, BandwidthBasis::RamUnits},
      {BandwidthBasis::CpuUnits, BandwidthBasis::StorageUnits},
      {BandwidthBasis::RamUnits, BandwidthBasis::RamUnits},
      {BandwidthBasis::RamUnits, BandwidthBasis::StorageUnits}};
  Scenarios bases;
  for (const auto& [cpu_ram, ram_sto] : kBases) {
    bases.push_back(paper(std::string(net::name(cpu_ram)) + " / " +
                          std::string(net::name(ram_sto)) +
                          (bases.empty() ? " (default)" : "")));
    bases.back().second.bandwidth.cpu_ram_basis = cpu_ram;
    bases.back().second.bandwidth.ram_sto_basis = ram_sto;
  }
  m.push_back(
      {"bandwidth", "ablation_bandwidth",
       [=](std::uint64_t seed) {
         return spec_of(seed, {azure3000}, core::algorithm_names(), bases);
       },
       [](std::ostream& os, const MatrixRun& run) {
         os << "=== Ablation: Table 2 bandwidth-basis interpretation, "
               "Azure-3000 ===\n";
         TextTable t({"Basis (cpu-ram / ram-sto)", "NULB inter-rack %",
                      "RISA inter-rack %", "NULB kW", "RISA kW",
                      "Drops (all)"});
         for (std::size_t s = 0; s < run.spec.scenarios.size(); ++s) {
           const SimMetrics& nulb = run.cell(s, 0, run.algorithm("NULB"));
           const SimMetrics& risa = run.cell(s, 0, run.algorithm("RISA"));
           std::uint64_t drops = 0;
           for (std::size_t a = 0; a < run.spec.algorithms.size(); ++a) {
             drops += run.cell(s, 0, a).dropped;
           }
           t.add_row({run.spec.scenarios[s].first,
                      TextTable::pct(inter(nulb), 1),
                      TextTable::pct(inter(risa), 1),
                      TextTable::num(kw(nulb), 2), TextTable::num(kw(risa), 2),
                      std::to_string(drops)});
         }
         os << t;
       },
       {claim(ClaimKind::Ordering,
              "RISA's optical power is below NULB's under every basis (saving)",
              savings, above(0.0)),
        claim(ClaimKind::Invariant,
              "RISA's inter-rack share is 0.0% under every basis", {"RISA"},
              inter, kZero)}});

  // packing: next-fit (RISA) vs best-fit (RISA-BF) under capacity pressure.
  Scenarios sizes;
  for (const std::uint32_t racks : {18u, 14u, 12u, 10u, 8u}) {
    sizes.push_back(paper(std::to_string(racks)));
    sizes.back().second.cluster.racks = racks;
  }
  // RISA-BF's relative placement gain over RISA per cluster size.
  const auto bf_gain = [](const MatrixRun& run) {
    Values out;
    for (std::size_t s = 0; s < run.spec.scenarios.size(); ++s) {
      out.push_back(ratio(run.cell(s, 0, 1).placed, run.cell(s, 0, 0).placed) -
                    1.0);
    }
    return out;
  };
  m.push_back(
      {"packing", "ablation_packing",
       [=](std::uint64_t seed) {
         return spec_of(seed, {WorkloadSpec::synthetic()}, {"RISA", "RISA-BF"},
                        sizes);
       },
       [](std::ostream& os, const MatrixRun& run) {
         os << "=== Ablation: intra-rack packing under capacity pressure "
               "(synthetic, 2500 VMs) ===\n";
         TextTable t({"Racks", "RISA placed", "RISA-BF placed", "RISA drops",
                      "RISA-BF drops", "BF advantage"});
         for (std::size_t s = 0; s < run.spec.scenarios.size(); ++s) {
           const SimMetrics& nf = run.cell(s, 0, 0);
           const SimMetrics& bf = run.cell(s, 0, 1);
           const auto gain = static_cast<std::int64_t>(bf.placed) -
                             static_cast<std::int64_t>(nf.placed);
           t.add_row({run.spec.scenarios[s].first, std::to_string(nf.placed),
                      std::to_string(bf.placed), std::to_string(nf.dropped),
                      std::to_string(bf.dropped),
                      std::string(gain >= 0 ? "+" : "") + std::to_string(gain)});
         }
         os << t;
       },
       {claim(ClaimKind::Ratio,
              "At the paper's 18 racks (first) RISA and RISA-BF place within "
              "0.5% of each other, Figure 5's near-tie (RISA-BF's gain)",
              bf_gain, [](const Values& g) { return std::abs(g[0]) < 0.005; },
              {100.0, 2}),
        claim(ClaimKind::Ratio,
              "Under churn best-fit does not dominate next-fit: RISA-BF "
              "places at most 0.5% more VMs than RISA at every size",
              bf_gain, every([](double g) { return g <= 0.005; }),
              {100.0, 2})}});

  // search: the NULB/NALB companion-search reading (DESIGN.md §2.2).
  Scenarios readings = {paper("global id order (default)"),
                        paper("anchor-rack first (literal Alg. 2)")};
  readings[0].second.allocator.companion = core::CompanionSearch::GlobalOrder;
  readings[1].second.allocator.companion =
      core::CompanionSearch::AnchorRackFirst;
  // NULB's and NALB's inter-rack share on every subset under one reading.
  const auto reading = [](std::size_t s) {
    return [s](const MatrixRun& run) {
      Values out;
      for (std::size_t w = 0; w < run.spec.workloads.size(); ++w) {
        for (std::size_t a = 0; a < run.spec.algorithms.size(); ++a) {
          out.push_back(inter(run.cell(s, w, a)));
        }
      }
      return out;
    };
  };
  m.push_back(
      {"search", "ablation_search",
       [=](std::uint64_t seed) {
         return spec_of(seed, WorkloadSpec::azure_all(), {"NULB", "NALB"},
                        readings);
       },
       [](std::ostream& os, const MatrixRun& run) {
         os << "=== Ablation: companion-search interpretation for NULB/NALB "
               "===\n";
         TextTable t(
             {"Workload", "Algorithm", "Reading", "Inter-rack %", "Paper %"});
         // Rows run workload -> algorithm -> reading; cells are reading-major.
         for (std::size_t w = 0; w < run.spec.workloads.size(); ++w) {
           for (std::size_t a = 0; a < run.spec.algorithms.size(); ++a) {
             for (std::size_t s = 0; s < run.spec.scenarios.size(); ++s) {
               const SimMetrics& c = run.cell(s, w, a);
               t.add_row({c.workload, c.algorithm, run.spec.scenarios[s].first,
                          TextTable::pct(inter(c), 1),
                          paper_cell("fig7", c.workload, c.algorithm, 0)});
             }
           }
         }
         os << t;
       },
       {claim(ClaimKind::Invariant,
              "The anchor-rack-first reading puts under 0.5% of VMs "
              "inter-rack on every subset, for NULB and NALB",
              reading(1), below(0.005)),
        claim(ClaimKind::Invariant,
              "The global-order reading puts over 50% of VMs inter-rack on "
              "every subset, for NULB and NALB (paper: 52/48% on Azure-3000)",
              reading(0), above(0.5))}});

  // baselines: RISA against classic placement disciplines.
  m.push_back(
      {"baselines", "extension_baselines",
       [=](std::uint64_t seed) {
         return spec_of(seed, {azure3000, WorkloadSpec::synthetic()},
                        {"RISA", "NULB", "WF", "RANDOM"});
       },
       [](std::ostream& os, const MatrixRun& run) {
         os << "=== Extension: RISA vs classic placement disciplines ===\n";
         TextTable t({"Workload", "Algorithm", "Placed", "Inter-rack %",
                      "Power kW", "RTT ns"});
         for (const SimMetrics& c : metrics_of(run.results)) {
           t.add_row({c.workload, c.algorithm, std::to_string(c.placed),
                      TextTable::pct(inter(c), 1), TextTable::num(kw(c), 2),
                      TextTable::num(rtt_ns(c), 1)});
         }
         os << t;
       },
       {claim(ClaimKind::Invariant,
              "Load balancing without rack affinity (WF, then RANDOM) puts "
              "over 80% of VMs inter-rack on every workload",
              {"WF", "RANDOM"}, inter, above(0.8)),
        claim(ClaimKind::Invariant,
              "Global first-fit (NULB) concentrates but still splits: 30-80% "
              "of VMs inter-rack on every workload",
              {"NULB"}, inter,
              every([](double x) { return x > 0.3 && x < 0.8; })),
        claim(ClaimKind::Invariant,
              "Only RISA keeps locality: under 5% of VMs inter-rack on every "
              "workload",
              {"RISA"}, inter, below(0.05))}});

  // threetier: the paper's two-tier fabric vs a pod-structured one.
  Scenarios fabrics;
  for (const std::uint32_t per_pod : {0u, 6u, 3u}) {
    fabrics.push_back(paper(per_pod == 0 ? "two-tier (paper)"
                                         : "three-tier, " +
                                               std::to_string(per_pod) +
                                               " racks/pod"));
    fabrics.back().second.fabric.racks_per_pod = per_pod;
  }
  m.push_back(
      {"threetier", "extension_threetier",
       [=](std::uint64_t seed) {
         return spec_of(seed, {azure3000}, {"NULB", "RISA"}, fabrics);
       },
       [](std::ostream& os, const MatrixRun& run) {
         os << "=== Extension: two-tier vs three-tier fabric (Azure-3000) "
               "===\n";
         TextTable t({"Fabric", "Algorithm", "Inter-rack %", "Power kW",
                      "RTT ns", "RISA power advantage"});
         const Values saving = savings(run);
         for (const SweepResult& r : run.results) {
           const SimMetrics& c = r.metrics;
           t.add_row({r.scenario, c.algorithm, TextTable::pct(inter(c), 1),
                      TextTable::num(kw(c), 2), TextTable::num(rtt_ns(c), 1),
                      c.algorithm == "RISA"
                          ? TextTable::pct(saving[r.scenario_index], 1)
                          : "-"});
         }
         os << t;
       },
       {claim(ClaimKind::Invariant,
              "RISA's inter-rack share is 0.0% on every fabric", {"RISA"},
              inter, kZero),
        claim(ClaimKind::Ordering,
              "RISA's power saving against NULB grows with fabric depth",
              savings, kRising, {100.0, 1, " < "}),
        claim(ClaimKind::Ordering, "NULB's CPU-RAM RTT grows with fabric depth",
              {"NULB"}, rtt_ns, kRising, {1.0, 1, " < ", " ns"})}});

  // failures: box failures on the merged lifecycle stream.
  m.push_back(
      {"failures", "extension_failures",
       [](std::uint64_t seed) {
         SweepSpec spec = spec_of(seed, {WorkloadSpec::azure("azure-3000")},
                                  core::algorithm_names());
         for (const std::uint32_t k : {2u, 6u, 12u}) {
           spec.fault_plans.emplace_back("fail" + std::to_string(k),
                                         fail_after_1500(k, 0));
         }
         // The middle point again, with two re-placement attempts per drop
         // and kill.
         spec.fault_plans.emplace_back("fail6+retry", fail_after_1500(6, 2));
         return spec;
       },
       [](std::ostream& os, const MatrixRun& run) {
         os << "=== Extension: resilience to box failures (Azure-3000, fail "
               "K boxes after 1500 admissions) ===\n"
            << lifecycle_table(run.results);
       },
       {claim(ClaimKind::Invariant,
              "RISA, then RISA-BF, keep placing intra-rack around offline "
              "boxes: 0.0% inter-rack under every fault plan",
              {"RISA", "RISA-BF"}, inter, kZero),
        claim(ClaimKind::Exact,
              "Every algorithm re-places every kill under the retry plan "
              "(the last)",
              [](const MatrixRun& r) {
                Values out;
                for (const std::string& algorithm : r.spec.algorithms) {
                  out.push_back(series(r, {algorithm}, kills_replaced).back());
                }
                return out;
              },
              every([](double x) { return x == 1.0; }), {100.0, 0})}});

  // migration: live-migration defragmentation under churn.
  const auto above_none = [](const Values& p, std::size_t n) {
    return std::all_of(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(n),
                       [&](double x) { return x >= p[0]; });
  };
  m.push_back(
      {"migration", "extension_migration",
       [](std::uint64_t seed) {
         SweepSpec spec = spec_of(seed, {WorkloadSpec::azure("azure-3000")},
                                  core::algorithm_names());
         spec.fault_plans = {{"mtbf15", mtbf_churn()}};
         spec.migration_plans = {{"none", MigrationPlan{}},
                                 {"defrag-light", defrag(500.0, 4, 200)},
                                 {"defrag-medium", defrag(250.0, 8, 1000)},
                                 {"defrag-heavy", defrag(100.0, 16, 4000)}};
         return spec;
       },
       [](std::ostream& os, const MatrixRun& run) {
         os << "=== Extension: live-migration defragmentation (Azure-3000, "
               "MTBF churn, migration-budget axis) ===\n"
            << migration_table(run.results);
       },
       {claim(ClaimKind::Invariant,
              "RISA, then RISA-BF, admit intra-rack, so they migrate 0 VMs "
              "under every budget",
              {"RISA", "RISA-BF"}, migrated, kZero, kCounts),
        claim(ClaimKind::Ordering,
              "NULB's net inter-rack share falls strictly as the budget grows",
              {"NULB"}, net_inter, kFalling, {100.0, 2, " -> "}),
        claim(ClaimKind::Ordering,
              "NULB's optical power falls below its no-migration value only "
              "under the heavy budget (the last)",
              {"NULB"}, power_w,
              [=](const Values& p) {
                return above_none(p, p.size() - 1) && p.back() < p[0];
              },
              kWatts),
        claim(ClaimKind::Ordering,
              "Re-placing through bandwidth-greedy NALB gives the win back: "
              "its power never falls below its no-migration value",
              {"NALB"}, power_w,
              [=](const Values& p) { return above_none(p, p.size()); },
              kWatts)}});
  return m;
}

}  // namespace

const std::vector<Matrix>& matrices() {
  static const std::vector<Matrix> all = registry();
  return all;
}

std::size_t report_claims(std::ostream& os, const Matrix& matrix,
                          const MatrixRun& run) {
  std::size_t failed = 0;
  constexpr std::string_view kKinds[] = {"ordering", "ratio", "invariant",
                                         "exact"};
  os << "--- claims (" << matrix.name << ") ---\n";
  for (const Claim& claim : matrix.claims) {
    const ClaimVerdict v = claim.check(run);
    failed += v.holds ? 0 : 1;
    os << (v.holds ? "  ok    [" : "  FAIL  [")
       << kKinds[static_cast<std::size_t>(claim.kind)] << "] " << claim.text
       << ": " << v.measured << '\n';
  }
  return failed;
}

}  // namespace risa::sim
