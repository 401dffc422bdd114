// The experiment-matrix registry (sim/matrices.hpp): every claim holds at
// the default seed, no claim holds vacuously, every matrix is
// thread-count invariant, and the failures/migration matrices reproduce
// their committed BENCH_*.json cells.  Also pins the paper configuration
// (Tables 1 and 2, §3.2) that the matrices all start from.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "network/bandwidth.hpp"
#include "sim/experiments.hpp"
#include "sim/matrices.hpp"
#include "sim/report.hpp"

namespace {

using namespace risa;
using namespace risa::sim;

/// Every matrix executed once at the default seed on two threads.
const std::vector<MatrixRun>& default_runs() {
  static const std::vector<MatrixRun> runs = [] {
    std::vector<MatrixRun> out;
    for (const Matrix& m : matrices()) {
      MatrixRun run{m.spec(kDefaultSeed), {}};
      run.results = SweepRunner(2).run(run.spec);
      out.push_back(std::move(run));
    }
    return out;
  }();
  return runs;
}

/// The run with every cell whose index on `axis` is `i` or `j` moved to
/// the other index (labels move with the cells).  Axes: 0 scenario,
/// 1 workload, 2 fault plan, 3 migration plan, 4 algorithm.
MatrixRun swapped(const MatrixRun& run, int axis, std::size_t i,
                  std::size_t j) {
  MatrixRun out = run;
  for (std::size_t c = 0; c < run.results.size(); ++c) {
    const SweepResult& r = run.results[c];
    std::size_t at[] = {r.scenario_index, r.workload_index, r.fault_index,
                        r.migration_index, r.algorithm_index};
    if (at[axis] != i && at[axis] != j) continue;
    at[axis] = at[axis] == i ? j : i;
    out.results[c] =
        run.results[run.spec.cell_index(at[0], at[1], 0, at[2], at[3], at[4])];
  }
  return out;
}

/// Perturbed copies of `run`: every pair of positions swapped on every axis,
/// plus every pair of workloads whose generators trade places under their
/// own labels (Figure 6's claims read the workloads, not the cells).
std::vector<MatrixRun> perturbations(const MatrixRun& run) {
  const SweepSpec& s = run.spec;
  const std::size_t sizes[] = {s.scenarios.size(), s.workloads.size(),
                               s.fault_count(), s.migration_count(),
                               s.algorithms.size()};
  std::vector<MatrixRun> out;
  for (int axis = 0; axis < 5; ++axis) {
    for (std::size_t i = 0; i < sizes[axis]; ++i) {
      for (std::size_t j = i + 1; j < sizes[axis]; ++j) {
        out.push_back(swapped(run, axis, i, j));
        if (axis != 1) continue;
        MatrixRun relabeled = run;
        std::swap(relabeled.spec.workloads[i], relabeled.spec.workloads[j]);
        std::swap(relabeled.spec.workloads[i].label,
                  relabeled.spec.workloads[j].label);
        out.push_back(std::move(relabeled));
      }
    }
  }
  return out;
}

TEST(Matrices, RegistryHoldsEveryMatrixOnce) {
  std::set<std::string> names;
  for (const Matrix& m : matrices()) {
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
    EXPECT_FALSE(m.claims.empty()) << m.name;
  }
  EXPECT_EQ(matrices().front().name, "figures");
  EXPECT_EQ(names, (std::set<std::string>{"figures", "alpha", "bandwidth",
                                          "packing", "search", "baselines",
                                          "threetier", "failures",
                                          "migration"}));
}

TEST(Matrices, EveryClaimHoldsAtTheDefaultSeed) {
  for (std::size_t i = 0; i < matrices().size(); ++i) {
    const Matrix& m = matrices()[i];
    for (const Claim& claim : m.claims) {
      const ClaimVerdict v = claim.check(default_runs()[i]);
      EXPECT_TRUE(v.holds) << m.name << ": " << claim.text << ": "
                           << v.measured;
      EXPECT_FALSE(v.measured.empty()) << m.name << ": " << claim.text;
    }
  }
}

TEST(Matrices, ReportClaimsCountsFailures) {
  const Matrix& m = matrices()[1];
  std::ostringstream os;
  EXPECT_EQ(report_claims(os, m, default_runs()[1]), 0u);
  // NULB and RISA trade cells: RISA's saving turns negative.
  std::ostringstream failed;
  EXPECT_GE(report_claims(failed, m, swapped(default_runs()[1], 4, 0, 1)), 1u);
  EXPECT_NE(failed.str().find("FAIL"), std::string::npos);
}

TEST(Matrices, NoClaimIsVacuous) {
  for (std::size_t i = 0; i < matrices().size(); ++i) {
    const Matrix& m = matrices()[i];
    const std::vector<MatrixRun> perturbed = perturbations(default_runs()[i]);
    for (const Claim& claim : m.claims) {
      bool fails = false;
      for (const MatrixRun& run : perturbed) {
        if (!claim.check(run).holds) {
          fails = true;
          break;
        }
      }
      EXPECT_TRUE(fails) << m.name << ": no perturbation breaks \""
                         << claim.text << '"';
    }
  }
}

TEST(Matrices, BitIdenticalAtOneAndTwoThreads) {
  for (std::size_t i = 0; i < matrices().size(); ++i) {
    const MatrixRun& run = default_runs()[i];
    const std::vector<SweepResult> serial = SweepRunner(1).run(run.spec);
    ASSERT_EQ(serial.size(), run.results.size()) << matrices()[i].name;
    for (std::size_t c = 0; c < serial.size(); ++c) {
      EXPECT_EQ(metrics_fingerprint(serial[c].metrics),
                metrics_fingerprint(run.results[c].metrics))
          << matrices()[i].name << " cell " << c;
    }
  }
}

/// `json` without the `, "key": value` of each wall-clock field.
std::string without_timing(std::string json) {
  for (const std::string key : {"sched_s", "sim_s", "events_per_sec",
                                "profile"}) {
    const std::string field = ", \"" + key + "\": ";
    for (std::size_t at; (at = json.find(field)) != std::string::npos;) {
      // A profile is a flat object; the other values are numbers.
      const std::size_t end =
          key == "profile" ? json.find('}', at) + 1
                           : json.find_first_of(",}", at + field.size());
      json.erase(at, end - at);
    }
  }
  return json;
}

TEST(Matrices, FailuresAndMigrationReproduceTheCommittedJson) {
  const std::pair<const char*, const char*> committed[] = {
      {"failures", "BENCH_failures.json"},
      {"migration", "BENCH_migration.json"}};
  for (const auto& [name, file] : committed) {
    SCOPED_TRACE(name);
    std::size_t i = 0;
    while (matrices()[i].name != name) ++i;
    std::ifstream in(std::string(RISA_TEST_DATA_DIR "/../../") + file);
    ASSERT_TRUE(in) << file;
    const std::string expected{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
    const std::string actual =
        sweep_json(matrices()[i].benchmark, default_runs()[i].results);
    const std::string kept = without_timing(expected);
    EXPECT_EQ(kept.find("sched_s"), std::string::npos);
    std::size_t cells = 0;
    for (std::size_t at = 0; (at = kept.find("\"horizon_tu\"", at)) !=
                             std::string::npos;
         ++at) {
      ++cells;
    }
    EXPECT_EQ(cells, default_runs()[i].results.size());
    EXPECT_EQ(without_timing(actual), kept);
  }
}

// Scenario::paper_defaults() is the paper's evaluation configuration.
TEST(Scenario, PaperDefaultsMatchTables1And2) {
  const Scenario s = Scenario::paper_defaults();
  // Table 1: the disaggregated architecture.
  EXPECT_EQ(s.cluster.racks, 18u);
  EXPECT_EQ(s.cluster.total_boxes_per_rack(), 6u);
  EXPECT_EQ(s.cluster.bricks_per_box, 8u);
  EXPECT_EQ(s.cluster.units_per_brick, 16);
  EXPECT_EQ(s.cluster.unit_scale.cores_per_cpu_unit, 4);
  EXPECT_DOUBLE_EQ(to_gb(s.cluster.unit_scale.mb_per_ram_unit), 4.0);
  EXPECT_DOUBLE_EQ(to_gb(s.cluster.unit_scale.mb_per_storage_unit), 64.0);
  // Table 2: 5 Gb/s per CPU unit and 1 Gb/s per RAM unit.
  EXPECT_DOUBLE_EQ(to_gbps(s.bandwidth.cpu_ram_per_unit), 5.0);
  EXPECT_DOUBLE_EQ(to_gbps(s.bandwidth.ram_sto_per_unit), 1.0);
  EXPECT_EQ(s.bandwidth.cpu_ram_basis, net::BandwidthBasis::CpuUnits);
  EXPECT_EQ(s.bandwidth.ram_sto_basis, net::BandwidthBasis::RamUnits);
  // §3.2: MRR trim and switch power, the sharing factor, transceivers.
  EXPECT_DOUBLE_EQ(s.photonics.switch_energy.mrr.trim_power_w, 22.67e-3);
  EXPECT_DOUBLE_EQ(s.photonics.switch_energy.mrr.switch_power_w, 13.75e-3);
  EXPECT_DOUBLE_EQ(s.photonics.switch_energy.mrr.alpha, 0.9);
  EXPECT_DOUBLE_EQ(s.photonics.transceiver.energy_per_bit_j, 22.5e-12);
}

}  // namespace
