#include "sim/report.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/csv.hpp"
#include "common/histogram.hpp"
#include "common/json_cursor.hpp"
#include "common/string_util.hpp"
#include "sim/experiments.hpp"

namespace risa::sim {

TextTable figure5_table(const std::vector<SimMetrics>& runs) {
  TextTable t({"Algorithm", "Inter-rack VMs (measured)", "Paper",
               "Any-pair inter", "Placed", "Dropped"});
  for (const SimMetrics& m : runs) {
    t.add_row({m.algorithm,
               std::to_string(m.inter_rack_placements),
               paper_cell("fig5", m.workload, m.algorithm, 0),
               std::to_string(m.any_pair_inter_rack),
               std::to_string(m.placed), std::to_string(m.dropped)});
  }
  return t;
}

TextTable figure7_table(const std::vector<SimMetrics>& runs) {
  TextTable t({"Workload", "Algorithm", "Inter-rack % (measured)", "Paper %"});
  for (const SimMetrics& m : runs) {
    t.add_row({m.workload, m.algorithm,
               TextTable::num(m.inter_rack_fraction() * 100.0, 2),
               paper_cell("fig7", m.workload, m.algorithm, 1)});
  }
  return t;
}

TextTable figure8_table(const std::vector<SimMetrics>& runs) {
  TextTable t({"Workload", "Algorithm", "Intra % (measured)",
               "Intra % (paper)", "Inter % (measured)", "Inter % (paper)"});
  for (const SimMetrics& m : runs) {
    t.add_row({m.workload, m.algorithm,
               TextTable::num(m.avg_intra_net_utilization * 100.0, 2),
               paper_cell("fig8-intra", m.workload, m.algorithm, 1),
               TextTable::num(m.avg_inter_net_utilization * 100.0, 2),
               paper_cell("fig8-inter", m.workload, m.algorithm, 1)});
  }
  return t;
}

TextTable figure9_table(const std::vector<SimMetrics>& runs) {
  TextTable t({"Workload", "Algorithm", "Power kW (measured)",
               "Power kW (paper)", "Transceiver kW", "Switch-trim kW"});
  for (const SimMetrics& m : runs) {
    const double horizon_s = m.horizon_tu;  // 1 tu = 1 s by default
    const double txr_kw = m.energy.transceiver_j / horizon_s / 1000.0;
    const double trim_kw = m.energy.switch_trimming_j / horizon_s / 1000.0;
    t.add_row({m.workload, m.algorithm,
               TextTable::num(m.avg_optical_power_w / 1000.0, 2),
               paper_cell("fig9", m.workload, m.algorithm, 2),
               TextTable::num(txr_kw, 2), TextTable::num(trim_kw, 2)});
  }
  return t;
}

TextTable figure9_reduction_table(const std::vector<SimMetrics>& runs) {
  TextTable t({"Workload", "NULB kW", "RISA kW", "Reduction (measured)",
               "Reduction (paper)"});
  for (const SimMetrics& nulb : runs) {
    if (nulb.algorithm != "NULB") continue;
    const auto risa =
        std::find_if(runs.begin(), runs.end(), [&](const auto& m) {
          return m.workload == nulb.workload && m.algorithm == "RISA";
        });
    if (risa == runs.end()) continue;
    const auto paper_nulb = paper_reference("fig9", nulb.workload, "NULB");
    const auto paper_risa = paper_reference("fig9", nulb.workload, "RISA");
    t.add_row({nulb.workload,
               TextTable::num(nulb.avg_optical_power_w / 1000.0, 2),
               TextTable::num(risa->avg_optical_power_w / 1000.0, 2),
               TextTable::pct(
                   1.0 - risa->avg_optical_power_w / nulb.avg_optical_power_w,
                   1),
               paper_nulb && paper_risa
                   ? TextTable::pct(1.0 - *paper_risa / *paper_nulb, 1)
                   : "-"});
  }
  return t;
}

TextTable figure10_table(const std::vector<SimMetrics>& runs) {
  TextTable t({"Workload", "Algorithm", "CPU-RAM RTT ns (measured)",
               "Paper ns"});
  for (const SimMetrics& m : runs) {
    t.add_row({m.workload, m.algorithm,
               TextTable::num(m.cpu_ram_latency_ns.mean(), 1),
               paper_cell("fig10", m.workload, m.algorithm, 0)});
  }
  return t;
}

TextTable exec_time_table(const std::vector<SimMetrics>& runs,
                          const std::string& figure) {
  TextTable t({"Workload", "Algorithm", "Sched time s (measured)",
               "Paper s (authors' testbed)", "Relative to RISA"});
  // Relative column: normalize to the RISA run of the same workload.
  auto risa_time = [&](const std::string& workload) {
    for (const SimMetrics& m : runs) {
      if (m.workload == workload && m.algorithm == "RISA") {
        return m.scheduler_exec_seconds;
      }
    }
    return 0.0;
  };
  for (const SimMetrics& m : runs) {
    const double base = risa_time(m.workload);
    t.add_row({m.workload, m.algorithm,
               TextTable::num(m.scheduler_exec_seconds, 4),
               paper_cell(figure, m.workload, m.algorithm, 0),
               base > 0 ? TextTable::num(m.scheduler_exec_seconds / base, 2) +
                              "x"
                        : "-"});
  }
  return t;
}

TextTable utilization_table(const std::vector<SimMetrics>& runs) {
  TextTable t({"Workload", "Algorithm", "CPU % (avg)", "RAM % (avg)",
               "STO % (avg)", "CPU/RAM/STO % (paper)"});
  for (const SimMetrics& m : runs) {
    std::string paper = paper_cell("text-util-cpu", m.workload, m.algorithm) +
                        "/" +
                        paper_cell("text-util-ram", m.workload, m.algorithm) +
                        "/" +
                        paper_cell("text-util-sto", m.workload, m.algorithm);
    t.add_row({m.workload, m.algorithm,
               TextTable::num(m.avg_utilization.cpu() * 100.0, 2),
               TextTable::num(m.avg_utilization.ram() * 100.0, 2),
               TextTable::num(m.avg_utilization.storage() * 100.0, 2),
               std::move(paper)});
  }
  return t;
}

TextTable full_metrics_table(const std::vector<SimMetrics>& runs) {
  TextTable t({"Workload", "Algo", "Placed", "Dropped", "CPU-RAM split",
               "Any-pair split", "Fallbacks", "CPU%", "RAM%", "STO%",
               "Intra%", "Inter%", "Power kW", "RTT ns", "Sched s"});
  for (const SimMetrics& m : runs) {
    t.add_row({m.workload, m.algorithm, std::to_string(m.placed),
               std::to_string(m.dropped),
               std::to_string(m.inter_rack_placements),
               std::to_string(m.any_pair_inter_rack),
               std::to_string(m.fallback_placements),
               TextTable::num(m.avg_utilization.cpu() * 100.0, 1),
               TextTable::num(m.avg_utilization.ram() * 100.0, 1),
               TextTable::num(m.avg_utilization.storage() * 100.0, 1),
               TextTable::num(m.avg_intra_net_utilization * 100.0, 1),
               TextTable::num(m.avg_inter_net_utilization * 100.0, 1),
               TextTable::num(m.avg_optical_power_w / 1000.0, 2),
               TextTable::num(m.cpu_ram_latency_ns.count() > 0
                                  ? m.cpu_ram_latency_ns.mean()
                                  : 0.0,
                              1),
               TextTable::num(m.scheduler_exec_seconds, 4)});
  }
  return t;
}

TextTable lifecycle_table(const std::vector<SweepResult>& results) {
  TextTable t({"Fault plan", "Workload", "Algorithm", "Killed", "Requeued",
               "Retry-placed", "Placed", "Dropped", "Inter-rack %",
               "Degraded tu"});
  for (const SweepResult& r : results) {
    const SimMetrics& m = r.metrics;
    t.add_row({r.fault_plan, m.workload, m.algorithm,
               std::to_string(m.killed), std::to_string(m.requeued),
               std::to_string(m.retry_placed), std::to_string(m.placed),
               std::to_string(m.dropped),
               TextTable::num(m.inter_rack_fraction() * 100.0, 2),
               TextTable::num(m.degraded_tu, 1)});
  }
  return t;
}

TextTable migration_table(const std::vector<SweepResult>& results) {
  TextTable t({"Migration plan", "Fault plan", "Workload", "Algorithm",
               "Migrated", "Recovered", "Migration tu", "Inter-rack %",
               "Net inter-rack %", "Power kW", "Killed"});
  for (const SweepResult& r : results) {
    const SimMetrics& m = r.metrics;
    const double net_inter =
        m.total_vms > 0
            ? static_cast<double>(m.inter_rack_placements -
                                  std::min(m.interrack_vms_recovered,
                                           m.inter_rack_placements)) /
                  static_cast<double>(m.total_vms)
            : 0.0;
    t.add_row({r.migration_plan, r.fault_plan, m.workload, m.algorithm,
               std::to_string(m.migrated),
               std::to_string(m.interrack_vms_recovered),
               TextTable::num(m.migration_tu, 1),
               TextTable::num(m.inter_rack_fraction() * 100.0, 2),
               TextTable::num(net_inter * 100.0, 2),
               TextTable::num(m.avg_optical_power_w / 1000.0, 2),
               std::to_string(m.killed)});
  }
  return t;
}

namespace {

/// The unified per-cell field list, shared verbatim by the JSON and CSV
/// emitters so the two formats cannot drift apart.
struct CellField {
  const char* key;
  std::string (*render)(const SweepResult&);
};

std::string render_u64(std::uint64_t v) { return std::to_string(v); }

const CellField kCellFields[] = {
    {"scenario", [](const SweepResult& r) { return r.scenario; }},
    {"workload", [](const SweepResult& r) { return r.metrics.workload; }},
    {"seed", [](const SweepResult& r) { return render_u64(r.seed); }},
    {"fault_plan", [](const SweepResult& r) { return r.fault_plan; }},
    {"algorithm", [](const SweepResult& r) { return r.metrics.algorithm; }},
    {"total_vms",
     [](const SweepResult& r) { return render_u64(r.metrics.total_vms); }},
    {"placed",
     [](const SweepResult& r) { return render_u64(r.metrics.placed); }},
    {"dropped",
     [](const SweepResult& r) { return render_u64(r.metrics.dropped); }},
    {"inter_rack",
     [](const SweepResult& r) {
       return render_u64(r.metrics.inter_rack_placements);
     }},
    {"any_pair_inter_rack",
     [](const SweepResult& r) {
       return render_u64(r.metrics.any_pair_inter_rack);
     }},
    {"fallbacks",
     [](const SweepResult& r) {
       return render_u64(r.metrics.fallback_placements);
     }},
    {"killed",
     [](const SweepResult& r) { return render_u64(r.metrics.killed); }},
    {"requeued",
     [](const SweepResult& r) { return render_u64(r.metrics.requeued); }},
    {"retry_placed",
     [](const SweepResult& r) { return render_u64(r.metrics.retry_placed); }},
    {"degraded_tu",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.degraded_tu);
     }},
    {"migration_plan", [](const SweepResult& r) { return r.migration_plan; }},
    {"migrated",
     [](const SweepResult& r) { return render_u64(r.metrics.migrated); }},
    {"migration_tu",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.migration_tu);
     }},
    {"interrack_recovered",
     [](const SweepResult& r) {
       return render_u64(r.metrics.interrack_vms_recovered);
     }},
    {"avg_cpu_util",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.avg_utilization.cpu());
     }},
    {"avg_ram_util",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.avg_utilization.ram());
     }},
    {"avg_sto_util",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.avg_utilization.storage());
     }},
    {"avg_intra_net_util",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.avg_intra_net_utilization);
     }},
    {"avg_inter_net_util",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.avg_inter_net_utilization);
     }},
    {"avg_optical_power_w",
     [](const SweepResult& r) {
       return strformat("%.3f", r.metrics.avg_optical_power_w);
     }},
    {"cpu_ram_rtt_ns",
     [](const SweepResult& r) {
       return strformat("%.3f", r.metrics.cpu_ram_latency_ns.count() > 0
                                    ? r.metrics.cpu_ram_latency_ns.mean()
                                    : 0.0);
     }},
    {"sched_s",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.scheduler_exec_seconds);
     }},
    {"sim_s",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.sim_wall_seconds);
     }},
    {"events_per_sec",
     [](const SweepResult& r) {
       return strformat("%.0f", r.metrics.events_per_sec());
     }},
    {"horizon_tu",
     [](const SweepResult& r) {
       return strformat("%.6f", r.metrics.horizon_tu);
     }},
};

/// Keys whose values are emitted as JSON strings rather than numbers.
[[nodiscard]] bool is_string_field(const char* key) {
  const std::string_view k = key;
  return k == "scenario" || k == "workload" || k == "algorithm" ||
         k == "fault_plan" || k == "migration_plan";
}

/// `s` as a quoted, escaped JSON string.
std::string quoted(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

/// Render a recorded PhaseProfile as a JSON object keyed by phase name
/// (sim/phase_profiler.hpp); the shared shape for sweep_json and
/// scheduler_bench_json `profile` blocks.
void append_profile_json(std::ostringstream& os, const PhaseProfile& p) {
  os << "\"profile\": {";
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (i > 0) os << ", ";
    os << '"' << kPhaseNames[i] << "\": " << strformat("%.6f", p.seconds[i]);
  }
  os << "}";
}

}  // namespace

std::string sweep_json(const std::string& benchmark,
                       const std::vector<SweepResult>& results) {
  std::ostringstream os;
  os << "{\n  \"benchmark\": " << quoted(benchmark) << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "    {";
    bool first = true;
    for (const CellField& f : kCellFields) {
      if (!first) os << ", ";
      first = false;
      os << '"' << f.key << "\": ";
      if (is_string_field(f.key)) {
        os << quoted(f.render(results[i]));
      } else {
        os << f.render(results[i]);
      }
    }
    // Phase attribution rides along only when the sweep asked for it
    // (SweepSpec::record_profile), so existing documents are unchanged.
    if (results[i].metrics.profile.recorded) {
      os << ", ";
      append_profile_json(os, results[i].metrics.profile);
    }
    os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

bool write_sweep_json(const std::string& path, const std::string& benchmark,
                      const std::vector<SweepResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "write_sweep_json: cannot open " << path << "\n";
    return false;
  }
  out << sweep_json(benchmark, results);
  out.flush();
  if (!out) {
    std::cerr << "write_sweep_json: write to " << path << " failed\n";
    return false;
  }
  return true;
}

std::string sweep_csv(const std::vector<SweepResult>& results) {
  std::ostringstream os;
  CsvWriter writer(os);
  std::vector<std::string> row;
  for (const CellField& f : kCellFields) row.emplace_back(f.key);
  writer.write_row(row);
  for (const SweepResult& r : results) {
    row.clear();
    for (const CellField& f : kCellFields) row.push_back(f.render(r));
    writer.write_row(row);
  }
  return os.str();
}

bool write_sweep_csv(const std::string& path,
                     const std::vector<SweepResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "write_sweep_csv: cannot open " << path << "\n";
    return false;
  }
  out << sweep_csv(results);
  out.flush();
  if (!out) {
    std::cerr << "write_sweep_csv: write to " << path << " failed\n";
    return false;
  }
  return true;
}

std::vector<SchedulerBenchEntry> scheduler_bench_entries(
    const std::vector<SweepResult>& results) {
  std::vector<SchedulerBenchEntry> entries;
  entries.reserve(results.size());
  for (const SweepResult& r : results) {
    if (r.latency.total() == 0 && r.metrics.total_vms > 0) {
      throw std::invalid_argument(
          "scheduler_bench_entries: sweep ran without record_latency");
    }
    SchedulerBenchEntry e;
    e.workload = r.metrics.workload;
    e.algorithm = r.metrics.algorithm;
    e.total_vms = r.metrics.total_vms;
    e.placed = r.metrics.placed;
    e.dropped = r.metrics.dropped;
    e.inter_rack = r.metrics.inter_rack_placements;
    e.sched_s = r.metrics.scheduler_exec_seconds;
    e.placements_per_sec =
        e.sched_s > 0.0
            ? static_cast<double>(r.metrics.total_vms) / e.sched_s
            : 0.0;
    e.sim_s = r.metrics.sim_wall_seconds;
    e.events_per_sec = r.metrics.events_per_sec();
    e.profile = r.metrics.profile;
    if (r.latency.total() > 0) {
      e.p50_ns = r.latency.percentile(50.0);
      e.p99_ns = r.latency.percentile(99.0);
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string scheduler_bench_json(const std::string& benchmark,
                                 const std::vector<SchedulerBenchEntry>& entries) {
  std::ostringstream os;
  os << "{\n  \"benchmark\": " << quoted(benchmark)
     << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SchedulerBenchEntry& e = entries[i];
    os << "    {\"workload\": " << quoted(e.workload)
       << ", \"algorithm\": " << quoted(e.algorithm)
       << ", \"total_vms\": " << e.total_vms
       << ", \"placed\": " << e.placed << ", \"dropped\": " << e.dropped
       << ", \"inter_rack\": " << e.inter_rack << ", \"sched_s\": "
       << strformat("%.6f", e.sched_s) << ", \"placements_per_sec\": "
       << strformat("%.0f", e.placements_per_sec) << ", \"sim_s\": "
       << strformat("%.6f", e.sim_s) << ", \"events_per_sec\": "
       << strformat("%.0f", e.events_per_sec) << ", \"p50_ns\": "
       << strformat("%.0f", e.p50_ns) << ", \"p99_ns\": "
       << strformat("%.0f", e.p99_ns);
    if (e.source_s >= 0.0) {
      os << ", \"source_s\": " << strformat("%.6f", e.source_s);
    }
    if (e.peak_rss_mb >= 0.0) {
      os << ", \"peak_rss_mb\": " << strformat("%.1f", e.peak_rss_mb);
    }
    if (e.profile.recorded) {
      os << ", ";
      append_profile_json(os, e.profile);
    }
    os << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

bool write_scheduler_bench_json(const std::string& path,
                                const std::string& benchmark,
                                const std::vector<SchedulerBenchEntry>& entries) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "write_scheduler_bench_json: cannot open " << path << "\n";
    return false;
  }
  out << scheduler_bench_json(benchmark, entries);
  out.flush();
  if (!out) {
    std::cerr << "write_scheduler_bench_json: write to " << path << " failed\n";
    return false;
  }
  return true;
}

namespace {

/// The field that `key` names in `rows`, or null.
template <typename T, std::size_t N>
T* bench_field(const std::pair<const char*, T*> (&rows)[N],
               const std::string& key) {
  for (const auto& [name, field] : rows) {
    if (key == name) return field;
  }
  return nullptr;
}

SchedulerBenchEntry read_bench_entry(JsonCursor& c) {
  SchedulerBenchEntry e;
  const std::pair<const char*, std::uint64_t*> counts[] = {
      {"total_vms", &e.total_vms}, {"placed", &e.placed},
      {"dropped", &e.dropped}, {"inter_rack", &e.inter_rack}};
  const std::pair<const char*, double*> reals[] = {
      {"sched_s", &e.sched_s},
      {"placements_per_sec", &e.placements_per_sec},
      {"sim_s", &e.sim_s},
      {"events_per_sec", &e.events_per_sec},
      {"p50_ns", &e.p50_ns},
      {"p99_ns", &e.p99_ns},
      {"source_s", &e.source_s},
      {"peak_rss_mb", &e.peak_rss_mb}};
  c.object([&](const std::string& key) {
    if (key == "workload") {
      e.workload = c.string();
    } else if (key == "algorithm") {
      e.algorithm = c.string();
    } else if (key == "profile") {
      e.profile.seconds.fill(std::numeric_limits<double>::quiet_NaN());
      e.profile.recorded = true;
      c.object([&](const std::string& phase) {
        const auto it =
            std::find(kPhaseNames.begin(), kPhaseNames.end(), phase);
        if (it == kPhaseNames.end()) c.fail("unknown phase '" + phase + "'");
        e.profile.seconds[static_cast<std::size_t>(it - kPhaseNames.begin())] =
            c.number();
      });
    } else if (std::uint64_t* n = bench_field(counts, key)) {
      *n = c.u64(key.c_str());
    } else if (double* x = bench_field(reals, key)) {
      *x = c.number();
    } else {
      c.fail("unknown entry key '" + key + "'");
    }
  });
  return e;
}

}  // namespace

std::vector<SchedulerBenchEntry> read_scheduler_bench_json(std::istream& in) {
  JsonCursor c(in, "scheduler bench");
  std::vector<SchedulerBenchEntry> entries;
  c.object([&](const std::string& key) {
    if (key == "benchmark") {
      (void)c.string();
    } else if (key == "entries") {
      c.array([&] { entries.push_back(read_bench_entry(c)); });
    } else {
      c.fail("unknown key '" + key + "'");
    }
  });
  c.finish();
  return entries;
}

}  // namespace risa::sim
