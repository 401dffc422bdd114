// risa_cli: the full-featured simulation CLI.
//
// Drives any scheduler over any workload with optional scenario overrides
// from a config file, CSV trace input/output, and time-series export --
// the tool a datacenter researcher would actually run.
//
// Examples:
//   risa_cli --algorithm=RISA --workload=azure-5000
//   risa_cli --algorithm=NALB --workload=synthetic --timeline-csv=run.csv
//   risa_cli --scenario=my.conf --trace-in=recorded.csv
//   risa_cli --workload=synthetic --trace-out=synthetic.csv --dry-run
//
// Streaming mode (`--streaming`) pulls arrivals from an on-demand source
// (synthetic/azure generators or --trace-in) instead of materializing the
// workload -- bit-identical metrics, bounded memory (DESIGN.md §11) -- and
// unlocks checkpointing: `--checkpoint-out=F --checkpoint-every=N` rewrites
// F with the full engine state every N events, and `--resume=F` continues
// such a run bit-identically (pass the same workload/seed flags so the
// source regenerates the identical stream):
//   risa_cli --streaming --count=10000000
//            --checkpoint-out=run.ckpt --checkpoint-every=1000000
//   risa_cli --streaming --count=10000000 --resume=run.ckpt
#include <fstream>
#include <iostream>
#include <memory>

#include "common/flags.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"
#include "sim/telemetry.hpp"
#include "sim/timeline.hpp"
#include "workload/arrival_source.hpp"
#include "workload/azure.hpp"
#include "workload/characterize.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

using namespace risa;

int main(int argc, char** argv) {
  Flags flags;
  flags.define("algorithm", "RISA",
               "NULB | NALB | RISA | RISA-BF | RANDOM | FF | WF");
  flags.define("workload", "synthetic",
               "synthetic | azure-3000 | azure-5000 | azure-7500");
  flags.define_i64("seed", sim::kDefaultSeed, "Workload RNG seed");
  flags.define("scenario", "", "Scenario config file (see sim/scenario_io.hpp)");
  flags.define("faults", "",
               "FaultPlan JSON file: scripted box/link fail/repair + retry "
               "policy");
  flags.define("migrations", "",
               "MigrationPlan JSON file: periodic defragmentation sweeps");
  flags.define("dump-scenario", "", "Write the resolved scenario to this file");
  flags.define("trace-in", "", "Load the workload from this CSV trace instead");
  flags.define("trace-out", "", "Save the generated workload to this CSV trace");
  flags.define("timeline-csv", "", "Export a per-event time series to this CSV");
  flags.define("dry-run", "false", "Generate/convert workloads without simulating");
  flags.define("streaming", "false",
               "Pull arrivals from a streaming source (bounded memory, "
               "bit-identical metrics)");
  flags.define_i64("count", 0,
                   "Override the synthetic workload's VM count (0 = default)");
  flags.define("checkpoint-out", "",
               "Rewrite this file with the engine state every "
               "--checkpoint-every events (requires --streaming)");
  flags.define_i64("checkpoint-every", 0,
                   "Checkpoint cadence in executed events (0 = off)");
  flags.define("resume", "",
               "Resume a streaming run from this checkpoint file (implies "
               "--streaming; pass the original workload/seed flags)");
  flags.define("profile", "false",
               "Print the phase-attributed wall-time breakdown of the run "
               "(sim/phase_profiler.hpp); metrics are unchanged");
  flags.define("trace", "",
               "Write a Chrome-trace/Perfetto JSON of the run to this file "
               "(sim/telemetry.hpp); metrics are unchanged");
  flags.define("trace-categories", "all",
               "Comma list of trace categories: "
               "lifecycle,placement,power,calendar | all | none");
  flags.define("trace-cadence", "0",
               "Minimum sim-time units between counter-track samples "
               "(0 = sample at every window boundary)");
  flags.define("metrics-json", "",
               "Export the run's MetricsRegistry snapshot (counters incl. "
               "the drop-reason breakdown) as JSON to this file; requires "
               "--trace or --trace-categories");
  flags.define("trace-summary", "",
               "Offline mode: summarize an existing trace file (top spans, "
               "counter min/mean/max, drop counts) and exit; no simulation");
  if (!flags.parse_or_usage(argc, argv)) return 1;

  // Offline trace inspection: parse + aggregate + well-formedness check.
  // Exit 0 only for a parseable, well-formed trace (CI leans on this).
  if (!flags.str("trace-summary").empty()) {
    try {
      const sim::TraceSummary summary =
          sim::summarize_trace_file(flags.str("trace-summary"));
      std::cout << format_trace_summary(summary);
      return summary.well_formed() ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }

  try {
    // 1. Scenario.
    sim::Scenario scenario = flags.str("scenario").empty()
                                 ? sim::Scenario::paper_defaults()
                                 : sim::load_scenario_file(flags.str("scenario"));
    if (!flags.str("faults").empty()) {
      scenario.faults = sim::load_fault_plan_file(flags.str("faults"));
      std::cout << "fault plan: " << scenario.faults.actions.size()
                << " action(s), retry max_attempts="
                << scenario.faults.retry.max_attempts << '\n';
    }
    if (!flags.str("migrations").empty()) {
      scenario.migrations =
          sim::load_migration_plan_file(flags.str("migrations"));
      std::cout << "migration plan: period="
                << scenario.migrations.period_tu << " tu, per_sweep="
                << scenario.migrations.per_sweep_budget << ", total_budget="
                << scenario.migrations.total_budget << '\n';
    }
    if (!flags.str("dump-scenario").empty()) {
      sim::save_scenario_file(flags.str("dump-scenario"), scenario);
      std::cout << "scenario written to " << flags.str("dump-scenario") << '\n';
      if (!scenario.faults.empty()) {
        // The flat key=value format cannot express the fault plan; dump it
        // alongside so the pair reproduces this run.
        const std::string faults_path =
            flags.str("dump-scenario") + ".faults.json";
        sim::save_fault_plan_file(faults_path, scenario.faults);
        std::cout << "fault plan written to " << faults_path
                  << " (pass it back via --faults; the scenario file alone "
                     "runs fault-free)\n";
      }
      if (!scenario.migrations.empty()) {
        const std::string mig_path =
            flags.str("dump-scenario") + ".migrations.json";
        sim::save_migration_plan_file(mig_path, scenario.migrations);
        std::cout << "migration plan written to " << mig_path
                  << " (pass it back via --migrations)\n";
      }
    }

    // 2. Workload.
    const auto seed = static_cast<std::uint64_t>(flags.i64("seed"));
    const bool streaming = flags.b("streaming") || !flags.str("resume").empty();
    wl::Workload workload;
    std::unique_ptr<wl::ArrivalSource> source;
    std::string label = flags.str("workload");
    if (streaming) {
      if (flags.b("dry-run") || !flags.str("trace-out").empty()) {
        std::cerr << "--streaming never materializes the workload; it is "
                     "incompatible with --dry-run and --trace-out\n";
        return 1;
      }
      if (!flags.str("trace-in").empty()) {
        source = std::make_unique<wl::TraceStreamSource>(flags.str("trace-in"));
        label = flags.str("trace-in");
      } else if (label == "synthetic") {
        wl::SyntheticConfig cfg;
        if (flags.i64("count") > 0) {
          cfg.count = static_cast<std::size_t>(flags.i64("count"));
        }
        source = std::make_unique<wl::SyntheticStreamSource>(cfg, seed);
      } else {
        for (const wl::AzureSpec& spec : wl::azure_all_subsets()) {
          if (to_lower(spec.label) == to_lower(label)) {
            source = std::make_unique<wl::AzureStreamSource>(spec, seed);
          }
        }
        if (source == nullptr) {
          std::cerr << "unknown workload '" << label << "'\n";
          return 1;
        }
      }
      std::cout << "workload: " << label << " (streaming)\n";
    } else {
      if (!flags.str("trace-in").empty()) {
        workload = wl::load_trace(flags.str("trace-in"));
        label = flags.str("trace-in");
      } else if (label == "synthetic") {
        wl::SyntheticConfig cfg;
        if (flags.i64("count") > 0) {
          cfg.count = static_cast<std::size_t>(flags.i64("count"));
        }
        workload = wl::generate_synthetic(cfg, seed);
      } else {
        for (auto& [name, w] : sim::azure_workloads(seed)) {
          if (to_lower(name) == to_lower(label)) workload = std::move(w);
        }
        if (workload.empty()) {
          std::cerr << "unknown workload '" << label << "'\n";
          return 1;
        }
      }
      if (!flags.str("trace-out").empty()) {
        wl::save_trace(flags.str("trace-out"), workload);
        std::cout << "trace written to " << flags.str("trace-out") << " ("
                  << workload.size() << " VMs)\n";
      }

      const auto summary = wl::summarize(workload);
      std::cout << "workload: " << label << " -- " << summary.count
                << " VMs, mean " << TextTable::num(summary.mean_cores, 2)
                << " cores / " << TextTable::num(summary.mean_ram_gb, 2)
                << " GB RAM / " << TextTable::num(summary.mean_storage_gb, 0)
                << " GB storage\n";
      if (flags.b("dry-run")) return 0;
    }

    // 3. Simulate.
    sim::Engine engine(scenario, flags.str("algorithm"));
    engine.set_profiling(flags.b("profile"));
    sim::Timeline timeline;
    if (!flags.str("timeline-csv").empty()) {
      engine.set_timeline(&timeline);
    }
    // Telemetry (DESIGN.md §14): armed by --trace (file output) or
    // --metrics-json (registry-only).  Observation only -- the printed
    // metrics and fingerprint are identical with or without it.
    std::unique_ptr<sim::Telemetry> telemetry;
    if (!flags.str("trace").empty() || !flags.str("metrics-json").empty()) {
      sim::TelemetryConfig tcfg;
      tcfg.trace_path = flags.str("trace");
      tcfg.categories =
          sim::parse_trace_categories(flags.str("trace-categories"));
      tcfg.sample_cadence_tu = flags.f64("trace-cadence");
      telemetry = std::make_unique<sim::Telemetry>(std::move(tcfg));
      engine.set_telemetry(telemetry.get());
    }
    sim::SimMetrics m;
    if (streaming) {
      const std::string ckpt_path = flags.str("checkpoint-out");
      const auto ckpt_every =
          static_cast<std::uint64_t>(flags.i64("checkpoint-every"));
      if (ckpt_path.empty() != (ckpt_every == 0)) {
        std::cerr << "--checkpoint-out and --checkpoint-every must be given "
                     "together\n";
        return 1;
      }
      sim::CheckpointPolicy policy;
      policy.every_events = ckpt_every;
      policy.emit = [&ckpt_path](const std::string& bytes) {
        std::ofstream os(ckpt_path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        if (!os) {
          throw std::runtime_error("checkpoint write failed: " + ckpt_path);
        }
      };
      const sim::CheckpointPolicy* p = ckpt_every > 0 ? &policy : nullptr;
      if (!flags.str("resume").empty()) {
        std::ifstream is(flags.str("resume"), std::ios::binary);
        if (!is) {
          throw std::runtime_error("cannot open checkpoint: " +
                                   flags.str("resume"));
        }
        m = engine.resume_stream(is, *source, p);
        std::cout << "resumed from " << flags.str("resume") << '\n';
      } else {
        m = engine.run_stream(*source, label, p);
      }
      if (ckpt_every > 0) {
        std::cout << "checkpoints (every " << ckpt_every << " events) -> "
                  << ckpt_path << '\n';
      }
      // The bit-exact digest (sweep.hpp): lets a resumed run be diffed
      // against an uninterrupted one by comparing a single line.
      std::cout << "fingerprint: " << sim::metrics_fingerprint(m) << '\n';
    } else {
      m = engine.run(workload, label);
    }

    std::cout << '\n' << sim::full_metrics_table({m});
    if (m.killed > 0 || m.requeued > 0 || m.degraded_tu > 0.0) {
      std::cout << "lifecycle: killed=" << m.killed
                << " requeued=" << m.requeued
                << " retry_placed=" << m.retry_placed << " degraded_tu="
                << TextTable::num(m.degraded_tu, 1) << '\n';
    }
    if (m.migrated > 0 || !scenario.migrations.empty()) {
      std::cout << "migrations: migrated=" << m.migrated
                << " interrack_recovered=" << m.interrack_vms_recovered
                << " migration_tu=" << TextTable::num(m.migration_tu, 1)
                << '\n';
    }
    if (m.dropped > 0) {
      std::cout << "drops by reason:";
      for (const core::DropReason reason : m.drops_by_reason.seen()) {
        std::cout << "  " << core::name(reason) << "="
                  << m.drops_by_reason[reason];
      }
      std::cout << '\n';
    }

    if (m.profile.recorded) {
      std::cout << "phase profile (seconds; exclusive spans, sum <= sim_s="
                << TextTable::num(m.sim_wall_seconds, 4) << "):\n";
      for (std::size_t p = 0; p < sim::kNumPhases; ++p) {
        std::cout << "  " << sim::kPhaseNames[p] << ": "
                  << TextTable::num(m.profile.seconds[p], 4) << '\n';
      }
      std::cout << "  (unattributed: "
                << TextTable::num(m.sim_wall_seconds - m.profile.total(), 4)
                << ")\n";
    }

    if (!flags.str("timeline-csv").empty()) {
      timeline.save_csv(flags.str("timeline-csv"));
      std::cout << "timeline (" << timeline.size() << " points, peak "
                << timeline.peak_active_vms() << " active VMs) written to "
                << flags.str("timeline-csv") << '\n';
    }
    if (telemetry != nullptr) {
      telemetry->close();
      if (!flags.str("trace").empty()) {
        std::cout << "trace (" << telemetry->writer().emitted()
                  << " events, " << telemetry->writer().dropped()
                  << " overflow-dropped) written to " << flags.str("trace")
                  << '\n';
      }
      if (!flags.str("metrics-json").empty()) {
        std::ofstream os(flags.str("metrics-json"), std::ios::trunc);
        os << telemetry->registry().snapshot_json() << '\n';
        if (!os) {
          throw std::runtime_error("metrics JSON write failed: " +
                                   flags.str("metrics-json"));
        }
        std::cout << "metrics registry written to "
                  << flags.str("metrics-json") << '\n';
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
