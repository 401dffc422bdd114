#include "sim/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/json_cursor.hpp"

namespace risa::sim {
namespace {

// Synthetic thread-track ids (pid is always 1).
constexpr std::uint32_t kTidWindows = 1;
constexpr std::uint32_t kTidEvents = 2;
constexpr std::uint32_t kTidPhases = 3;

// Category names as they appear in the trace's "cat" field.
constexpr const char* kCatLifecycle = "lifecycle";
constexpr const char* kCatPlacement = "placement";
constexpr const char* kCatPower = "power";
constexpr const char* kCatCalendar = "calendar";
constexpr const char* kCatPhase = "phase";  // profiler track, never masked

// Event names must be static-lifetime (TraceWriter stores pointers).
constexpr const char* drop_event_name(core::DropReason r) noexcept {
  switch (r) {
    case core::DropReason::NoComputeResources: return "drop:no-compute";
    case core::DropReason::NoNetworkResources: return "drop:no-network";
  }
  return "drop:?";
}

constexpr const char* fault_event_name(des::LifecycleKind k) noexcept {
  switch (k) {
    case des::LifecycleKind::BoxFail: return "box-fail";
    case des::LifecycleKind::BoxRepair: return "box-repair";
    case des::LifecycleKind::LinkFail: return "link-fail";
    case des::LifecycleKind::LinkRepair: return "link-repair";
    default: return "fault:?";
  }
}

constexpr const char* kill_event_name(des::LifecycleKind cause) noexcept {
  switch (cause) {
    case des::LifecycleKind::BoxFail: return "kill:box-fail";
    case des::LifecycleKind::LinkFail: return "kill:link-fail";
    default: return "kill";
  }
}

}  // namespace

std::uint32_t parse_trace_categories(std::string_view csv) {
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string_view::npos) comma = csv.size();
    std::string_view tok = csv.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    if (tok == "lifecycle") {
      mask |= kTraceLifecycle;
    } else if (tok == "placement") {
      mask |= kTracePlacement;
    } else if (tok == "power") {
      mask |= kTracePower;
    } else if (tok == "calendar") {
      mask |= kTraceCalendar;
    } else if (tok == "all") {
      mask |= kTraceAllCategories;
    } else if (tok == "none") {
      // explicit empty mask (registry-only telemetry)
    } else {
      throw std::invalid_argument("unknown trace category '" +
                                  std::string(tok) +
                                  "' (lifecycle|placement|power|calendar|"
                                  "all|none)");
    }
  }
  return mask;
}

Telemetry::Telemetry(TelemetryConfig config) : config_(std::move(config)) {
  // An empty path yields a failed writer (no file, events counted as
  // dropped) -- registry-only telemetry without a second code path.
  writer_ = std::make_unique<TraceWriter>(config_.trace_path);
}

Telemetry::Telemetry(TelemetryConfig config, std::ostream& sink)
    : config_(std::move(config)) {
  writer_ = std::make_unique<TraceWriter>(sink);
}

Telemetry::~Telemetry() { close(); }

void Telemetry::close() {
  if (writer_) writer_->close();
}

void Telemetry::begin_run(std::string_view algorithm,
                          std::string_view workload, double now_tu) {
  if (!series_ready_) {
    admitted_ = registry_.counter("vm.admitted");
    dropped_ = registry_.counter("vm.dropped");
    for (std::size_t i = 0; i < core::kNumDropReasons; ++i) {
      std::string key = "vm.dropped.";
      key += core::name(static_cast<core::DropReason>(i));
      drop_reason_[i] = registry_.counter(key);
    }
    killed_ = registry_.counter("vm.killed");
    requeued_ = registry_.counter("vm.requeued");
    retries_ = registry_.counter("vm.retries");
    retry_placed_ = registry_.counter("vm.retry_placed");
    migrated_ = registry_.counter("vm.migrated");
    faults_ = registry_.counter("fault.events");
    windows_ = registry_.counter("loop.admission_windows");
    window_span_ = registry_.histogram("loop.window_arrivals");
    live_vms_ = registry_.gauge("census.live_vms");
    holding_power_ = registry_.gauge("power.holding_w");
    series_ready_ = true;
  }
  // Re-arm the sampler at the run's opening sim time: a fresh run
  // samples from t=0, a resumed run from the restored `now` -- no
  // telemetry state crosses the checkpoint.
  next_sample_ = now_tu;
  TraceWriter& w = *writer_;
  if (w.ok()) {
    std::string proc = std::string(algorithm) + " / " + std::string(workload);
    w.process_name(proc);
    w.thread_name(kTidWindows, "sim.windows");
    w.thread_name(kTidEvents, "sim.events");
    w.thread_name(kTidPhases, "phases.wall");
  }
}

void Telemetry::emit_counter(const char* name, std::uint32_t cat_bit,
                             const char* cat_name, double t, double v) {
  if (category(cat_bit)) writer_->counter(name, cat_name, t, v);
}

void Telemetry::sample(double t, const CounterSample& s) {
  registry_.set(live_vms_, static_cast<double>(s.live_vms));
  registry_.set(holding_power_, s.holding_power_w);
  emit_counter("live_vms", kTraceLifecycle, kCatLifecycle, t,
               static_cast<double>(s.live_vms));
  emit_counter("offline_boxes", kTraceLifecycle, kCatLifecycle, t,
               static_cast<double>(s.offline_boxes));
  emit_counter("failed_links", kTraceLifecycle, kCatLifecycle, t,
               static_cast<double>(s.failed_links));
  emit_counter("arrival_ring_depth", kTracePlacement, kCatPlacement, t,
               static_cast<double>(s.arrival_ring_depth));
  emit_counter("calendar_events", kTraceCalendar, kCatCalendar, t,
               static_cast<double>(s.calendar_events));
  emit_counter("holding_power_w", kTracePower, kCatPower, t,
               s.holding_power_w);
  next_sample_ = config_.sample_cadence_tu > 0.0
                     ? t + config_.sample_cadence_tu
                     : t;
}

void Telemetry::admission_window(double t0, double t1, std::uint64_t arrivals,
                                 std::uint64_t placed) {
  registry_.add(windows_);
  registry_.add(admitted_, static_cast<std::int64_t>(placed));
  registry_.observe(window_span_, static_cast<double>(arrivals));
  if (category(kTracePlacement)) {
    writer_->span("admission", kCatPlacement, t0, t1 - t0, kTidWindows);
  }
}

void Telemetry::settlement_window(double t) {
  if (category(kTracePlacement)) {
    writer_->span("settlement", kCatPlacement, t, 0.0, kTidWindows);
  }
}

void Telemetry::migration_sweep(double t, std::uint64_t migrated) {
  registry_.add(migrated_, static_cast<std::int64_t>(migrated));
  if (category(kTracePlacement)) {
    writer_->span("migration-sweep", kCatPlacement, t, 0.0, kTidWindows);
  }
}

void Telemetry::drop(double t, core::DropReason reason) {
  registry_.add(dropped_);
  registry_.add(drop_reason_[static_cast<std::size_t>(reason)]);
  if (category(kTraceLifecycle)) {
    writer_->instant(drop_event_name(reason), kCatLifecycle, t, kTidEvents);
  }
}

void Telemetry::kill(double t, des::LifecycleKind cause) {
  registry_.add(killed_);
  if (category(kTraceLifecycle)) {
    writer_->instant(kill_event_name(cause), kCatLifecycle, t, kTidEvents);
  }
}

void Telemetry::requeue(double t) {
  registry_.add(requeued_);
  if (category(kTraceLifecycle)) {
    writer_->instant("requeue", kCatLifecycle, t, kTidEvents);
  }
}

void Telemetry::retry(double t, bool placed) {
  registry_.add(retries_);
  if (placed) registry_.add(retry_placed_);
  if (category(kTraceLifecycle)) {
    writer_->instant(placed ? "retry:placed" : "retry:failed", kCatLifecycle,
                     t, kTidEvents);
  }
}

void Telemetry::fault(double t, des::LifecycleKind kind) {
  registry_.add(faults_);
  if (category(kTraceLifecycle)) {
    writer_->instant(fault_event_name(kind), kCatLifecycle, t, kTidEvents);
  }
}

void Telemetry::finish_run(const PhaseProfile* profile) {
  if (profile != nullptr && profile->recorded) {
    // Phase seconds -> sequential wall-time spans.  The cursor persists
    // across runs so a reused Telemetry (sweep lane) appends disjoint
    // span groups instead of overlapping at ts=0.
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      const double us = profile->seconds[i] * 1e6;
      if (us <= 0.0) continue;
      writer_->span(kPhaseNames[i].data(), kCatPhase, phase_cursor_us_, us,
                    kTidPhases);
      phase_cursor_us_ += us;
    }
  }
  writer_->flush();
}

// ---------------------------------------------------------------------
// Offline reader: a single pass of the shared JSON cursor over the Chrome
// trace.  Events are aggregated as they parse -- memory stays O(distinct
// names), so multi-hundred-MB CI traces summarize in a few tens of MB.

namespace {

struct RawEvent {
  std::string name;
  char ph = '\0';
  double ts = 0.0;
  double dur = 0.0;
  double value = 0.0;
  std::uint32_t tid = 0;
};

RawEvent parse_event(JsonCursor& c) {
  RawEvent e;
  c.object([&](const std::string& key) {
    if (key == "name") {
      e.name = c.string();
    } else if (key == "ph") {
      const std::string ph = c.string();
      e.ph = ph.empty() ? '\0' : ph[0];
    } else if (key == "ts") {
      e.ts = c.number();
    } else if (key == "dur") {
      e.dur = c.number();
    } else if (key == "tid") {
      e.tid = c.u32("tid");
    } else if (key == "args") {
      c.object([&](const std::string& akey) {
        if (akey == "value") {
          e.value = c.number();
        } else {
          c.skip_value();
        }
      });
    } else {
      c.skip_value();
    }
  });
  return e;
}

template <typename Agg>
Agg& find_or_add(std::vector<Agg>& v, const std::string& name) {
  for (Agg& a : v) {
    if (a.name == name) return a;
  }
  v.push_back(Agg{});
  v.back().name = name;
  return v.back();
}

/// Per-tid stack of open-span end times for the strict-nesting check.
struct NestState {
  std::uint32_t tid;
  std::vector<double> open_ends;
};

}  // namespace

TraceSummary summarize_trace(std::istream& in) {
  JsonCursor c(in, "trace");
  TraceSummary out;
  std::vector<NestState> nests;
  std::vector<std::pair<std::string, double>> counter_last_ts;

  const auto add = [&](const RawEvent& e) {
    if (e.ph == 'M') return;  // metadata
    ++out.events;
    if (e.ph == 'X') {
      auto& agg = find_or_add(out.spans, e.name);
      ++agg.count;
      agg.total_us += e.dur;
      agg.max_us = std::max(agg.max_us, e.dur);
      NestState* ns = nullptr;
      for (NestState& n : nests) {
        if (n.tid == e.tid) ns = &n;
      }
      if (ns == nullptr) {
        nests.push_back(NestState{e.tid, {}});
        ns = &nests.back();
      }
      // Events appear in emission order (nondecreasing ts per tid); pop
      // spans that ended before this one starts, then require full
      // containment in whatever is still open.
      while (!ns->open_ends.empty() && ns->open_ends.back() <= e.ts) {
        ns->open_ends.pop_back();
      }
      if (!ns->open_ends.empty() && e.ts + e.dur > ns->open_ends.back()) {
        out.spans_nest = false;
      }
      ns->open_ends.push_back(e.ts + e.dur);
    } else if (e.ph == 'C') {
      auto& agg = find_or_add(out.counters, e.name);
      if (agg.samples == 0) {
        agg.min = agg.max = e.value;
      } else {
        agg.min = std::min(agg.min, e.value);
        agg.max = std::max(agg.max, e.value);
      }
      ++agg.samples;
      agg.sum += e.value;
      bool found = false;
      for (auto& [cname, last] : counter_last_ts) {
        if (cname == e.name) {
          if (e.ts < last) out.counters_monotone = false;
          last = e.ts;
          found = true;
        }
      }
      if (!found) counter_last_ts.emplace_back(e.name, e.ts);
    } else if (e.ph == 'i' || e.ph == 'I') {
      ++find_or_add(out.instants, e.name).count;
    }
  };

  c.object([&](const std::string& key) {
    if (key == "traceEvents") {
      c.array([&] { add(parse_event(c)); });
    } else if (key == "overflowDropped") {
      out.overflow_dropped = c.u64("overflowDropped");
    } else {
      c.skip_value();
    }
  });
  c.finish();

  std::sort(out.spans.begin(), out.spans.end(),
            [](const TraceSummary::SpanAgg& a, const TraceSummary::SpanAgg& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.name < b.name;
            });
  return out;
}

TraceSummary summarize_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  return summarize_trace(in);
}

std::string format_trace_summary(const TraceSummary& summary,
                                 std::size_t top_n) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "trace: %llu events, %llu overflow-dropped, well-formed: %s\n",
                static_cast<unsigned long long>(summary.events),
                static_cast<unsigned long long>(summary.overflow_dropped),
                summary.well_formed() ? "yes" : "NO");
  out += line;
  if (!summary.spans_nest) out += "  VIOLATION: spans do not strictly nest\n";
  if (!summary.counters_monotone) {
    out += "  VIOLATION: counter samples not monotone in ts\n";
  }
  out += "top spans by total time:\n";
  std::size_t shown = 0;
  for (const auto& sp : summary.spans) {
    if (shown++ >= top_n) break;
    std::snprintf(line, sizeof line, "  %-24s n=%-10llu total=%.3fms max=%.3fms\n",
                  sp.name.c_str(), static_cast<unsigned long long>(sp.count),
                  sp.total_us / 1e3, sp.max_us / 1e3);
    out += line;
  }
  if (summary.spans.empty()) out += "  (none)\n";
  out += "counters (min/mean/max):\n";
  for (const auto& c : summary.counters) {
    const double mean = c.samples > 0 ? c.sum / static_cast<double>(c.samples)
                                      : 0.0;
    std::snprintf(line, sizeof line,
                  "  %-24s n=%-10llu min=%.6g mean=%.6g max=%.6g\n",
                  c.name.c_str(), static_cast<unsigned long long>(c.samples),
                  c.min, mean, c.max);
    out += line;
  }
  if (summary.counters.empty()) out += "  (none)\n";
  out += "instants:\n";
  for (const auto& i : summary.instants) {
    std::snprintf(line, sizeof line, "  %-24s n=%llu\n", i.name.c_str(),
                  static_cast<unsigned long long>(i.count));
    out += line;
  }
  if (summary.instants.empty()) out += "  (none)\n";
  return out;
}

}  // namespace risa::sim
