// Run telemetry (DESIGN.md §14): the Perfetto-compatible tracer and the
// unified MetricsRegistry must be *invisible* -- metrics fingerprints are
// byte-identical with tracing on or off for every algorithm, the full
// figure matrix, and checkpoint/resume with tracing armed on both ends --
// while the traces themselves honor the well-formedness contract (valid
// JSON after every flush, strictly nested spans per track, monotone
// counter samples, exact overflow accounting) and each category obeys its
// mask bit.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json_cursor.hpp"
#include "common/metrics_registry.hpp"
#include "common/trace_writer.hpp"
#include "core/registry.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"
#include "sim/telemetry.hpp"
#include "workload/arrival_source.hpp"
#include "workload/synthetic.hpp"

namespace risa::sim {
namespace {

// --- TraceWriter ------------------------------------------------------------

TEST(TraceWriter, EmptyTraceIsValidJson) {
  std::ostringstream sink;
  {
    TraceWriter w(sink);
    EXPECT_TRUE(w.ok());
  }
  std::istringstream in(sink.str());
  const TraceSummary s = summarize_trace(in);
  EXPECT_EQ(s.events, 0u);
  EXPECT_EQ(s.overflow_dropped, 0u);
  EXPECT_TRUE(s.well_formed());
}

TEST(TraceWriter, ValidJsonAfterEveryFlush) {
  // The footer-rewrite design's whole point: a trace interrupted after any
  // flush (crash, kill -9 between flushes) still loads in Perfetto.
  std::ostringstream sink;
  TraceWriter w(sink);
  w.span("outer", "test", 0.0, 100.0, 1);
  w.span("inner", "test", 10.0, 20.0, 1);
  w.flush();
  {
    std::istringstream in(sink.str());
    const TraceSummary s = summarize_trace(in);
    EXPECT_EQ(s.events, 2u);
    EXPECT_TRUE(s.well_formed());
  }
  w.instant("mark", "test", 50.0, 2);
  w.counter("depth", "test", 60.0, 3.0);
  w.flush();
  {
    std::istringstream in(sink.str());
    const TraceSummary s = summarize_trace(in);
    EXPECT_EQ(s.events, 4u);
    EXPECT_TRUE(s.well_formed());
  }
  w.close();
  std::istringstream in(sink.str());
  const TraceSummary s = summarize_trace(in);
  EXPECT_EQ(s.events, 4u);
  EXPECT_EQ(s.overflow_dropped, 0u);
  ASSERT_EQ(s.spans.size(), 2u);
  EXPECT_EQ(s.spans[0].name, "outer");  // sorted by total time
  EXPECT_EQ(s.instants.size(), 1u);
  EXPECT_EQ(s.counters.size(), 1u);
}

TEST(TraceWriter, OverflowDropsCountedExactly) {
  TraceWriter::Options opts;
  opts.ring_capacity = 8;
  opts.flush_on_full = false;  // drop instead of flushing mid-run
  std::ostringstream sink;
  TraceWriter w(sink, opts);
  for (int i = 0; i < 20; ++i) {
    w.instant("e", "test", static_cast<double>(i), 2);
  }
  EXPECT_EQ(w.emitted(), 8u);
  EXPECT_EQ(w.dropped(), 12u);
  w.close();
  std::istringstream in(sink.str());
  const TraceSummary s = summarize_trace(in);
  EXPECT_EQ(s.events, 8u);
  EXPECT_EQ(s.overflow_dropped, 12u);
}

TEST(TraceWriter, FlushOnFullKeepsEverything) {
  TraceWriter::Options opts;
  opts.ring_capacity = 4;
  opts.flush_on_full = true;
  std::ostringstream sink;
  TraceWriter w(sink, opts);
  for (int i = 0; i < 100; ++i) {
    w.counter("c", "test", static_cast<double>(i), static_cast<double>(i));
  }
  w.close();
  EXPECT_EQ(w.emitted(), 100u);
  EXPECT_EQ(w.dropped(), 0u);
  std::istringstream in(sink.str());
  const TraceSummary s = summarize_trace(in);
  EXPECT_EQ(s.events, 100u);
  EXPECT_TRUE(s.counters_monotone);
}

TEST(TraceWriter, UnopenablePathCountsEverythingDropped) {
  TraceWriter w("");  // registry-only telemetry rides this
  EXPECT_FALSE(w.ok());
  w.span("x", "test", 0.0, 1.0, 1);
  w.instant("y", "test", 0.0, 2);
  EXPECT_EQ(w.emitted(), 0u);
  EXPECT_EQ(w.dropped(), 2u);
  w.close();  // must not crash or write anywhere
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateIsIdempotent) {
  MetricsRegistry r;
  const auto a = r.counter("vm.admitted");
  const auto b = r.counter("vm.admitted");
  EXPECT_EQ(a, b);
  r.add(a, 3);
  r.add(b, 4);
  EXPECT_EQ(r.counter_value(a), 7);
  const auto g = r.gauge("census.live");
  r.set(g, 2.5);
  EXPECT_DOUBLE_EQ(r.gauge_value(g), 2.5);
  const auto h = r.histogram("window.span");
  r.observe(h, 1.0);
  r.observe(h, 100.0);
  EXPECT_EQ(r.histogram_value(h).total(), 2u);
}

TEST(MetricsRegistry, NameUnderTwoKindsThrows) {
  MetricsRegistry r;
  (void)r.counter("x");
  EXPECT_THROW((void)r.gauge("x"), std::invalid_argument);
  EXPECT_THROW((void)r.histogram("x"), std::invalid_argument);
}

TEST(MetricsRegistry, ResetZeroesValuesKeepsRegistrations) {
  MetricsRegistry r;
  const auto c = r.counter("c");
  const auto g = r.gauge("g");
  const auto h = r.histogram("h");
  r.add(c, 9);
  r.set(g, 1.0);
  r.observe(h, 4.0);
  const std::size_t n = r.series_count();
  r.reset();
  EXPECT_EQ(r.series_count(), n);
  EXPECT_EQ(r.counter_value(c), 0);
  EXPECT_DOUBLE_EQ(r.gauge_value(g), 0.0);
  EXPECT_EQ(r.histogram_value(h).total(), 0u);
  EXPECT_EQ(r.counter("c"), c);  // same id after reset
}

TEST(MetricsRegistry, SnapshotJsonCarriesEverySeries) {
  MetricsRegistry r;
  r.add(r.counter("vm.dropped"), 5);
  r.set(r.gauge("power.holding_w"), 12.5);
  r.observe(r.histogram("loop.window_arrivals"), 3.0);
  const std::string json = r.snapshot_json();
  EXPECT_NE(json.find("\"vm.dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"power.holding_w\""), std::string::npos);
  EXPECT_NE(json.find("\"loop.window_arrivals\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// --- JSON numbers -----------------------------------------------------------

TEST(JsonNumber, RoundTripsEdgeValues) {
  const double two53 = std::ldexp(1.0, 53);
  const double values[] = {
      0.0,
      -0.0,
      0.1,
      1.0 / 3.0,
      5e-324,  // the smallest subnormal
      // 2^53 + 1 is not a double: it rounds to 2^53.  Its neighbour above
      // needs 16 digits, past "%.15g".
      static_cast<double>((std::uint64_t{1} << 53) + 1),
      std::nextafter(two53, std::numeric_limits<double>::infinity()),
      1e300,
      DBL_MAX,
  };
  std::string doc = "[";
  for (const double v : values) {
    if (doc.size() > 1) doc += ',';
    const std::size_t at = doc.size();
    append_json_number(doc, v);
    EXPECT_EQ(doc.substr(at), json_number(v));
  }
  doc += ']';
  std::istringstream in(doc);
  JsonCursor cur(in, "numbers");
  std::vector<double> back;
  cur.array([&] { back.push_back(cur.number()); });
  cur.finish();
  ASSERT_EQ(back.size(), std::size(values)) << doc;
  for (std::size_t i = 0; i < back.size(); ++i) {
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &values[i], sizeof want);
    std::memcpy(&got, &back[i], sizeof got);
    EXPECT_EQ(got, want) << "value " << i << " in " << doc;
  }
}

TEST(JsonNumber, NaNSamplesStillParse) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::ostringstream sink;
  {
    TraceWriter w(sink);
    w.span("nan-start", "test", nan, 5.0, 1);
    w.span("nan-dur", "test", 1.0, nan, 1);
    w.counter("nan-value", "test", 2.0, nan);
  }
  std::istringstream trace(sink.str());
  const TraceSummary s = summarize_trace(trace);
  EXPECT_EQ(s.events, 3u);
  EXPECT_TRUE(s.well_formed());

  MetricsRegistry r;
  r.set(r.gauge("nan.gauge"), nan);
  r.observe(r.histogram("nan.hist"), nan);
  std::istringstream snap(r.snapshot_json());
  JsonCursor cur(snap, "registry");
  double gauge = -1.0;
  cur.object([&](const std::string& section) {
    if (section == "gauges") {
      cur.object([&](const std::string&) { gauge = cur.number(); });
    } else {
      cur.skip_value();
    }
  });
  cur.finish();
  EXPECT_EQ(gauge, 0.0);  // non-finite values are written as 0
}

// --- Category parsing -------------------------------------------------------

TEST(TelemetryConfigTest, ParseCategories) {
  EXPECT_EQ(parse_trace_categories("all"), kTraceAllCategories);
  EXPECT_EQ(parse_trace_categories("none"), 0u);
  EXPECT_EQ(parse_trace_categories("lifecycle"), kTraceLifecycle);
  EXPECT_EQ(parse_trace_categories("placement,power"),
            kTracePlacement | kTracePower);
  EXPECT_EQ(parse_trace_categories("calendar,lifecycle"),
            kTraceCalendar | kTraceLifecycle);
  EXPECT_THROW((void)parse_trace_categories("bogus"), std::invalid_argument);
}

// --- Engine integration -----------------------------------------------------

wl::Workload saturating_workload(std::size_t n = 20'000) {
  // Past ~10k VMs the paper cluster saturates, so this workload produces
  // real drops (both admission-path hooks fire) on every algorithm.
  wl::SyntheticConfig cfg;
  cfg.count = n;
  return wl::generate_synthetic(cfg, kDefaultSeed);
}

FaultPlan small_fault_plan() {
  // 4000 VMs at the default 10 tu mean interarrival span ~40k tu; failing
  // the first boxes mid-run (every algorithm fills them early, and
  // lifetimes run thousands of tu) guarantees kills and retries.
  FaultPlan plan;
  plan.seed = 5;
  plan.retry.max_attempts = 2;
  plan.retry.delay_tu = 3.0;
  for (std::uint32_t b : {0u, 1u, 2u, 3u}) {
    FaultAction fail;
    fail.kind = FaultAction::Kind::Fail;
    fail.at_time = 20000.0;
    fail.box = b;
    plan.actions.push_back(fail);
    FaultAction repair = fail;
    repair.kind = FaultAction::Kind::Repair;
    repair.at_time = 30000.0;
    plan.actions.push_back(repair);
  }
  FaultAction link_fail;
  link_fail.kind = FaultAction::Kind::LinkFail;
  link_fail.at_time = 22000.0;
  link_fail.random_links = 1;
  plan.actions.push_back(link_fail);
  FaultAction link_repair;
  link_repair.kind = FaultAction::Kind::LinkRepair;
  link_repair.at_time = 28000.0;
  link_repair.random_links = 1;
  plan.actions.push_back(link_repair);
  plan.validate();
  return plan;
}

MigrationPlan small_migration_plan() {
  MigrationPlan plan;
  plan.period_tu = 25.0;
  plan.per_sweep_budget = 4;
  plan.validate();
  return plan;
}

TEST(TelemetryEngine, FingerprintsIdenticalTracingOnOffAllAlgorithms) {
  const wl::Workload w = saturating_workload();
  for (const std::string& algo : core::algorithm_names()) {
    Engine plain(Scenario::paper_defaults(), algo);
    const SimMetrics base = plain.run(w, "sat");
    const std::string want = metrics_fingerprint(base);
    EXPECT_GT(base.dropped, 0u) << algo << ": workload does not saturate";

    std::ostringstream sink;
    TelemetryConfig cfg;
    Telemetry tel(cfg, sink);
    Engine traced(Scenario::paper_defaults(), algo);
    traced.set_telemetry(&tel);
    const SimMetrics m = traced.run(w, "sat");
    EXPECT_EQ(metrics_fingerprint(m), want) << algo;
    tel.close();

    // Satellite: the registry is the engine's drop/kill/requeue tally now
    // -- its counters must agree with SimMetrics exactly, reason by
    // reason (no faults here, so admitted == placed).
    MetricsRegistry& r = tel.registry();
    EXPECT_EQ(r.counter_value(r.counter("vm.admitted")),
              static_cast<std::int64_t>(m.placed))
        << algo;
    EXPECT_EQ(r.counter_value(r.counter("vm.dropped")),
              static_cast<std::int64_t>(m.dropped))
        << algo;
    for (std::size_t i = 0; i < core::kNumDropReasons; ++i) {
      const auto reason = static_cast<core::DropReason>(i);
      EXPECT_EQ(r.counter_value(
                    r.counter("vm.dropped." + std::string(core::name(reason)))),
                m.drops_by_reason[reason])
          << algo << " reason " << core::name(reason);
    }

    // The trace itself honors the §14 well-formedness contract.
    std::istringstream in(sink.str());
    const TraceSummary s = summarize_trace(in);
    EXPECT_TRUE(s.well_formed()) << algo;
    EXPECT_EQ(s.overflow_dropped, 0u) << algo;
    EXPECT_GT(s.events, 0u) << algo;
    bool saw_admission = false;
    for (const auto& sp : s.spans) saw_admission |= sp.name == "admission";
    EXPECT_TRUE(saw_admission) << algo;
  }
}

TEST(TelemetryEngine, LifecycleCountersMatchMetricsUnderFaults) {
  const wl::Workload w = saturating_workload(4000);
  const FaultPlan faults = small_fault_plan();
  const MigrationPlan migrations = small_migration_plan();

  Engine plain(Scenario::paper_defaults(), "RISA");
  plain.set_fault_plan(&faults);
  plain.set_migration_plan(&migrations);
  const std::string want = metrics_fingerprint(plain.run(w, "faulty"));

  std::ostringstream sink;
  TelemetryConfig cfg;
  Telemetry tel(cfg, sink);
  Engine traced(Scenario::paper_defaults(), "RISA");
  traced.set_fault_plan(&faults);
  traced.set_migration_plan(&migrations);
  traced.set_telemetry(&tel);
  const SimMetrics m = traced.run(w, "faulty");
  EXPECT_EQ(metrics_fingerprint(m), want);
  tel.close();

  ASSERT_GT(m.killed, 0u) << "fault plan produced no kills";
  MetricsRegistry& r = tel.registry();
  EXPECT_EQ(r.counter_value(r.counter("vm.killed")),
            static_cast<std::int64_t>(m.killed));
  EXPECT_EQ(r.counter_value(r.counter("vm.requeued")),
            static_cast<std::int64_t>(m.requeued));
  EXPECT_EQ(r.counter_value(r.counter("vm.retry_placed")),
            static_cast<std::int64_t>(m.retry_placed));
  // Every scheduled retry executes before the calendar drains.
  EXPECT_EQ(r.counter_value(r.counter("vm.retries")),
            static_cast<std::int64_t>(m.requeued));
  EXPECT_EQ(r.counter_value(r.counter("vm.migrated")),
            static_cast<std::int64_t>(m.migrated));
  EXPECT_GT(r.counter_value(r.counter("fault.events")), 0);

  std::istringstream in(sink.str());
  const TraceSummary s = summarize_trace(in);
  EXPECT_TRUE(s.well_formed());
  std::uint64_t kills = 0, faults_seen = 0;
  for (const auto& i : s.instants) {
    if (i.name.rfind("kill", 0) == 0) kills += i.count;
    if (i.name == "box-fail" || i.name == "box-repair" ||
        i.name == "link-fail" || i.name == "link-repair") {
      faults_seen += i.count;
    }
  }
  EXPECT_EQ(kills, m.killed);
  EXPECT_GT(faults_seen, 0u);
}

TEST(TelemetryEngine, RegistryOnlyModeWithEmptyTracePath) {
  const wl::Workload w = saturating_workload(2000);
  TelemetryConfig cfg;  // trace_path empty: no file, registry still accrues
  Telemetry tel(cfg);
  EXPECT_FALSE(tel.writer().ok());
  Engine engine(Scenario::paper_defaults(), "RISA");
  engine.set_telemetry(&tel);
  const SimMetrics m = engine.run(w, "reg-only");
  MetricsRegistry& r = tel.registry();
  EXPECT_EQ(r.counter_value(r.counter("vm.admitted")),
            static_cast<std::int64_t>(m.placed));
  EXPECT_EQ(tel.writer().emitted(), 0u);
  EXPECT_GT(tel.writer().dropped(), 0u);
}

TEST(TelemetryEngine, CategoryMasksHonored) {
  const wl::Workload w = saturating_workload(4000);
  const FaultPlan faults = small_fault_plan();

  struct Expectation {
    std::uint32_t mask;
    std::set<std::string> counters;
    bool spans;     // admission/settlement window spans expected
    bool instants;  // lifecycle instants expected
  };
  const Expectation cases[] = {
      {kTraceLifecycle,
       {"live_vms", "offline_boxes", "failed_links"},
       false,
       true},
      {kTracePlacement, {"arrival_ring_depth"}, true, false},
      {kTracePower, {"holding_power_w"}, false, false},
      {kTraceCalendar, {"calendar_events"}, false, false},
  };
  for (const Expectation& want : cases) {
    std::ostringstream sink;
    TelemetryConfig cfg;
    cfg.categories = want.mask;
    Telemetry tel(cfg, sink);
    Engine engine(Scenario::paper_defaults(), "RISA");
    engine.set_fault_plan(&faults);
    engine.set_telemetry(&tel);
    (void)engine.run(w, "mask");
    tel.close();

    std::istringstream in(sink.str());
    const TraceSummary s = summarize_trace(in);
    EXPECT_TRUE(s.well_formed()) << "mask " << want.mask;
    std::set<std::string> counters;
    for (const auto& c : s.counters) counters.insert(c.name);
    EXPECT_EQ(counters, want.counters) << "mask " << want.mask;
    EXPECT_EQ(!s.spans.empty(), want.spans) << "mask " << want.mask;
    EXPECT_EQ(!s.instants.empty(), want.instants) << "mask " << want.mask;
  }
}

TEST(TelemetryEngine, ProfilerExportsPhaseTrack) {
  const wl::Workload w = saturating_workload(2000);
  std::ostringstream sink;
  TelemetryConfig cfg;
  cfg.categories = 0;  // phase track is never masked
  Telemetry tel(cfg, sink);
  Engine engine(Scenario::paper_defaults(), "RISA");
  engine.set_profiling(true);
  engine.set_telemetry(&tel);
  (void)engine.run(w, "profiled");
  tel.close();

  std::istringstream in(sink.str());
  const TraceSummary s = summarize_trace(in);
  EXPECT_TRUE(s.well_formed());
  bool saw_merge = false, saw_placement = false;
  for (const auto& sp : s.spans) {
    saw_merge |= sp.name == "merge";
    saw_placement |= sp.name == "placement";
  }
  EXPECT_TRUE(saw_merge);
  EXPECT_TRUE(saw_placement);
}

TEST(TelemetryEngine, SampleCadenceThinsCounterTracks) {
  const wl::Workload w = saturating_workload(4000);
  auto count_samples = [&](double cadence) {
    std::ostringstream sink;
    TelemetryConfig cfg;
    cfg.sample_cadence_tu = cadence;
    Telemetry tel(cfg, sink);
    Engine engine(Scenario::paper_defaults(), "RISA");
    engine.set_telemetry(&tel);
    (void)engine.run(w, "cadence");
    tel.close();
    std::istringstream in(sink.str());
    const TraceSummary s = summarize_trace(in);
    EXPECT_TRUE(s.counters_monotone);
    for (const auto& c : s.counters) {
      if (c.name == "live_vms") return c.samples;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t dense = count_samples(0.0);
  const std::uint64_t sparse = count_samples(500.0);
  EXPECT_GT(dense, 0u);
  EXPECT_GT(sparse, 0u);
  EXPECT_LT(sparse, dense / 2);
}

// --- Sweep integration ------------------------------------------------------

TEST(TelemetrySweep, FigureMatrixFingerprintsUnchangedByPerCellTraces) {
  SweepSpec spec = SweepSpec::figure_matrix(kDefaultSeed);
  const SweepRunner runner(0);
  const auto plain = runner.run(spec);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "risa_traces";
  std::filesystem::create_directories(dir);
  spec.trace_dir = dir.string();
  const auto traced = runner.run(spec);

  ASSERT_EQ(plain.size(), traced.size());
  std::size_t traces_found = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(metrics_fingerprint(traced[i].metrics),
              metrics_fingerprint(plain[i].metrics))
        << "cell " << i << " (" << plain[i].metrics.workload << ", "
        << plain[i].metrics.algorithm << ")";
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++traces_found;
    const TraceSummary s = summarize_trace_file(entry.path().string());
    EXPECT_TRUE(s.well_formed()) << entry.path();
    EXPECT_GT(s.events, 0u) << entry.path();
  }
  EXPECT_EQ(traces_found, spec.cell_count());
  std::filesystem::remove_all(dir);
}

// --- Checkpoint / resume ----------------------------------------------------

TEST(TelemetryCheckpoint, ResumeBitIdenticalWithTracingArmedBothEnds) {
  const FaultPlan faults = small_fault_plan();
  const MigrationPlan migrations = small_migration_plan();
  wl::SyntheticConfig cfg;
  cfg.count = 4000;

  // The uninterrupted, untraced run is the reference fingerprint.
  std::string want;
  {
    Engine engine(Scenario::paper_defaults(), "RISA");
    engine.set_fault_plan(&faults);
    engine.set_migration_plan(&migrations);
    wl::SyntheticStreamSource source(cfg, kDefaultSeed);
    want = metrics_fingerprint(engine.run_stream(source, "ckpt"));
  }

  // Checkpointing run with tracing armed.
  std::vector<std::string> checkpoints;
  CheckpointPolicy policy;
  policy.every_events = 1500;
  policy.emit = [&checkpoints](const std::string& bytes) {
    checkpoints.push_back(bytes);
  };
  std::ostringstream full_sink;
  TelemetryConfig tcfg;
  Telemetry full_tel(tcfg, full_sink);
  Engine engine(Scenario::paper_defaults(), "RISA");
  engine.set_fault_plan(&faults);
  engine.set_migration_plan(&migrations);
  engine.set_telemetry(&full_tel);
  wl::SyntheticStreamSource source(cfg, kDefaultSeed);
  const SimMetrics full = engine.run_stream(source, "ckpt", &policy);
  EXPECT_EQ(metrics_fingerprint(full), want);
  ASSERT_GE(checkpoints.size(), 2u);

  // Every resume runs with its own armed telemetry; the sampler re-arms
  // at the restored sim time (no telemetry state crosses the checkpoint),
  // and each resumed run reproduces the uninterrupted fingerprint.
  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    std::ostringstream sink;
    Telemetry tel(tcfg, sink);
    Engine fresh(Scenario::paper_defaults(), "RISA");
    fresh.set_fault_plan(&faults);
    fresh.set_migration_plan(&migrations);
    fresh.set_telemetry(&tel);
    wl::SyntheticStreamSource restored(cfg, kDefaultSeed);
    std::istringstream in(checkpoints[c]);
    const SimMetrics resumed = fresh.resume_stream(in, restored);
    EXPECT_EQ(metrics_fingerprint(resumed), want) << "checkpoint " << c;
    tel.close();
    std::istringstream trace_in(sink.str());
    const TraceSummary s = summarize_trace(trace_in);
    EXPECT_TRUE(s.well_formed()) << "checkpoint " << c;
    EXPECT_GT(s.events, 0u) << "checkpoint " << c;
  }
}

// --- Summary formatting -----------------------------------------------------

TEST(TraceSummaryFormat, ReportsViolationsAndTopSpans) {
  // A hand-built malformed trace: overlapping (non-nesting) spans on one
  // tid and a counter that steps backwards in ts.
  const std::string bad =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":10,\"name\":\"a\","
      "\"cat\":\"t\"},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":5,\"dur\":10,\"name\":\"b\","
      "\"cat\":\"t\"},"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":7,\"name\":\"c\","
      "\"args\":{\"value\":1}},"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":3,\"name\":\"c\","
      "\"args\":{\"value\":2}}"
      "],\"overflowDropped\":4}";
  std::istringstream in(bad);
  const TraceSummary s = summarize_trace(in);
  EXPECT_FALSE(s.spans_nest);
  EXPECT_FALSE(s.counters_monotone);
  EXPECT_FALSE(s.well_formed());
  EXPECT_EQ(s.overflow_dropped, 4u);
  const std::string report = format_trace_summary(s);
  EXPECT_NE(report.find("VIOLATION"), std::string::npos);
  EXPECT_NE(report.find("overflow-dropped"), std::string::npos);
}

TEST(TraceSummaryFormat, MalformedJsonThrows) {
  std::istringstream truncated("{\"traceEvents\":[{\"ph\":\"X\"");
  EXPECT_THROW((void)summarize_trace(truncated), std::runtime_error);
  std::istringstream trailing("{\"traceEvents\":[]} extra");
  EXPECT_THROW((void)summarize_trace(trailing), std::runtime_error);
}

}  // namespace
}  // namespace risa::sim
