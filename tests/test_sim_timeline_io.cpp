// Timeline recording and scenario (de)serialization.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/json_cursor.hpp"
#include "common/string_util.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/scenario_io.hpp"
#include "sim/timeline.hpp"
#include "workload/synthetic.hpp"

namespace risa::sim {
namespace {

wl::Workload small_workload(std::size_t n = 200) {
  wl::SyntheticConfig cfg;
  cfg.count = n;
  return wl::generate_synthetic(cfg, 3);
}

TEST(Timeline, RecordsEveryPlacementAndDeparture) {
  Timeline timeline;
  Engine engine(Scenario::paper_defaults(), "RISA");
  engine.set_timeline(&timeline);
  const SimMetrics m = engine.run(small_workload(), "t");
  // One point per placement + one per departure (drops do not record).
  EXPECT_EQ(timeline.size(), 2 * m.placed);
  EXPECT_GT(timeline.peak_active_vms(), 0u);

  // Census sanity: the active count returns to zero at the end, times are
  // non-decreasing, utilizations bounded.
  const auto& points = timeline.points();
  EXPECT_EQ(points.back().active_vms, 0u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    ASSERT_GE(points[i].time, points[i - 1].time);
  }
  for (const TimelinePoint& p : points) {
    for (ResourceType t : kAllResources) {
      ASSERT_GE(p.utilization[t], 0.0);
      ASSERT_LE(p.utilization[t], 1.0);
    }
    ASSERT_GE(p.optical_power_w, -1e-9);
  }
}

TEST(Timeline, HoldingPowerIntegralMatchesLedgerEnergy) {
  // The instantaneous holding power integrated over time must equal the
  // trimming + transceiver energy the ledger charges (switching energy is
  // the one-time term, excluded from holding power).
  Timeline timeline;
  Engine engine(Scenario::paper_defaults(), "RISA");
  engine.set_timeline(&timeline);
  const SimMetrics m = engine.run(small_workload(100), "t");

  const auto& points = timeline.points();
  double integral = 0.0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    integral += points[i - 1].optical_power_w *
                (points[i].time - points[i - 1].time);
  }
  const double ledger_energy =
      m.energy.switch_trimming_j + m.energy.transceiver_j;
  EXPECT_NEAR(integral / ledger_energy, 1.0, 1e-6);
}

TEST(Timeline, CsvRoundTripShape) {
  Timeline timeline;
  Engine engine(Scenario::paper_defaults(), "NULB");
  engine.set_timeline(&timeline);
  (void)engine.run(small_workload(50), "t");

  std::stringstream ss;
  timeline.write_csv(ss);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> cells;
  for (std::string line; std::getline(ss, line);) {
    CsvReader::parse_line(line, cells);
    rows.push_back(cells);
  }
  ASSERT_EQ(rows.size(), timeline.size() + 1);  // header + points
  EXPECT_EQ(rows[0][0], "time");
  EXPECT_EQ(rows[0].size(), 14u);
  EXPECT_EQ(rows[0][5], "migrated_total");
  EXPECT_EQ(rows[0][7], "failed_links");
  for (std::size_t i = 1; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 14u);
  }
}

TEST(ScenarioIo, RoundTripsAllKeys) {
  // Every key moves off its default (checked line by line below).
  Scenario original = Scenario::paper_defaults();
  topo::ClusterConfig& c = original.cluster;
  c.racks = 9;
  c.boxes_per_rack = PerResource<std::uint32_t>{3, 4, 5};
  c.bricks_per_box = 7;
  c.units_per_brick = 12;
  c.unit_scale.cores_per_cpu_unit = 3;
  c.unit_scale.mb_per_ram_unit = 3000;       // 2.9296875 GB
  c.unit_scale.mb_per_storage_unit = 70000;  // 68.359375 GB
  net::FabricConfig& f = original.fabric;
  f.links_per_box = 8;
  f.links_per_rack = 17;
  f.link_capacity = 150500;  // 150.5 Gb/s
  f.channel_rate = 12345;    // 12.345 Gb/s
  f.box_switch_ports = 32;
  f.rack_switch_ports = 128;
  f.inter_rack_switch_ports = 1024;
  f.racks_per_pod = 3;
  f.links_per_pod = 9;
  f.pod_switch_ports = 256;
  original.bandwidth.cpu_ram_per_unit = 7250;
  original.bandwidth.ram_sto_per_unit = 1500;
  original.bandwidth.cpu_ram_basis = net::BandwidthBasis::RamUnits;
  original.bandwidth.ram_sto_basis = net::BandwidthBasis::StorageUnits;
  phot::MrrParams& mrr = original.photonics.switch_energy.mrr;
  mrr.alpha = 0.7777777777;
  mrr.trim_power_w = 20.5e-3;
  mrr.switch_power_w = 11.25e-3;
  original.photonics.transceiver.energy_per_bit_j = 18.5e-12;
  original.photonics.switch_energy.seconds_per_time_unit = 0.1234567890123456;
  original.latency.intra_rack_ns = 111.1;
  original.latency.inter_rack_ns = 1000.0 / 3.0;
  original.latency.inter_pod_ns = 555.5;
  original.allocator.companion = core::CompanionSearch::AnchorRackFirst;

  std::stringstream ss;
  save_scenario(ss, original);
  const std::string text = ss.str();
  const Scenario back = load_scenario(ss);

  std::stringstream defaults;
  save_scenario(defaults, Scenario::paper_defaults());
  const std::vector<std::string> ours = split(text, '\n');
  const std::vector<std::string> theirs = split(defaults.str(), '\n');
  ASSERT_EQ(ours.size(), theirs.size());
  for (std::size_t i = 1; i + 1 < ours.size(); ++i) {
    EXPECT_NE(ours[i], theirs[i]) << "key left at its default";
  }

  const topo::ClusterConfig& bc = back.cluster;
  EXPECT_EQ(bc.racks, 9u);
  for (ResourceType t : kAllResources) {
    EXPECT_EQ(bc.boxes_per_rack[t], c.boxes_per_rack[t]);
  }
  EXPECT_EQ(bc.bricks_per_box, 7u);
  EXPECT_EQ(bc.units_per_brick, 12);
  EXPECT_EQ(bc.unit_scale, c.unit_scale);
  const net::FabricConfig& bf = back.fabric;
  EXPECT_EQ(bf.links_per_box, 8u);
  EXPECT_EQ(bf.links_per_rack, 17u);
  EXPECT_EQ(bf.link_capacity, 150500);
  EXPECT_EQ(bf.channel_rate, 12345);
  EXPECT_EQ(bf.box_switch_ports, 32u);
  EXPECT_EQ(bf.rack_switch_ports, 128u);
  EXPECT_EQ(bf.inter_rack_switch_ports, 1024u);
  EXPECT_EQ(bf.racks_per_pod, 3u);
  EXPECT_EQ(bf.links_per_pod, 9u);
  EXPECT_EQ(bf.pod_switch_ports, 256u);
  EXPECT_EQ(back.bandwidth.cpu_ram_per_unit, 7250);
  EXPECT_EQ(back.bandwidth.ram_sto_per_unit, 1500);
  EXPECT_EQ(back.bandwidth.cpu_ram_basis, net::BandwidthBasis::RamUnits);
  EXPECT_EQ(back.bandwidth.ram_sto_basis, net::BandwidthBasis::StorageUnits);
  // Unscaled reals reload bit-exactly; mW and pJ/bit pass through one
  // scaling each way, so they are compared to within 4 ulps.
  const phot::MrrParams& bm = back.photonics.switch_energy.mrr;
  EXPECT_EQ(bm.alpha, 0.7777777777);
  EXPECT_DOUBLE_EQ(bm.trim_power_w, 20.5e-3);
  EXPECT_DOUBLE_EQ(bm.switch_power_w, 11.25e-3);
  EXPECT_DOUBLE_EQ(back.photonics.transceiver.energy_per_bit_j, 18.5e-12);
  EXPECT_EQ(back.photonics.switch_energy.seconds_per_time_unit,
            0.1234567890123456);
  EXPECT_EQ(back.latency.intra_rack_ns, 111.1);
  EXPECT_EQ(back.latency.inter_rack_ns, 1000.0 / 3.0);
  EXPECT_EQ(back.latency.inter_pod_ns, 555.5);
  EXPECT_EQ(back.allocator.companion, core::CompanionSearch::AnchorRackFirst);
}

TEST(ScenarioIo, ParsesCommentsAndWhitespace) {
  std::stringstream ss(
      "# a comment\n"
      "\n"
      "  cluster.racks = 4   # trailing comment\n"
      "fabric.links_per_box=2\n");
  const Scenario s = load_scenario(ss);
  EXPECT_EQ(s.cluster.racks, 4u);
  EXPECT_EQ(s.fabric.links_per_box, 2u);
}

TEST(ScenarioIo, RejectsUnknownKeysAndBadValues) {
  std::stringstream unknown("cluster.rackz = 4\n");
  EXPECT_THROW((void)load_scenario(unknown), std::runtime_error);

  std::stringstream bad_value("cluster.racks = many\n");
  EXPECT_THROW((void)load_scenario(bad_value), std::runtime_error);

  std::stringstream no_eq("cluster.racks 4\n");
  EXPECT_THROW((void)load_scenario(no_eq), std::runtime_error);

  std::stringstream bad_basis("bandwidth.cpu_ram_basis = bogus\n");
  EXPECT_THROW((void)load_scenario(bad_basis), std::runtime_error);

  // Values that would load silently wrong or hit undefined behaviour:
  // wider than the field, negative, non-finite, or past int64 once scaled.
  for (const char* line :
       {"cluster.racks = 4294967298", "cluster.racks = -1",
        "cluster.racks = 1.5", "cluster.units_per_brick = -16",
        "cluster.cores_per_cpu_unit = 99999999999999999999",
        "latency.inter_rack_ns = nan", "latency.inter_rack_ns = inf",
        "photonics.alpha = -inf", "photonics.trim_power_mw = 1e400",
        "fabric.link_capacity_gbps = 1e300", "fabric.channel_rate_gbps = -5",
        "cluster.gb_per_ram_unit = 1e17", "fabric.link_capacity_gbps = nan"}) {
    std::stringstream ss(std::string("# header\n") + line + "\n");
    const std::string_view text = line;
    const std::string key(text.substr(0, text.find(' ')));
    try {
      (void)load_scenario(ss);
      ADD_FAILURE() << "accepted " << line;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("scenario line 2 (" + key + ")"), std::string::npos)
          << what;
    }
  }
}

TEST(ScenarioIo, ValidatesResultingScenario) {
  std::stringstream ss("cluster.racks = 0\n");
  EXPECT_THROW((void)load_scenario(ss), std::invalid_argument);
}

TEST(ScenarioIo, LoadedScenarioDrivesTheEngine) {
  std::stringstream ss(
      "cluster.racks = 6\n"
      "latency.inter_rack_ns = 500\n");
  const Scenario s = load_scenario(ss);
  Engine engine(s, "NULB");
  const SimMetrics m = engine.run(small_workload(100), "t");
  EXPECT_EQ(m.placed + m.dropped, 100u);
  if (m.inter_rack_placements > 0) {
    EXPECT_DOUBLE_EQ(m.cpu_ram_latency_ns.max(), 500.0);
  }
}

// --- The shared JSON cursor -------------------------------------------------

JsonCursor cursor_over(std::istringstream& in) {
  return JsonCursor(in, "test");
}

TEST(JsonCursor, NestingIsBoundedByDepthConstant) {
  const int deep = JsonCursor::kMaxDepth;
  std::istringstream ok(std::string(deep, '[') + std::string(deep, ']'));
  JsonCursor c = cursor_over(ok);
  c.skip_value();
  c.finish();
  // One level deeper fails cleanly, as does a run deep enough to exhaust
  // the stack of a recursive reader.
  for (const int n : {deep + 1, 200000}) {
    std::istringstream in(std::string(n, '['));
    JsonCursor too_deep = cursor_over(in);
    try {
      too_deep.skip_value();
      ADD_FAILURE() << "accepted depth " << n;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(JsonCursor, DecodesTheStandardEscapeSet) {
  std::istringstream in(
      R"("\"\\\/\b\f\n\r\t\u0041\u00e9\u20AC\ud83d\ude00")");
  JsonCursor c = cursor_over(in);
  EXPECT_EQ(c.string(),
            "\"\\/\b\f\n\r\tA\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
  for (const char* bad : {R"("\x")", R"("\u12")", R"("\udc00")",
                          R"("\ud83dx")", "\"a\nb\"", "\"open"}) {
    std::istringstream bin(bad);
    JsonCursor bc = cursor_over(bin);
    EXPECT_THROW((void)bc.string(), std::runtime_error) << bad;
  }
  std::istringstream longest(
      "\"" + std::string(JsonCursor::kMaxString + 1, 'a') + "\"");
  JsonCursor lc = cursor_over(longest);
  EXPECT_THROW((void)lc.string(), std::runtime_error);
}

TEST(JsonCursor, NumbersAreFiniteAndIntegersRangeChecked) {
  for (const char* bad : {"1e400", "-1e400", "nan", "inf", "1e", "--1"}) {
    std::istringstream in(bad);
    JsonCursor c = cursor_over(in);
    EXPECT_THROW((void)c.number(), std::runtime_error) << bad;
  }
  std::istringstream big("1e308");
  JsonCursor bc = cursor_over(big);
  EXPECT_EQ(bc.number(), 1e308);
  // u64 digit runs convert exactly; other forms must be integral.
  std::istringstream ints("18446744073709551615 1e3 4294967295");
  JsonCursor ic = cursor_over(ints);
  EXPECT_EQ(ic.u64("a"), 18446744073709551615ull);
  EXPECT_EQ(ic.u64("b"), 1000u);
  EXPECT_EQ(ic.u32("c"), 4294967295u);
  for (const char* bad : {"4294967296", "-5", "1.5", "1e30"}) {
    std::istringstream in(bad);
    JsonCursor c = cursor_over(in);
    EXPECT_THROW((void)c.u32("field"), std::runtime_error) << bad;
  }
}

TEST(JsonCursor, ErrorsNameTheInputAndByteOffset) {
  std::istringstream in("[1, 2, ]");
  JsonCursor c = cursor_over(in);
  try {
    c.array([&] { (void)c.number(); });
    ADD_FAILURE() << "accepted a trailing comma";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "test JSON (byte 7): expected a number");
  }
  try {
    (void)parse_fault_plan_json("{\"seed\": 1,\n \"bogus\": 2}");
    ADD_FAILURE() << "accepted an unknown key";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "fault plan JSON (byte 21): unknown key 'bogus'");
  }
}

}  // namespace
}  // namespace risa::sim
