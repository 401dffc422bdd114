#include "sim/scenario_io.hpp"

#include <algorithm>
#include <array>
#include <concepts>
#include <cmath>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <variant>
#include <vector>

#include "common/json_cursor.hpp"
#include "common/string_util.hpp"

namespace risa::sim {

namespace {

/// std::visit over one lambda per alternative.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

// --- Scenario keys ----------------------------------------------------------
//
// One row per key: its name, the field it sets and the scale from the
// written unit to the field's carrier unit.  The field's type decides how
// the value parses and prints; the row order is the save order.

constexpr double kCount = 1.0;        ///< counts, enums and unscaled reals
constexpr double kGb = 1024.0;        ///< GB written, MB stored (gb())
constexpr double kGbps = 1000.0;      ///< Gb/s written, Mb/s stored (gbps())
constexpr double kMilliwatt = 1e-3;   ///< mW written, W stored
constexpr double kPicojoule = 1e-12;  ///< pJ/bit written, J/bit stored

using Field = std::variant<std::uint32_t*, std::int64_t*, double*,
                           net::BandwidthBasis*, core::CompanionSearch*>;

struct Key {
  std::string_view name;
  Field field;
  double scale = kCount;
};

std::vector<Key> keys(Scenario& s) {
  topo::ClusterConfig& c = s.cluster;
  net::FabricConfig& f = s.fabric;
  net::BandwidthModel& b = s.bandwidth;
  phot::MrrParams& mrr = s.photonics.switch_energy.mrr;
  return {
      {"cluster.racks", &c.racks},
      {"cluster.boxes_per_rack.cpu", &c.boxes_per_rack[ResourceType::Cpu]},
      {"cluster.boxes_per_rack.ram", &c.boxes_per_rack[ResourceType::Ram]},
      {"cluster.boxes_per_rack.sto", &c.boxes_per_rack[ResourceType::Storage]},
      {"cluster.bricks_per_box", &c.bricks_per_box},
      {"cluster.units_per_brick", &c.units_per_brick},
      {"cluster.cores_per_cpu_unit", &c.unit_scale.cores_per_cpu_unit},
      {"cluster.gb_per_ram_unit", &c.unit_scale.mb_per_ram_unit, kGb},
      {"cluster.gb_per_storage_unit", &c.unit_scale.mb_per_storage_unit, kGb},
      {"fabric.links_per_box", &f.links_per_box},
      {"fabric.links_per_rack", &f.links_per_rack},
      {"fabric.link_capacity_gbps", &f.link_capacity, kGbps},
      {"fabric.channel_rate_gbps", &f.channel_rate, kGbps},
      {"fabric.box_switch_ports", &f.box_switch_ports},
      {"fabric.rack_switch_ports", &f.rack_switch_ports},
      {"fabric.inter_rack_switch_ports", &f.inter_rack_switch_ports},
      {"fabric.racks_per_pod", &f.racks_per_pod},
      {"fabric.links_per_pod", &f.links_per_pod},
      {"fabric.pod_switch_ports", &f.pod_switch_ports},
      {"bandwidth.cpu_ram_gbps_per_unit", &b.cpu_ram_per_unit, kGbps},
      {"bandwidth.ram_sto_gbps_per_unit", &b.ram_sto_per_unit, kGbps},
      {"bandwidth.cpu_ram_basis", &b.cpu_ram_basis},
      {"bandwidth.ram_sto_basis", &b.ram_sto_basis},
      {"photonics.alpha", &mrr.alpha},
      {"photonics.trim_power_mw", &mrr.trim_power_w, kMilliwatt},
      {"photonics.switch_power_mw", &mrr.switch_power_w, kMilliwatt},
      {"photonics.transceiver_pj_per_bit",
       &s.photonics.transceiver.energy_per_bit_j, kPicojoule},
      {"photonics.seconds_per_time_unit",
       &s.photonics.switch_energy.seconds_per_time_unit},
      {"latency.intra_rack_ns", &s.latency.intra_rack_ns},
      {"latency.inter_rack_ns", &s.latency.inter_rack_ns},
      {"latency.inter_pod_ns", &s.latency.inter_pod_ns},
      {"allocator.companion", &s.allocator.companion},
  };
}

/// Enum spellings, indexed by the enumerator's value.
constexpr std::array<std::string_view, 3> kBasisNames{"cpu-units", "ram-units",
                                                      "sto-units"};
constexpr std::array<std::string_view, 2> kCompanionNames{"global-order",
                                                          "anchor-rack-first"};
std::span<const std::string_view> enum_names(const net::BandwidthBasis*) {
  return kBasisNames;
}
std::span<const std::string_view> enum_names(const core::CompanionSearch*) {
  return kCompanionNames;
}

/// Throws "'<v>' <why>"; built by appends, which GCC 12's -Wrestrict
/// accepts where `"'" + std::string(v)` is a false positive.
[[noreturn]] void bad_value(std::string_view v, std::string_view why) {
  std::string msg = "'";
  msg.append(v).append("' ").append(why);
  throw std::runtime_error(msg);
}

double parse_finite(std::string_view v) {
  const double x = parse_f64(v);
  if (!std::isfinite(x)) bad_value(v, "is not a finite number");
  return x;
}

/// Counts take a plain integer that fits the field; scaled quantities take
/// a real, range-checked before gb()/gbps()'s rounding converts it.
template <std::integral T>
void load(T* field, std::string_view v, double scale) {
  constexpr auto kMax = std::numeric_limits<T>::max();
  if (scale != kCount) {
    const double x = parse_finite(v) * scale;
    if (!(x >= 0.0 && x < static_cast<double>(kMax))) {
      bad_value(v, "is out of range");
    }
    *field = static_cast<T>(x + 0.5);
    return;
  }
  const std::int64_t n = parse_i64(v);
  if (n < 0 || static_cast<std::uint64_t>(n) > kMax) {
    bad_value(v, "is outside [0, " + std::to_string(kMax) + "]");
  }
  *field = static_cast<T>(n);
}

void load(double* field, std::string_view v, double scale) {
  *field = parse_finite(v) * scale;
}

template <typename E>
  requires std::is_enum_v<E>
void load(E* field, std::string_view v, double /*scale*/) {
  const auto names = enum_names(field);
  const auto it = std::find(names.begin(), names.end(), to_lower(v));
  if (it == names.end()) {
    std::string choices = "is not one of";
    for (std::string_view n : names) choices.append(" ").append(n);
    bad_value(v, choices);
  }
  *field = static_cast<E>(it - names.begin());
}

template <std::integral T>
std::string print(const T* field, double scale) {
  return scale == kCount ? std::to_string(*field)
                         : json_number(static_cast<double>(*field) / scale);
}

std::string print(const double* field, double scale) {
  return json_number(*field / scale);
}

template <typename E>
  requires std::is_enum_v<E>
std::string print(const E* field, double /*scale*/) {
  return std::string(enum_names(field)[static_cast<std::size_t>(*field)]);
}

/// Whole file as a string, for the plan parsers.
std::string read_file(const std::string& path, const char* what) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const char* what,
                const std::string& text) {
  std::ofstream os(path);
  os << text;
  if (!os) {
    throw std::runtime_error(std::string(what) + ": cannot write " + path);
  }
}

/// Validate a parsed plan, naming the document in the error.
template <typename Plan>
Plan validated(Plan plan, const char* what) {
  try {
    plan.validate();
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(what) + " JSON: " + e.what());
  }
  return plan;
}

}  // namespace

Scenario load_scenario(std::istream& is) {
  Scenario scenario = Scenario::paper_defaults();
  const std::vector<Key> table = keys(scenario);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("scenario line " + std::to_string(line_no) +
                               ": expected 'key = value'");
    }
    const std::string_view key = trim(trimmed.substr(0, eq));
    const std::string_view value = trim(trimmed.substr(eq + 1));
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const Key& k) { return k.name == key; });
    if (row == table.end()) {
      throw std::runtime_error("scenario line " + std::to_string(line_no) +
                               ": unknown key '" + std::string(key) + "'");
    }
    try {
      std::visit([&](auto* field) { load(field, value, row->scale); },
                 row->field);
    } catch (const std::exception& e) {
      throw std::runtime_error("scenario line " + std::to_string(line_no) +
                               " (" + std::string(key) + "): " + e.what());
    }
  }
  scenario.validate();
  return scenario;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("scenario: cannot open " + path);
  return load_scenario(is);
}

void save_scenario(std::ostream& os, const Scenario& scenario) {
  os << "# RISA scenario (generated; see sim/scenario_io.hpp)\n";
  Scenario copy = scenario;  // keys() binds mutable fields; only read here
  for (const Key& row : keys(copy)) {
    os << row.name << " = "
       << std::visit([&](const auto* field) { return print(field, row.scale); },
                     row.field)
       << '\n';
  }
}

void save_scenario_file(const std::string& path, const Scenario& scenario) {
  std::ostringstream os;
  save_scenario(os, scenario);
  write_file(path, "scenario", os.str());
}

// --- FaultPlan JSON ---------------------------------------------------------

namespace {

/// Action spellings, indexed by FaultAction::Kind.
constexpr std::array<std::string_view, 4> kActionNames{"fail", "repair",
                                                       "link-fail",
                                                       "link-repair"};

FaultAction parse_action(JsonCursor& c) {
  FaultAction a;
  bool kind_seen = false;
  c.object([&](const std::string& key) {
    if (key == "action") {
      const std::string kind = c.string();
      const auto it = std::find(kActionNames.begin(), kActionNames.end(), kind);
      if (it == kActionNames.end()) {
        c.fail("unknown action '" + kind +
               "' (fail | repair | link-fail | link-repair)");
      }
      a.kind = static_cast<FaultAction::Kind>(it - kActionNames.begin());
      kind_seen = true;
    } else if (key == "at_time") {
      a.at_time = c.number();
    } else if (key == "after_admissions") {
      a.after_admissions = static_cast<std::int64_t>(c.u64(
          "after_admissions", std::numeric_limits<std::int64_t>::max()));
    } else if (key == "box") {
      a.box = c.u32("box");
    } else if (key == "random_boxes") {
      a.random_boxes = c.u32("random_boxes");
    } else if (key == "link") {
      a.link = c.u32("link");
    } else if (key == "random_links") {
      a.random_links = c.u32("random_links");
    } else {
      c.fail("unknown action key '" + key + "'");
    }
  });
  if (!kind_seen) c.fail("action object missing \"action\"");
  return a;
}

/// MigrationPlan is flat: one row per member drives both the writer (in
/// row order) and the reader.
using PlanField = std::variant<double*, std::uint32_t*, bool*>;

std::array<std::pair<const char*, PlanField>, 9> plan_keys(MigrationPlan& p) {
  return {{{"period_tu", &p.period_tu},
           {"first_sweep_at", &p.first_sweep_at},
           {"min_interrack_fraction", &p.min_interrack_fraction},
           {"per_sweep_budget", &p.per_sweep_budget},
           {"total_budget", &p.total_budget},
           {"fixed_cost_tu", &p.fixed_cost_tu},
           {"charge_transfer", &p.charge_transfer},
           {"only_if_improves", &p.only_if_improves},
           {"skip_while_degraded", &p.skip_while_degraded}}};
}

}  // namespace

std::string fault_plan_json(const FaultPlan& plan) {
  std::ostringstream os;
  os << "{\n  \"seed\": " << plan.seed << ",\n  \"retry\": {\"max_attempts\": "
     << plan.retry.max_attempts << ", \"delay_tu\": "
     << json_number(plan.retry.delay_tu) << "},\n  \"actions\": [";
  for (std::size_t i = 0; i < plan.actions.size(); ++i) {
    const FaultAction& a = plan.actions[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"action\": \""
       << kActionNames[static_cast<std::size_t>(a.kind)] << '"';
    if (a.time_triggered()) {
      os << ", \"at_time\": " << json_number(a.at_time);
    } else {
      os << ", \"after_admissions\": " << a.after_admissions;
    }
    if (a.targets_links()) {
      if (a.link != FaultAction::kNoLink) {
        os << ", \"link\": " << a.link;
      } else {
        os << ", \"random_links\": " << a.random_links;
      }
    } else if (a.box != FaultAction::kNoBox) {
      os << ", \"box\": " << a.box;
    } else {
      os << ", \"random_boxes\": " << a.random_boxes;
    }
    os << '}';
  }
  os << (plan.actions.empty() ? "]\n" : "\n  ]\n") << "}\n";
  return os.str();
}

FaultPlan parse_fault_plan_json(std::string_view json) {
  std::istringstream in{std::string(json)};
  JsonCursor c(in, "fault plan");
  FaultPlan plan;
  c.object([&](const std::string& key) {
    if (key == "seed") {
      plan.seed = c.u64("seed");
    } else if (key == "retry") {
      c.object([&](const std::string& rkey) {
        if (rkey == "max_attempts") {
          plan.retry.max_attempts = c.u32("max_attempts");
        } else if (rkey == "delay_tu") {
          plan.retry.delay_tu = c.number();
        } else {
          c.fail("unknown retry key '" + rkey + "'");
        }
      });
    } else if (key == "actions") {
      c.array([&] { plan.actions.push_back(parse_action(c)); });
    } else {
      c.fail("unknown key '" + key + "'");
    }
  });
  c.finish();
  return validated(std::move(plan), "fault plan");
}

FaultPlan load_fault_plan_file(const std::string& path) {
  return parse_fault_plan_json(read_file(path, "fault plan"));
}

void save_fault_plan_file(const std::string& path, const FaultPlan& plan) {
  write_file(path, "fault plan", fault_plan_json(plan));
}

// --- MigrationPlan JSON -----------------------------------------------------

std::string migration_plan_json(const MigrationPlan& plan) {
  std::ostringstream os;
  MigrationPlan copy = plan;  // plan_keys() binds mutable fields; only read
  const char* sep = "{\n  \"";
  for (const auto& [name, field] : plan_keys(copy)) {
    os << sep << name << "\": ";
    std::visit(Overloaded{[&](const double* v) { os << json_number(*v); },
                          [&](const std::uint32_t* v) { os << *v; },
                          [&](const bool* v) { os << std::boolalpha << *v; }},
               field);
    sep = ",\n  \"";
  }
  os << "\n}\n";
  return os.str();
}

MigrationPlan parse_migration_plan_json(std::string_view json) {
  std::istringstream in{std::string(json)};
  JsonCursor c(in, "migration plan");
  MigrationPlan plan;
  const auto keys = plan_keys(plan);
  c.object([&](const std::string& key) {
    const auto row = std::find_if(
        keys.begin(), keys.end(), [&](const auto& k) { return key == k.first; });
    if (row == keys.end()) c.fail("unknown key '" + key + "'");
    std::visit(Overloaded{[&](double* v) { *v = c.number(); },
                          [&](std::uint32_t* v) { *v = c.u32(row->first); },
                          [&](bool* v) { *v = c.boolean(); }},
               row->second);
  });
  c.finish();
  return validated(std::move(plan), "migration plan");
}

MigrationPlan load_migration_plan_file(const std::string& path) {
  return parse_migration_plan_json(read_file(path, "migration plan"));
}

void save_migration_plan_file(const std::string& path,
                              const MigrationPlan& plan) {
  write_file(path, "migration plan", migration_plan_json(plan));
}

}  // namespace risa::sim
