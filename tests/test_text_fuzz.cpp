// Seeded mutation fuzzing of every text reader: fault and migration plan
// JSON, scenario `key = value` files, trace CSV and the trace-summary JSON
// reader.  Seeds come from the repository's own writers; each mutant is
// built from bit flips, byte inserts and deletes, extreme-number tokens,
// truncation, splices between seeds and (rarely) a nesting run deep enough
// to exhaust the stack of a recursive reader.
//
// Every mutant must either produce a result that validates or be refused
// with std::runtime_error / std::invalid_argument.  Any other exception
// fails the test; a crash or a sanitizer report fails the binary.  The
// seed and mutant counts are fixed, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/scenario_io.hpp"
#include "sim/telemetry.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

namespace risa::sim {
namespace {

constexpr int kMutantsPerTarget = 3000;
/// A nesting run far past JsonCursor::kMaxDepth: enough to overflow the
/// stack of a reader that recurses once per level.
constexpr std::size_t kDeepRun = std::size_t{1} << 18;

/// One untrusted-input entry point: seeds from its writer, and a check
/// that parses a mutant and validates whatever it accepts.
struct Target {
  const char* name;
  std::vector<std::string> seeds;
  std::function<void(const std::string&)> accept;
};

FaultPlan sample_fault_plan() {
  FaultPlan plan;
  plan.seed = 99;
  plan.retry = RetryPolicy{2, 25.0};
  FaultAction fail;
  fail.at_time = 120.5;
  fail.box = 3;
  plan.actions.push_back(fail);
  FaultAction burst;
  burst.after_admissions = 1500;
  burst.random_boxes = 2;
  plan.actions.push_back(burst);
  FaultAction link;
  link.kind = FaultAction::Kind::LinkFail;
  link.at_time = 200.0;
  link.random_links = 3;
  plan.actions.push_back(link);
  FaultAction mend;
  mend.kind = FaultAction::Kind::LinkRepair;
  mend.at_time = 400.0;
  mend.link = 17;
  plan.actions.push_back(mend);
  return plan;
}

std::string telemetry_trace() {
  wl::SyntheticConfig cfg;
  cfg.count = 30;
  const wl::Workload workload = wl::generate_synthetic(cfg, 5);
  std::ostringstream sink;
  {
    Telemetry telemetry(TelemetryConfig{}, sink);
    Engine engine(Scenario::paper_defaults(), "RISA");
    engine.set_telemetry(&telemetry);
    (void)engine.run(workload, "fuzz");
    telemetry.close();
  }
  return sink.str();
}

std::vector<Target> targets() {
  MigrationPlan migration;
  migration.period_tu = 200.0;
  migration.first_sweep_at = 12.25;
  migration.min_interrack_fraction = 0.3;
  migration.per_sweep_budget = 2;
  migration.total_budget = 64;
  migration.fixed_cost_tu = 1.5;
  migration.skip_while_degraded = true;

  Scenario scenario = Scenario::paper_defaults();
  scenario.cluster.racks = 9;
  scenario.photonics.switch_energy.mrr.alpha = 0.7777777777;
  scenario.fabric.racks_per_pod = 3;
  std::ostringstream saved, saved_defaults;
  save_scenario(saved, scenario);
  save_scenario(saved_defaults, Scenario::paper_defaults());

  wl::SyntheticConfig cfg;
  cfg.count = 20;
  std::ostringstream csv;
  wl::write_trace(csv, wl::generate_synthetic(cfg, 3));

  return {
      {"fault plan",
       {fault_plan_json(sample_fault_plan()), fault_plan_json(FaultPlan{})},
       [](const std::string& text) {
         const FaultPlan plan = parse_fault_plan_json(text);
         plan.validate();
         EXPECT_EQ(parse_fault_plan_json(fault_plan_json(plan)), plan);
       }},
      {"migration plan",
       {migration_plan_json(migration), migration_plan_json(MigrationPlan{})},
       [](const std::string& text) {
         const MigrationPlan plan = parse_migration_plan_json(text);
         plan.validate();
         EXPECT_EQ(parse_migration_plan_json(migration_plan_json(plan)), plan);
       }},
      {"scenario",
       {saved.str(), saved_defaults.str()},
       [](const std::string& text) {
         std::istringstream in(text);
         const Scenario s = load_scenario(in);
         s.validate();
         // Whatever loads must save to a file that loads again.
         std::stringstream again;
         save_scenario(again, s);
         (void)load_scenario(again);
       }},
      {"trace csv",
       {csv.str()},
       [](const std::string& text) {
         std::istringstream in(text);
         for (const wl::VmRequest& vm : wl::read_trace(in)) {
           EXPECT_TRUE(vm.cores > 0 && vm.ram_mb > 0 && vm.storage_mb > 0);
           EXPECT_TRUE(vm.arrival >= 0 && vm.lifetime > 0);
           EXPECT_TRUE(std::isfinite(vm.arrival + vm.lifetime));
         }
       }},
      {"trace summary",
       {telemetry_trace()},
       [](const std::string& text) {
         std::istringstream in(text);
         (void)format_trace_summary(summarize_trace(in));
       }},
  };
}

class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string> pool)
      : rng_(seed), pool_(std::move(pool)) {}

  std::string mutant(const std::vector<std::string>& seeds) {
    std::string s = seeds[below(seeds.size())];
    if (below(32) == 0) return deep(std::move(s));
    // Half the mutants carry one edit, so many stay close enough to the
    // grammar to reach the value checks behind it.
    const std::size_t ops = below(2) == 0 ? 1 : 2 + below(3);
    for (std::size_t i = 0; i < ops; ++i) mutate(s, seeds);
    return s;
  }

 private:
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  void mutate(std::string& s, const std::vector<std::string>& seeds) {
    static const char* const kNumbers[] = {
        "nan", "inf", "-inf", "-1", "1e400", "1e300", "-0", "0.5", "1e-320",
        "4294967295", "4294967296", "18446744073709551615",
        "18446744073709551616", "9223372036854775808", "2.0", "7"};
    static const char* const kTokens[] = {
        "\\u0000", "\\ud800", "\\n", "\"", "{", "}", "[", "]", ",", ":",
        "=", "true", "null", "\n", "#", " "};
    const std::size_t at = below(s.size() + 1);
    switch (below(8)) {
      case 0:  // bit flip
        if (!s.empty()) {
          s[below(s.size())] ^= static_cast<char>(1u << below(8));
        }
        break;
      case 1:  // insert one random byte
        s.insert(at, 1, static_cast<char>(below(256)));
        break;
      case 2:  // delete a short range
        s.erase(at, 1 + below(8));
        break;
      case 3:  // truncate
        s.resize(at);
        break;
      case 4: {  // splice: our prefix + a seed's suffix, mostly our own kind
        const std::string& other = below(4) == 0 ? pool_[below(pool_.size())]
                                                 : seeds[below(seeds.size())];
        s = s.substr(0, at) + other.substr(below(other.size() + 1));
        break;
      }
      case 5:  // insert a structural token
        s.insert(at, kTokens[below(std::size(kTokens))]);
        break;
      default: {  // replace the number run around `at` with an extreme one
        const auto is_num = [&](std::size_t i) {
          return i < s.size() &&
                 std::string_view("0123456789.-+eE").find(s[i]) !=
                     std::string_view::npos;
        };
        std::size_t lo = s.find_first_of("0123456789", at);
        if (lo == std::string::npos) break;
        std::size_t hi = lo;
        while (lo > 0 && is_num(lo - 1)) --lo;
        while (is_num(hi)) ++hi;
        s.replace(lo, hi - lo, kNumbers[below(std::size(kNumbers))]);
        break;
      }
    }
  }

  /// A deep nesting run placed where a value is expected (after a ':'
  /// when there is one), so readers that skip unknown values descend it.
  std::string deep(std::string s) {
    std::size_t at = below(s.size() + 1);
    for (std::size_t tries = 0; tries < 16; ++tries) {
      const std::size_t colon = s.find(':', below(s.size()));
      if (colon != std::string::npos) {
        at = colon + 1;
        break;
      }
    }
    const bool arrays = below(2) == 0;
    std::string run;
    run.reserve(kDeepRun);
    while (run.size() < kDeepRun) run += arrays ? "[" : "{\"k\":";
    s.insert(at, run);
    return s;
  }

  std::mt19937_64 rng_;
  std::vector<std::string> pool_;
};

/// Printable head of a mutant for failure messages.
std::string excerpt(const std::string& s) {
  std::string out;
  for (char c : s.substr(0, 160)) {
    const auto u = static_cast<unsigned char>(c);
    out += (u >= 0x20 && u < 0x7F) ? std::string(1, c)
                                   : "\\x" + std::to_string(u);
  }
  return s.size() > 160 ? out + "..." : out;
}

TEST(TextFuzz, EveryMutantValidatesOrIsRefusedCleanly) {
  const std::vector<Target> all = targets();
  std::vector<std::string> pool;
  for (const Target& t : all) {
    pool.insert(pool.end(), t.seeds.begin(), t.seeds.end());
  }
  Mutator mutator(0x5EEDF00Du, pool);

  for (const Target& t : all) {
    // The unmutated seeds must pass, or the target checks nothing.
    for (const std::string& seed : t.seeds) {
      EXPECT_NO_THROW(t.accept(seed)) << t.name;
    }
    int accepted = 0;
    int refused = 0;
    int bad = 0;
    for (int i = 0; i < kMutantsPerTarget && bad < 5; ++i) {
      const std::string m = mutator.mutant(t.seeds);
      try {
        t.accept(m);
        ++accepted;
      } catch (const std::runtime_error&) {
        ++refused;
      } catch (const std::invalid_argument&) {
        ++refused;
      } catch (const std::exception& e) {
        ++bad;
        ADD_FAILURE() << t.name << " mutant " << i << " threw a non-input "
                      << "error: " << e.what() << "\n  " << excerpt(m);
      } catch (...) {
        ++bad;
        ADD_FAILURE() << t.name << " mutant " << i
                      << " threw a non-exception\n  " << excerpt(m);
      }
    }
    // Both outcomes occur, so the mutants neither all break the syntax nor
    // all leave it untouched.
    EXPECT_GT(accepted, 0) << t.name;
    EXPECT_GT(refused, 0) << t.name;
  }
}

}  // namespace
}  // namespace risa::sim
