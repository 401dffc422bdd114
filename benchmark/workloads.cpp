#include "workloads.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace risa::bench {
namespace {

constexpr double kBoxMtbfTu = 1000.0;
constexpr double kBoxMttrTu = 800.0;
constexpr std::uint64_t kBoxFaultSeed = 99;
/// Link faults arrive at a quarter of the box-fault rate.
constexpr double kLinkMtbfTu = 4.0 * kBoxMtbfTu;

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double interarrival_tu(const WorkloadSpec& spec) {
  return kLifetimeTu /
         (kVmsPerRack * static_cast<double>(spec.racks) * spec.load);
}

sim::Scenario scenario_of(const WorkloadSpec& spec, bool with_faults) {
  sim::Scenario s = sim::Scenario::paper_defaults();
  s.cluster.racks = spec.racks;
  if (spec.faults && with_faults) {
    s.migrations.period_tu = 500.0;
    s.migrations.per_sweep_budget = 8;
  }
  return s;
}

wl::SyntheticConfig stream_of(const WorkloadSpec& spec) {
  wl::SyntheticConfig cfg;
  cfg.count = spec.vms;
  cfg.arrivals.mean_interarrival_tu = interarrival_tu(spec);
  cfg.arrivals.base_lifetime_tu = kLifetimeTu;
  cfg.arrivals.lifetime_increment_tu = 0.0;
  return cfg;
}

sim::FaultPlan fault_plan_of(const WorkloadSpec& spec, std::uint64_t seed,
                             std::uint32_t num_boxes,
                             std::uint32_t num_links) {
  // Faults cover the arrival span; repairs may land after it.
  const double horizon =
      static_cast<double>(spec.vms) * interarrival_tu(spec);
  sim::MtbfSpec box;
  box.mtbf_tu = kBoxMtbfTu;
  box.mttr_tu = kBoxMttrTu;
  box.seed = kBoxFaultSeed;
  box.horizon_tu = horizon;
  box.num_boxes = num_boxes;
  sim::FaultPlan plan = sim::compile_mtbf_plan(box);

  // Link faults: the same process over link ids, at a quarter of the rate,
  // seeded apart from the workload stream (which draws from Rng(seed)).
  sim::MtbfSpec links = box;
  links.mtbf_tu = kLinkMtbfTu;
  links.seed = SplitMix64(seed).next();
  links.num_boxes = num_links;
  for (sim::FaultAction a : sim::compile_mtbf_plan(links).actions) {
    a.kind = a.kind == sim::FaultAction::Kind::Fail
                 ? sim::FaultAction::Kind::LinkFail
                 : sim::FaultAction::Kind::LinkRepair;
    a.link = a.box;
    a.box = sim::FaultAction::kNoBox;
    plan.actions.push_back(a);
  }
  std::stable_sort(plan.actions.begin(), plan.actions.end(),
                   [](const sim::FaultAction& a, const sim::FaultAction& b) {
                     return a.at_time < b.at_time;
                   });
  plan.retry.max_attempts = 2;
  plan.retry.delay_tu = 25.0;
  plan.seed = seed;
  plan.validate();
  return plan;
}

Instance::Instance(const WorkloadSpec& spec, std::uint64_t seed,
                   bool with_faults)
    : engine_(std::make_unique<sim::Engine>(scenario_of(spec, with_faults),
                                            std::string(spec.algorithm))),
      source_(std::make_unique<wl::SyntheticStreamSource>(stream_of(spec),
                                                          seed)) {
  if (spec.faults && with_faults) {
    plan_ = fault_plan_of(
        spec, seed, static_cast<std::uint32_t>(engine_->cluster().num_boxes()),
        static_cast<std::uint32_t>(engine_->fabric().num_links()));
    engine_->set_fault_plan(&plan_);
  }
}

}  // namespace risa::bench
