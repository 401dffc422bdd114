// The lifecycle tie storm shared by the admission-window and streaming
// tests: quantized arrivals, zero-lifetime VMs, box faults with retries,
// and migration sweeps.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sim/fault_plan.hpp"
#include "sim/migration_plan.hpp"
#include "workload/synthetic.hpp"

namespace risa::sim {

// Synthetic arrivals are cumulative-exponential doubles -- no two are ever
// equal.  Quantize arrivals into coarse buckets so dozens of VMs share each
// timestamp (floor keeps the sequence nondecreasing), and plant
// zero-lifetime VMs whose departures tie with later arrivals at the same
// instant -- the arrival-wins-every-tie merge rule under maximum stress.
inline wl::Workload tie_storm_workload(std::size_t n, std::uint64_t seed) {
  wl::SyntheticConfig cfg;
  cfg.count = n;
  wl::Workload w = wl::generate_synthetic(cfg, seed);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i].arrival = std::floor(w[i].arrival / 40.0) * 40.0;
    if (i % 7 == 0) w[i].lifetime = 0.0;
    if (i % 5 == 0) w[i].lifetime = 40.0;  // departure ties a later bucket
  }
  return w;
}

inline FaultPlan storm_faults() {
  FaultPlan plan;
  plan.seed = 99;
  plan.retry.max_attempts = 2;
  plan.retry.delay_tu = 7.0;
  // Every algorithm places into the first boxes early on, so failing them
  // mid-storm guarantees kills + retries; the repair ends the degraded
  // window inside the run.
  for (std::uint32_t b : {0u, 1u, 2u, 3u}) {
    FaultAction fail;
    fail.kind = FaultAction::Kind::Fail;
    fail.at_time = 90.5;  // between tie buckets (multiples of 40)
    fail.box = b;
    plan.actions.push_back(fail);
    FaultAction repair;
    repair.kind = FaultAction::Kind::Repair;
    repair.at_time = 2500.0;
    repair.box = b;
    plan.actions.push_back(repair);
  }
  return plan;
}

inline MigrationPlan storm_migrations() {
  MigrationPlan plan;
  plan.period_tu = 120.0;
  plan.per_sweep_budget = 3;
  plan.total_budget = 100;
  return plan;
}

}  // namespace risa::sim
