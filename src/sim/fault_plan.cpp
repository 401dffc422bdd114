#include "sim/fault_plan.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace risa::sim {

FaultPlan compile_mtbf_plan(const MtbfSpec& spec) {
  spec.validate();
  FaultPlan plan;
  plan.seed = spec.seed;  // unused by explicit actions; kept for provenance

  // Failures are drawn in time order, but each one's repair lands later, so
  // the plan is a merge of the fail stream with the repairs still pending.
  // The order is the one a stable sort of the fail/repair pairs by time
  // gives, ties included: by time, then by pair index, a failure before
  // its own repair.
  struct PendingRepair {
    double at_time;
    std::uint32_t pair;  ///< index of its fail/repair pair
    std::uint32_t box;
  };
  const auto later = [](const PendingRepair& a, const PendingRepair& b) {
    return a.at_time != b.at_time ? a.at_time > b.at_time : a.pair > b.pair;
  };
  std::vector<PendingRepair> pending;  // min-heap under `later`
  const auto emit_repair = [&] {
    std::pop_heap(pending.begin(), pending.end(), later);
    FaultAction repair;
    repair.kind = FaultAction::Kind::Repair;
    repair.at_time = pending.back().at_time;
    repair.box = pending.back().box;
    plan.actions.push_back(repair);
    pending.pop_back();
  };

  Rng rng(spec.seed);
  std::vector<double> repaired_at(spec.num_boxes, 0.0);
  std::uint32_t pairs = 0;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(spec.mtbf_tu);
    if (t >= spec.horizon_tu) break;
    const auto box = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.num_boxes) - 1));
    const double repair_t = t + rng.exponential(spec.mttr_tu);
    // A box still awaiting repair is skipped (the draw is consumed either
    // way, so the stream stays deterministic): overlapping fail/repair
    // windows on one box would let an early repair cancel a later one.
    if (t < repaired_at[box]) continue;
    repaired_at[box] = repair_t;

    // Every pending repair belongs to an earlier pair, so one at the
    // failure's time precedes it too.
    while (!pending.empty() && pending.front().at_time <= t) emit_repair();
    FaultAction fail;
    fail.kind = FaultAction::Kind::Fail;
    fail.at_time = t;
    fail.box = box;
    plan.actions.push_back(fail);
    pending.push_back({repair_t, pairs++, box});
    std::push_heap(pending.begin(), pending.end(), later);
  }
  while (!pending.empty()) emit_repair();

  plan.validate();
  return plan;
}

}  // namespace risa::sim
