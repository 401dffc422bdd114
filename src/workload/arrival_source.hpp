// Pull-based arrival streams: the engine's workload front end.
//
// The engine historically materialized the whole workload as a
// std::vector<VmRequest> plus a sorted index before the first event fired,
// making memory -- not the placement core -- the scaling wall past a few
// million VMs.  ArrivalSource inverts that: the engine pulls small batches
// of arrival-ordered requests on demand (DESIGN.md §11), so a 10M+-VM run
// holds only the live census plus one refill chunk.
//
// Contract (enforced by the engine): across the whole stream, `vm.arrival`
// is nondecreasing, and within equal arrival times `index` is strictly
// increasing.  `index` is the request's position in the ORIGINAL workload
// (generation order, not arrival order) -- the engine's deterministic
// victim scans and the historical "arrival seq = workload index" numbering
// both key off it, which is what keeps streaming runs bit-identical to the
// materialized path even for unsorted input workloads.  The engine also
// identifies a VM by `index` alone: it overwrites `vm.id` with the index
// on intake (DESIGN.md §7.2), so a source's ids need not be unique.
//
// Backends:
//   * WorkloadSource        -- adapter over an in-memory Workload
//                              (sorts by (arrival, index); the bit-identical
//                              fast path for everything that already has a
//                              vector);
//   * SyntheticStreamSource -- the §5.1 generator emitting on demand from
//                              the seeded RNG, O(1) memory in the count;
//   * AzureStreamSource     -- the Figure 6 marginal generator; attribute
//                              tables are precomputed (the marginals cap N
//                              at 7500) but arrivals stream;
//   * TraceStreamSource     -- chunked CSV trace reader (line-numbered
//                              errors, never materializes the file);
//   * MergeSource           -- k-way (time, child-order) merge of several
//                              tenant streams into one renumbered stream.
//
// Every source supports save_position/restore_position so an engine
// checkpoint can freeze mid-stream and resume bit-identically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workload/azure.hpp"
#include "workload/synthetic.hpp"
#include "workload/vm.hpp"

namespace risa::wl {

/// One arrival as the engine consumes it: the request plus its original
/// workload index (the determinism anchor and, once the engine sets
/// `vm.id` from it, the VM's identity; see file comment).
struct ArrivalItem {
  VmRequest vm;
  std::uint32_t index = 0;
};

class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Fill `out` with the next arrivals in (arrival, index) order; returns
  /// the number written (0 = exhausted).  A short return before exhaustion
  /// is allowed; the engine keeps pulling until it sees 0.
  virtual std::size_t next_batch(std::span<ArrivalItem> out) = 0;

  /// Restart the stream from the beginning (engine-reuse path).
  virtual void rewind() = 0;

  /// Total request count when known up front, 0 when unknown (e.g. a
  /// trace file).  Only used to seed injected-event sequence numbering,
  /// where a uniform base shift is behaviorally unobservable (DESIGN.md
  /// §11), so "unknown" is always safe.
  [[nodiscard]] virtual std::uint64_t size_hint() const noexcept { return 0; }

  /// Serialize/restore the stream position for engine checkpoints.  A
  /// restored source continues the identical item sequence.  Sources that
  /// cannot (a non-seekable stream) throw std::runtime_error.
  virtual void save_position(std::ostream& os) const = 0;
  virtual void restore_position(std::istream& is) = 0;
};

/// Adapter over a materialized workload (non-owning; the vector must
/// outlive the source).  Sorts an index by (arrival, original index) --
/// exactly the engine's historical arrival cursor -- and streams it.
class WorkloadSource final : public ArrivalSource {
 public:
  explicit WorkloadSource(const Workload& workload);

  std::size_t next_batch(std::span<ArrivalItem> out) override;
  void rewind() override { cursor_ = 0; }
  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return workload_->size();
  }
  void save_position(std::ostream& os) const override;
  void restore_position(std::istream& is) override;

 private:
  const Workload* workload_;
  std::vector<std::uint32_t> order_;  // arrival-sorted original indices
  std::size_t cursor_ = 0;
};

/// Streams the §5.1 synthetic workload without materializing it.
///
/// generate_synthetic draws every VM's attributes (2 uniform_int per VM)
/// BEFORE stamping arrivals from the same generator, so the arrival draws
/// sit 2N calls deep in the RNG stream.  Lemire's uniform_int consumes a
/// variable number of raw draws (rejection), so that offset cannot be
/// computed arithmetically: construction replays the 2N attribute calls
/// once into a second generator (O(N) time, O(1) memory), after which both
/// attribute and arrival streams advance lazily per batch, bit-identical
/// to the materialized doubles.
class SyntheticStreamSource final : public ArrivalSource {
 public:
  SyntheticStreamSource(SyntheticConfig config, std::uint64_t seed);

  std::size_t next_batch(std::span<ArrivalItem> out) override;
  void rewind() override;
  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return config_.count;
  }
  void save_position(std::ostream& os) const override;
  void restore_position(std::istream& is) override;

 private:
  SyntheticConfig config_;
  std::uint64_t seed_;
  Rng attr_rng_;   // attribute stream, 2 draws consumed per VM emitted
  Rng arr_rng_;    // arrival stream, pre-advanced past all attribute draws
  SimTime t_ = 0.0;
  std::size_t index_ = 0;
};

/// Streams an Azure-like subset.  The rank-coupled attribute permutation
/// needs the full shuffle (O(N) precompute, but the Figure 6 marginals cap
/// N at 7500 so the table is a few hundred KB); arrivals stream from the
/// post-shuffle generator state exactly as generate_azure continues it.
class AzureStreamSource final : public ArrivalSource {
 public:
  AzureStreamSource(AzureSpec spec, std::uint64_t seed);

  std::size_t next_batch(std::span<ArrivalItem> out) override;
  void rewind() override;
  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return cores_.size();
  }
  void save_position(std::ostream& os) const override;
  void restore_position(std::istream& is) override;

 private:
  AzureSpec spec_;
  std::uint64_t seed_;
  std::vector<std::int64_t> cores_;    // post-shuffle, per emission index
  std::vector<Megabytes> ram_mb_;      // post-shuffle, per emission index
  Xoshiro256::State post_shuffle_;     // rng state after the order shuffle
  Rng rng_;                            // arrival stream
  SimTime t_ = 0.0;
  std::size_t index_ = 0;
};

/// Chunked CSV trace reader: parses rows on demand, never holding the
/// file.  Requires the trace sorted by arrival (a streaming source cannot
/// sort) and reports malformed or out-of-order rows with their 1-based
/// file line number.  Positions are saved as byte offsets, so checkpoints
/// only work on seekable files (the load_trace path).
class TraceStreamSource final : public ArrivalSource {
 public:
  explicit TraceStreamSource(const std::string& path);
  ~TraceStreamSource() override;

  std::size_t next_batch(std::span<ArrivalItem> out) override;
  void rewind() override;
  void save_position(std::ostream& os) const override;
  void restore_position(std::istream& is) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// K-way merge of several tenant streams into one (time, child-order)
/// ordered stream.  Children must individually satisfy the ArrivalSource
/// ordering contract; ties between children break by child position in the
/// constructor list.  Emitted items are renumbered: the merged stream
/// assigns fresh consecutive indices (and VmIds) in merge order, since the
/// children's original indices collide (DESIGN.md §11).
class MergeSource final : public ArrivalSource {
 public:
  explicit MergeSource(std::vector<std::unique_ptr<ArrivalSource>> children);

  std::size_t next_batch(std::span<ArrivalItem> out) override;
  void rewind() override;
  [[nodiscard]] std::uint64_t size_hint() const noexcept override;
  void save_position(std::ostream& os) const override;
  void restore_position(std::istream& is) override;

 private:
  struct Child {
    std::unique_ptr<ArrivalSource> source;
    ArrivalItem pending{};
    bool has_pending = false;
    bool exhausted = false;
  };
  void prime(Child& c);

  std::vector<Child> children_;
  std::uint32_t next_index_ = 0;
  bool primed_ = false;
};

}  // namespace risa::wl
