#include "workload/arrival_source.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/binio.hpp"
#include "workload/trace_io.hpp"

namespace risa::wl {

// ---- WorkloadSource --------------------------------------------------------

WorkloadSource::WorkloadSource(const Workload& workload)
    : workload_(&workload) {
  const std::size_t n = workload.size();
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // A NaN arrival would break the sort's ordering contract below.
    if (!std::isfinite(workload[i].arrival)) {
      throw std::invalid_argument("WorkloadSource: VM " + std::to_string(i) +
                                  " has a non-finite arrival");
    }
    order_[i] = static_cast<std::uint32_t>(i);
  }
  // Same cursor the engine historically built: identity when the workload
  // is already arrival-sorted (every generated workload), else sorted by
  // (arrival, original index) -- ties keep generation order.
  const bool sorted = std::is_sorted(
      workload.begin(), workload.end(),
      [](const VmRequest& a, const VmRequest& b) { return a.arrival < b.arrival; });
  if (!sorted) {
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (workload[a].arrival != workload[b].arrival) {
                  return workload[a].arrival < workload[b].arrival;
                }
                return a < b;
              });
  }
}

std::size_t WorkloadSource::next_batch(std::span<ArrivalItem> out) {
  const std::size_t n =
      std::min(out.size(), order_.size() - cursor_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t idx = order_[cursor_ + i];
    out[i].vm = (*workload_)[idx];
    out[i].index = idx;
  }
  cursor_ += n;
  return n;
}

void WorkloadSource::save_position(std::ostream& os) const {
  bin::put_u64(os, cursor_);
}

void WorkloadSource::restore_position(std::istream& is) {
  const std::uint64_t cursor = bin::get_u64(is);
  if (cursor > order_.size()) {
    throw std::runtime_error("WorkloadSource: position beyond workload");
  }
  cursor_ = static_cast<std::size_t>(cursor);
}

// ---- Generator checkpoints -------------------------------------------------

namespace {

/// A generator state read from a checkpoint.  All zeros is the one state
/// no seed reaches, and from it xoshiro returns zeros forever.
Xoshiro256::State get_state(std::istream& is) {
  Xoshiro256::State s;
  for (auto& w : s) w = bin::get_u64(is);
  if (s == Xoshiro256::State{}) {
    throw std::runtime_error("checkpoint: all-zero generator state");
  }
  return s;
}

/// A generator source's saved (index, clock) pair: the index within the
/// stream, the clock a finite sum of nonnegative gaps.
void check_position(std::uint64_t index, std::size_t count, SimTime t,
                    const std::string& source) {
  if (index > count) {
    throw std::runtime_error(source + ": position beyond count");
  }
  if (!std::isfinite(t) || t < 0) {
    throw std::runtime_error(source +
                             ": checkpoint clock is negative or not finite");
  }
}

}  // namespace

// ---- SyntheticStreamSource -------------------------------------------------

SyntheticStreamSource::SyntheticStreamSource(SyntheticConfig config,
                                             std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  config_.validate();
  // Move the seed's generator past the 2N attribute calls that precede the
  // arrivals in its stream.
  const std::int64_t ram_lo = static_cast<std::int64_t>(config_.min_ram_gb);
  const std::int64_t ram_hi = static_cast<std::int64_t>(config_.max_ram_gb);
  Rng rng(seed_);
  if (Rng::uniform_int_is_one_draw(config_.min_cores, config_.max_cores) &&
      Rng::uniform_int_is_one_draw(ram_lo, ram_hi)) {
    rng.generator().discard(2 * static_cast<std::uint64_t>(config_.count));
  } else {
    // Lemire rejection takes a data-dependent number of words per call:
    // replay the calls.
    for (std::size_t i = 0; i < config_.count; ++i) {
      (void)rng.uniform_int(config_.min_cores, config_.max_cores);
      (void)rng.uniform_int(ram_lo, ram_hi);
    }
  }
  arrivals_start_ = rng.generator().state();
  rewind();
}

void SyntheticStreamSource::rewind() {
  attr_rng_ = Rng(seed_);
  arr_rng_.generator().set_state(arrivals_start_);
  t_ = 0.0;
  index_ = 0;
}

std::size_t SyntheticStreamSource::next_batch(std::span<ArrivalItem> out) {
  const std::size_t n = std::min(out.size(), config_.count - index_);
  for (std::size_t i = 0; i < n; ++i) {
    VmRequest& vm = out[i].vm;
    vm.id = VmId{static_cast<std::uint32_t>(index_)};
    vm.cores = attr_rng_.uniform_int(config_.min_cores, config_.max_cores);
    vm.ram_mb = gb(static_cast<double>(attr_rng_.uniform_int(
        static_cast<std::int64_t>(config_.min_ram_gb),
        static_cast<std::int64_t>(config_.max_ram_gb))));
    vm.storage_mb = gb(config_.storage_gb);
    t_ += arr_rng_.exponential(config_.arrivals.mean_interarrival_tu);
    vm.arrival = t_;
    vm.lifetime = config_.arrivals.lifetime(index_);
    out[i].index = static_cast<std::uint32_t>(index_);
    ++index_;
  }
  return n;
}

void SyntheticStreamSource::save_position(std::ostream& os) const {
  bin::put_u64(os, index_);
  bin::put_f64(os, t_);
  for (std::uint64_t w : attr_rng_.generator().state()) bin::put_u64(os, w);
  for (std::uint64_t w : arr_rng_.generator().state()) bin::put_u64(os, w);
}

void SyntheticStreamSource::restore_position(std::istream& is) {
  const std::uint64_t index = bin::get_u64(is);
  const SimTime t = bin::get_f64(is);
  const Xoshiro256::State attr = get_state(is);
  const Xoshiro256::State arr = get_state(is);
  check_position(index, config_.count, t, "SyntheticStreamSource");
  index_ = static_cast<std::size_t>(index);
  t_ = t;
  attr_rng_.generator().set_state(attr);
  arr_rng_.generator().set_state(arr);
}

// ---- AzureStreamSource -----------------------------------------------------

AzureStreamSource::AzureStreamSource(AzureSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  spec_.validate();
  const auto n = static_cast<std::size_t>(spec_.total_vms());

  // Expand the marginals into ascending multisets and rank-couple them;
  // the seed's generator shuffles the pair order, then draws the arrivals.
  std::vector<std::int64_t> cores;
  cores.reserve(n);
  for (const auto& [c, count] : spec_.cpu_marginal) {
    cores.insert(cores.end(), static_cast<std::size_t>(count), c);
  }
  std::vector<double> ram_gb;
  ram_gb.reserve(n);
  for (const auto& [r, count] : spec_.ram_marginal) {
    ram_gb.insert(ram_gb.end(), static_cast<std::size_t>(count), r);
  }
  std::sort(cores.begin(), cores.end());
  std::sort(ram_gb.begin(), ram_gb.end());

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  rng.shuffle(order);

  cores_.resize(n);
  ram_mb_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    cores_[i] = cores[order[i]];
    ram_mb_[i] = gb(ram_gb[order[i]]);
  }
  post_shuffle_ = rng.generator().state();
  rng_ = rng;
}

void AzureStreamSource::rewind() {
  rng_.generator().set_state(post_shuffle_);
  t_ = 0.0;
  index_ = 0;
}

std::size_t AzureStreamSource::next_batch(std::span<ArrivalItem> out) {
  const std::size_t n = std::min(out.size(), cores_.size() - index_);
  for (std::size_t i = 0; i < n; ++i) {
    VmRequest& vm = out[i].vm;
    vm.id = VmId{static_cast<std::uint32_t>(index_)};
    vm.cores = cores_[index_];
    vm.ram_mb = ram_mb_[index_];
    vm.storage_mb = gb(spec_.storage_gb);
    t_ += rng_.exponential(spec_.arrivals.mean_interarrival_tu);
    vm.arrival = t_;
    vm.lifetime = spec_.arrivals.lifetime(index_);
    out[i].index = static_cast<std::uint32_t>(index_);
    ++index_;
  }
  return n;
}

void AzureStreamSource::save_position(std::ostream& os) const {
  bin::put_u64(os, index_);
  bin::put_f64(os, t_);
  for (std::uint64_t w : rng_.generator().state()) bin::put_u64(os, w);
}

void AzureStreamSource::restore_position(std::istream& is) {
  const std::uint64_t index = bin::get_u64(is);
  const SimTime t = bin::get_f64(is);
  const Xoshiro256::State s = get_state(is);
  check_position(index, cores_.size(), t, "AzureStreamSource");
  index_ = static_cast<std::size_t>(index);
  t_ = t;
  rng_.generator().set_state(s);
}

// ---- Materialized workloads ------------------------------------------------

namespace {

/// Every item of a generator source, which emits index i at position i.
Workload drain(ArrivalSource& source) {
  Workload vms;
  vms.reserve(static_cast<std::size_t>(source.size_hint()));
  std::array<ArrivalItem, 256> chunk;
  while (const std::size_t n = source.next_batch(chunk)) {
    for (std::size_t i = 0; i < n; ++i) vms.push_back(chunk[i].vm);
  }
  return vms;
}

}  // namespace

Workload generate_synthetic(const SyntheticConfig& config, std::uint64_t seed) {
  SyntheticStreamSource source(config, seed);
  return drain(source);
}

Workload generate_azure(const AzureSpec& spec, std::uint64_t seed) {
  AzureStreamSource source(spec, seed);
  return drain(source);
}

// ---- TraceStreamSource -----------------------------------------------------

struct TraceStreamSource::Impl {
  std::string path;
  std::ifstream file;
  TraceReader reader;
  std::uint32_t index = 0;
  SimTime last_arrival = -std::numeric_limits<SimTime>::infinity();

  explicit Impl(const std::string& p) : path(p), file(open(p)), reader(file) {}

  static std::ifstream open(const std::string& p) {
    std::ifstream is(p);
    if (!is) throw std::runtime_error("trace: cannot open for read: " + p);
    return is;
  }
};

TraceStreamSource::TraceStreamSource(const std::string& path)
    : impl_(std::make_unique<Impl>(path)) {}

TraceStreamSource::~TraceStreamSource() = default;

std::size_t TraceStreamSource::next_batch(std::span<ArrivalItem> out) {
  std::size_t n = 0;
  VmRequest vm;
  while (n < out.size() && impl_->reader.next(vm)) {
    if (vm.arrival < impl_->last_arrival) {
      throw std::runtime_error(
          "trace: line " + std::to_string(impl_->reader.line_number()) +
          " is out of arrival order (a streaming source cannot sort; use "
          "read_trace for unsorted traces)");
    }
    impl_->last_arrival = vm.arrival;
    out[n].vm = vm;
    out[n].index = impl_->index++;
    ++n;
  }
  return n;
}

void TraceStreamSource::rewind() {
  impl_ = std::make_unique<Impl>(impl_->path);
}

void TraceStreamSource::save_position(std::ostream& os) const {
  const auto pos = impl_->reader.tell();
  if (pos == std::streampos(-1)) {
    throw std::runtime_error("trace: stream position unavailable");
  }
  bin::put_i64(os, static_cast<std::int64_t>(pos));
  bin::put_u64(os, impl_->reader.line_number());
  bin::put_u64(os, impl_->index);
  bin::put_f64(os, impl_->last_arrival);
}

void TraceStreamSource::restore_position(std::istream& is) {
  const auto pos = static_cast<std::streamoff>(bin::get_i64(is));
  const auto line = static_cast<std::size_t>(bin::get_u64(is));
  const std::uint64_t index = bin::get_u64(is);
  const SimTime last_arrival = bin::get_f64(is);
  if (index > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("trace: checkpoint index beyond 32 bits");
  }
  // A NaN would switch off the ordering check in next_batch: x < NaN is
  // always false.
  if (std::isnan(last_arrival)) {
    throw std::runtime_error("trace: checkpoint last arrival is NaN");
  }
  impl_ = std::make_unique<Impl>(impl_->path);
  impl_->reader.seek(pos, line);
  impl_->index = static_cast<std::uint32_t>(index);
  impl_->last_arrival = last_arrival;
}

}  // namespace risa::wl
