#include "workload/trace_io.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/string_util.hpp"

namespace risa::wl {

namespace {
constexpr const char* kHeader[] = {"vm_id",      "cores",   "ram_mb",
                                   "storage_mb", "arrival", "lifetime"};
constexpr std::size_t kColumns = 6;
}  // namespace

void write_trace(std::ostream& os, const Workload& vms) {
  CsvWriter writer(os);
  writer.write_row({kHeader[0], kHeader[1], kHeader[2], kHeader[3], kHeader[4],
                    kHeader[5]});
  for (const VmRequest& vm : vms) {
    std::ostringstream arrival, lifetime;
    arrival.precision(17);
    lifetime.precision(17);
    arrival << vm.arrival;
    lifetime << vm.lifetime;
    writer.write_row({std::to_string(vm.id.value()), std::to_string(vm.cores),
                      std::to_string(vm.ram_mb), std::to_string(vm.storage_mb),
                      arrival.str(), lifetime.str()});
  }
}

TraceReader::TraceReader(std::istream& is) : is_(&is) {
  if (!next_row()) throw std::runtime_error("trace: empty file");
  bool header_ok = cells_.size() == kColumns;
  for (std::size_t c = 0; header_ok && c < kColumns; ++c) {
    header_ok = cells_[c] == kHeader[c];
  }
  if (!header_ok) {
    throw std::runtime_error("trace: bad header at line " +
                             std::to_string(line_));
  }
}

bool TraceReader::next_row() {
  while (std::getline(*is_, linebuf_)) {
    ++line_;
    if (linebuf_.empty() || (linebuf_.size() == 1 && linebuf_[0] == '\r')) {
      continue;
    }
    CsvReader::parse_line(linebuf_, cells_);
    return true;
  }
  return false;
}

bool TraceReader::next(VmRequest& out) {
  if (!next_row()) return false;
  if (cells_.size() != kColumns) {
    throw std::runtime_error("trace: line " + std::to_string(line_) +
                             " has wrong column count");
  }
  const std::int64_t id = parse_i64(cells_[0]);
  out.id = VmId{static_cast<std::uint32_t>(id)};
  out.cores = parse_i64(cells_[1]);
  out.ram_mb = parse_i64(cells_[2]);
  out.storage_mb = parse_i64(cells_[3]);
  out.arrival = parse_f64(cells_[4]);
  out.lifetime = parse_f64(cells_[5]);
  if (id < 0 || id > std::numeric_limits<std::uint32_t>::max() ||
      out.cores <= 0 || out.ram_mb <= 0 || out.storage_mb <= 0 ||
      !(out.arrival >= 0) || !(out.lifetime > 0) ||
      !std::isfinite(out.arrival) || !std::isfinite(out.lifetime)) {
    throw std::runtime_error("trace: line " + std::to_string(line_) +
                             " has out-of-range values");
  }
  return true;
}

std::streampos TraceReader::tell() const { return is_->tellg(); }

void TraceReader::seek(std::streampos pos, std::size_t line) {
  is_->clear();
  is_->seekg(pos);
  if (!*is_) throw std::runtime_error("trace: seek failed");
  line_ = line;
}

Workload read_trace(std::istream& is) {
  TraceReader reader(is);
  Workload vms;
  VmRequest vm;
  while (reader.next(vm)) vms.push_back(vm);
  return vms;
}

void save_trace(const std::string& path, const Workload& vms) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("trace: cannot open for write: " + path);
  write_trace(os, vms);
  if (!os) throw std::runtime_error("trace: write failed: " + path);
}

Workload load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("trace: cannot open for read: " + path);
  return read_trace(is);
}

}  // namespace risa::wl
