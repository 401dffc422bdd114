#include "workload/azure.hpp"

#include <stdexcept>

namespace risa::wl {

std::int64_t AzureSpec::total_vms() const {
  std::int64_t n = 0;
  for (const auto& [cores, count] : cpu_marginal) n += count;
  return n;
}

void AzureSpec::validate() const {
  if (cpu_marginal.empty() || ram_marginal.empty()) {
    throw std::invalid_argument("AzureSpec: empty marginal");
  }
  std::int64_t cpu_total = 0, ram_total = 0;
  for (const auto& [cores, count] : cpu_marginal) {
    if (cores <= 0 || count < 0) throw std::invalid_argument("AzureSpec: bad CPU row");
    cpu_total += count;
  }
  for (const auto& [ram, count] : ram_marginal) {
    if (ram <= 0 || count < 0) throw std::invalid_argument("AzureSpec: bad RAM row");
    ram_total += count;
  }
  if (cpu_total != ram_total) {
    throw std::invalid_argument("AzureSpec: CPU/RAM marginal totals differ");
  }
  if (storage_gb <= 0) throw std::invalid_argument("AzureSpec: bad storage");
  arrivals.validate();
}

std::vector<std::pair<double, std::int64_t>> split_small_ram(
    std::int64_t count, const Bin0Split& split) {
  if (count < 0) throw std::invalid_argument("split_small_ram: negative count");
  const double sum = split.frac_075 + split.frac_175 + split.frac_35;
  if (sum <= 0.99 || sum >= 1.01) {
    throw std::invalid_argument("split_small_ram: fractions must sum to 1");
  }
  const auto n075 = static_cast<std::int64_t>(
      static_cast<double>(count) * split.frac_075);
  const auto n35 = static_cast<std::int64_t>(
      static_cast<double>(count) * split.frac_35);
  const std::int64_t n175 = count - n075 - n35;  // remainder to 1.75 GB
  return {{0.75, n075}, {1.75, n175}, {3.5, n35}};
}

namespace {

AzureSpec make_spec(std::string label,
                    std::vector<std::pair<std::int64_t, std::int64_t>> cpu,
                    std::int64_t small_ram,
                    std::vector<std::pair<double, std::int64_t>> big_ram) {
  AzureSpec spec;
  spec.label = std::move(label);
  spec.cpu_marginal = std::move(cpu);
  spec.ram_marginal = split_small_ram(small_ram);
  spec.ram_marginal.insert(spec.ram_marginal.end(), big_ram.begin(),
                           big_ram.end());
  spec.validate();
  return spec;
}

}  // namespace

AzureSpec azure_3000() {
  return make_spec("Azure-3000",
                   {{1, 1326}, {2, 1269}, {4, 316}, {8, 89}},
                   2591,
                   {{7.0, 299}, {14.0, 15}, {28.0, 17}, {56.0, 78}});
}

AzureSpec azure_5000() {
  return make_spec("Azure-5000",
                   {{1, 1931}, {2, 2514}, {4, 444}, {8, 111}},
                   4439,
                   {{7.0, 427}, {14.0, 39}, {28.0, 17}, {56.0, 78}});
}

AzureSpec azure_7500() {
  return make_spec("Azure-7500",
                   {{1, 4153}, {2, 2536}, {4, 507}, {8, 304}},
                   6682,
                   {{7.0, 488}, {14.0, 203}, {28.0, 19}, {56.0, 108}});
}

std::vector<AzureSpec> azure_all_subsets() {
  return {azure_3000(), azure_5000(), azure_7500()};
}

}  // namespace risa::wl
