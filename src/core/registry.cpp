#include "core/registry.hpp"

#include <stdexcept>

#include "common/string_util.hpp"
#include "core/baselines.hpp"
#include "core/nalb.hpp"
#include "core/nulb.hpp"
#include "core/risa.hpp"

namespace risa::core {

std::vector<std::string> algorithm_names() {
  return {"NULB", "NALB", "RISA", "RISA-BF"};
}

std::unique_ptr<Allocator> make_allocator(const std::string& name,
                                          AllocContext ctx,
                                          AllocatorOptions options) {
  const std::string key = to_lower(name);
  if (key == "nulb") {
    return std::make_unique<NulbAllocator>(ctx, options.companion);
  }
  if (key == "nalb") {
    return std::make_unique<NalbAllocator>(ctx, options.companion);
  }
  if (key == "risa") return make_risa(ctx);
  if (key == "risa-bf" || key == "risa_bf" || key == "risabf") {
    return make_risa_bf(ctx);
  }
  // Extension baselines (not part of the paper's comparison set; see
  // core/baselines.hpp).
  if (key == "random") return std::make_unique<RandomAllocator>(ctx);
  if (key == "wf") return std::make_unique<WorstFitAllocator>(ctx);
  throw std::invalid_argument("make_allocator: unknown algorithm '" + name +
                              "'");
}

}  // namespace risa::core
