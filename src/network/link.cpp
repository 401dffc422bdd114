#include "network/link.hpp"

#include <stdexcept>

namespace risa::net {

void Link::release(MbitsPerSec bw) {
  if (bw <= 0 || bw > allocated_) {
    throw std::logic_error("Link::release: bandwidth exceeds allocation");
  }
  allocated_ -= bw;
}

}  // namespace risa::net
