#include "serve/frontend_types.h"

#include <cmath>
#include <cstring>

namespace colsgd {

size_t NearestRankIndex(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return rank - 1;
}

Status ServeConfig::Validate(const ServeConfig& config) {
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config.max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (!(config.max_delay >= 0.0)) {
    return Status::InvalidArgument("max_delay must be >= 0");
  }
  if (config.queue_capacity < config.max_batch) {
    return Status::InvalidArgument(
        "queue_capacity must be >= max_batch (a full batch must fit)");
  }
  if (!(config.reply_timeout > 0.0)) {
    return Status::InvalidArgument("reply_timeout must be positive");
  }
  if (!(config.slo_latency > 0.0)) {
    return Status::InvalidArgument("slo_latency must be positive");
  }
  return Status::OK();
}

uint64_t CanonicalDoubleBits(double value) {
  if (std::isnan(value)) return 0x7ff8000000000000ULL;
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace colsgd
