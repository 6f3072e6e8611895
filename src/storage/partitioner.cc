#include "storage/partitioner.h"

#include <charconv>
#include <system_error>
#include <utility>

namespace colsgd {

Result<std::unique_ptr<ColumnPartitioner>> CreatePartitioner(
    const std::string& name, uint64_t num_features, int num_workers) {
  if (name == "round_robin") {
    return std::unique_ptr<ColumnPartitioner>(
        std::make_unique<RoundRobinPartitioner>(num_features, num_workers));
  }
  if (name == "range") {
    return std::unique_ptr<ColumnPartitioner>(
        std::make_unique<RangePartitioner>(num_features, num_workers));
  }
  const std::string kCyclicPrefix = "block_cyclic_";
  if (name.rfind(kCyclicPrefix, 0) == 0) {
    const char* begin = name.data() + kCyclicPrefix.size();
    const char* end = name.data() + name.size();
    uint64_t chunk = 0;
    const std::from_chars_result parsed = std::from_chars(begin, end, chunk);
    if (begin != end && parsed.ec == std::errc() && parsed.ptr == end &&
        chunk > 0) {
      return std::unique_ptr<ColumnPartitioner>(
          std::make_unique<BlockCyclicPartitioner>(num_features, num_workers,
                                                   chunk));
    }
    return Status::InvalidArgument(
        "partitioner " + name +
        ": block_cyclic_ takes a chunk of 1 to 2^64 - 1 features");
  }
  return Status::InvalidArgument("unknown partitioner: " + name +
                                 " (round_robin | range | "
                                 "block_cyclic_<chunk>)");
}

std::unique_ptr<ColumnPartitioner> MakePartitioner(const std::string& name,
                                                   uint64_t num_features,
                                                   int num_workers) {
  Result<std::unique_ptr<ColumnPartitioner>> partitioner =
      CreatePartitioner(name, num_features, num_workers);
  COLSGD_CHECK(partitioner.ok()) << partitioner.status().message();
  return std::move(partitioner).ValueUnsafe();
}

}  // namespace colsgd
