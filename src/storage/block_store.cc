#include "storage/block_store.h"

#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/rng.h"

namespace colsgd {

namespace {

constexpr uint32_t kBlockMagic = 0x4B4C4243;  // "CBLK"
constexpr size_t kHeaderBytes =
    sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint64_t);
constexpr size_t kTrailerBytes = sizeof(uint32_t);

// Images are written into a vector of their final size: appending a few
// bytes at a time made GCC 12 report a spurious -Wstringop-overflow from
// the inlined vector::insert.
uint8_t* PutBytes(uint8_t* out, const void* data, size_t size) {
  if (size > 0) std::memcpy(out, data, size);
  return out + size;
}

template <typename T>
uint8_t* PutPod(uint8_t* out, const T& value) {
  return PutBytes(out, &value, sizeof(T));
}

template <typename T>
bool ReadPod(const std::vector<uint8_t>& data, size_t* offset, T* value) {
  if (*offset + sizeof(T) > data.size()) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

}  // namespace

BlockPlacement::BlockPlacement(const BlockStoreConfig& config)
    : config_(config) {
  COLSGD_CHECK_GT(config_.num_ranks, 0);
  COLSGD_CHECK_GE(config_.replication, 0);
  COLSGD_CHECK_GT(config_.blocks_per_permutation_range, 0);
}

std::vector<int> BlockPlacement::Holders(uint64_t block_id) const {
  const int K = config_.num_ranks;
  const int copies = config_.replication + 1;
  COLSGD_CHECK_LE(copies, K)
      << "replication " << config_.replication << " needs > " << K << " ranks";
  const uint64_t bppr =
      static_cast<uint64_t>(config_.blocks_per_permutation_range);
  // ReStore-style permuted placement: consecutive ids within one permutation
  // range walk consecutive ranks from a seeded per-range start, so ranges
  // land on uncorrelated starts but placement stays O(1) to compute.
  const uint64_t range = block_id / bppr;
  const uint64_t start = SplitMix64(config_.seed ^ SplitMix64(range)) %
                         static_cast<uint64_t>(K);
  const int primary =
      static_cast<int>((start + block_id % bppr) % static_cast<uint64_t>(K));
  std::vector<int> holders;
  holders.reserve(copies);
  for (int j = 0; j < copies; ++j) holders.push_back((primary + j) % K);
  return holders;
}

std::vector<int> BlockPlacement::HoldersWithPrimary(uint64_t block_id,
                                                    int primary) const {
  const int K = config_.num_ranks;
  const int r = config_.replication;
  COLSGD_CHECK_GE(primary, 0);
  COLSGD_CHECK_LT(primary, K);
  COLSGD_CHECK_LT(r, K)
      << "replication " << r << " needs more than " << K << " ranks";
  std::vector<int> holders;
  holders.reserve(r + 1);
  holders.push_back(primary);
  if (r == 0) return holders;
  // Replicas walk the other K-1 ranks from a seeded per-block start, so the
  // replica load of co-primary blocks spreads instead of piling onto
  // (primary+1) the way a naive ring would.
  const uint64_t start = SplitMix64(config_.seed ^ SplitMix64(block_id)) %
                         static_cast<uint64_t>(K - 1);
  for (int j = 0; j < r; ++j) {
    const uint64_t step = (start + static_cast<uint64_t>(j)) %
                          static_cast<uint64_t>(K - 1);
    holders.push_back(
        static_cast<int>((static_cast<uint64_t>(primary) + 1 + step) %
                         static_cast<uint64_t>(K)));
  }
  return holders;
}

std::vector<uint8_t> BlockImage::Seal(uint64_t block_id,
                                      const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> image(SealedSize(payload.size()));
  uint8_t* p = PutPod(image.data(), kBlockMagic);
  p = PutPod(p, block_id);
  p = PutPod(p, static_cast<uint64_t>(payload.size()));
  p = PutBytes(p, payload.data(), payload.size());
  PutPod(p, Crc32c(image.data(), kHeaderBytes + payload.size()));
  return image;
}

Result<BlockImage> BlockImage::Unseal(const std::vector<uint8_t>& image) {
  if (image.size() < kHeaderBytes + kTrailerBytes) {
    return Status::SerializationError("block image truncated: " +
                            std::to_string(image.size()) + " bytes");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, image.data() + image.size() - kTrailerBytes,
              sizeof(stored_crc));
  const uint32_t crc = Crc32c(image.data(), image.size() - kTrailerBytes);
  if (crc != stored_crc) {
    return Status::SerializationError("block image CRC mismatch");
  }
  size_t offset = 0;
  uint32_t magic = 0;
  BlockImage out;
  uint64_t payload_size = 0;
  if (!ReadPod(image, &offset, &magic) || magic != kBlockMagic) {
    return Status::SerializationError("block image has a bad magic");
  }
  if (!ReadPod(image, &offset, &out.block_id) ||
      !ReadPod(image, &offset, &payload_size) ||
      offset + payload_size + kTrailerBytes != image.size()) {
    return Status::SerializationError("block image header is inconsistent");
  }
  out.payload.assign(image.begin() + static_cast<ptrdiff_t>(offset),
                     image.end() - kTrailerBytes);
  return out;
}

uint64_t BlockImage::SealedSize(uint64_t payload_size) {
  return kHeaderBytes + payload_size + kTrailerBytes;
}

std::vector<uint8_t> ModelSliceBlock::Serialize() const {
  const size_t weight_bytes = weights.size() * sizeof(double);
  const size_t state_bytes = opt_state.size() * sizeof(double);
  std::vector<uint8_t> out(sizeof(partition) + 2 * sizeof(uint64_t) +
                           weight_bytes + state_bytes);
  uint8_t* p = PutPod(out.data(), partition);
  p = PutPod(p, static_cast<uint64_t>(weights.size()));
  p = PutPod(p, static_cast<uint64_t>(opt_state.size()));
  p = PutBytes(p, weights.data(), weight_bytes);
  PutBytes(p, opt_state.data(), state_bytes);
  return out;
}

Result<ModelSliceBlock> ModelSliceBlock::Deserialize(
    const std::vector<uint8_t>& data) {
  ModelSliceBlock out;
  size_t offset = 0;
  uint64_t num_weights = 0;
  uint64_t num_state = 0;
  if (!ReadPod(data, &offset, &out.partition) ||
      !ReadPod(data, &offset, &num_weights) ||
      !ReadPod(data, &offset, &num_state) ||
      offset + (num_weights + num_state) * sizeof(double) != data.size()) {
    return Status::SerializationError("model slice block is malformed");
  }
  out.weights.resize(num_weights);
  std::memcpy(out.weights.data(), data.data() + offset,
              num_weights * sizeof(double));
  offset += num_weights * sizeof(double);
  out.opt_state.resize(num_state);
  std::memcpy(out.opt_state.data(), data.data() + offset,
              num_state * sizeof(double));
  return out;
}

void BlockStore::Put(uint64_t block_id, const std::vector<uint8_t>& payload,
                     std::vector<int> holders) {
  COLSGD_CHECK(!holders.empty());
  Entry entry;
  const std::vector<uint8_t> image = BlockImage::Seal(block_id, payload);
  for (int rank : holders) entry.images[rank] = image;
  entry.holders = std::move(holders);
  blocks_[block_id] = std::move(entry);
}

void BlockStore::Refresh(uint64_t block_id,
                         const std::vector<uint8_t>& payload) {
  auto it = blocks_.find(block_id);
  COLSGD_CHECK(it != blocks_.end()) << "refresh of unknown block " << block_id;
  const std::vector<uint8_t> image = BlockImage::Seal(block_id, payload);
  for (int rank : it->second.holders) it->second.images[rank] = image;
}

Result<BlockFetch> BlockStore::Fetch(uint64_t block_id) const {
  const auto it = blocks_.find(block_id);
  if (it == blocks_.end() || it->second.holders.empty()) {
    return Status::NotFound("no live copy of block " +
                            std::to_string(block_id));
  }
  BlockFetch fetch;
  for (int rank : it->second.holders) {
    const auto image = it->second.images.find(rank);
    if (image == it->second.images.end()) continue;
    Result<BlockImage> unsealed = BlockImage::Unseal(image->second);
    if (!unsealed.ok()) {
      fetch.rejected_ranks.push_back(rank);
      continue;
    }
    fetch.payload = std::move(unsealed->payload);
    fetch.rank = rank;
    fetch.wire_bytes = image->second.size();
    return fetch;
  }
  return Status::SerializationError("every copy of block " + std::to_string(block_id) +
                          " is damaged (" +
                          std::to_string(fetch.rejected_ranks.size()) +
                          " rejected)");
}

void BlockStore::FlipBit(uint64_t block_id, int rank, uint64_t bit) {
  auto it = blocks_.find(block_id);
  COLSGD_CHECK(it != blocks_.end());
  auto image = it->second.images.find(rank);
  COLSGD_CHECK(image != it->second.images.end())
      << "rank " << rank << " holds no copy of block " << block_id;
  std::vector<uint8_t>& bytes = image->second;
  bit %= bytes.size() * 8;
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

const std::vector<int>& BlockStore::Holders(uint64_t block_id) const {
  static const std::vector<int> kEmpty;
  const auto it = blocks_.find(block_id);
  return it == blocks_.end() ? kEmpty : it->second.holders;
}

void BlockStore::AddHolder(uint64_t block_id, int rank, bool as_primary) {
  auto it = blocks_.find(block_id);
  COLSGD_CHECK(it != blocks_.end());
  Entry& entry = it->second;
  for (int h : entry.holders) {
    if (h == rank) {
      if (as_primary) MakePrimary(block_id, rank);
      return;
    }
  }
  COLSGD_CHECK(!entry.holders.empty())
      << "block " << block_id << " has no surviving copy to replicate from";
  entry.images[rank] = entry.images.at(entry.holders.front());
  if (as_primary) {
    entry.holders.insert(entry.holders.begin(), rank);
  } else {
    entry.holders.push_back(rank);
  }
}

void BlockStore::RemoveHolder(uint64_t block_id, int rank) {
  auto it = blocks_.find(block_id);
  COLSGD_CHECK(it != blocks_.end());
  Entry& entry = it->second;
  for (size_t i = 0; i < entry.holders.size(); ++i) {
    if (entry.holders[i] == rank) {
      entry.holders.erase(entry.holders.begin() + static_cast<ptrdiff_t>(i));
      entry.images.erase(rank);
      return;
    }
  }
}

void BlockStore::MakePrimary(uint64_t block_id, int rank) {
  auto it = blocks_.find(block_id);
  COLSGD_CHECK(it != blocks_.end());
  std::vector<int>& holders = it->second.holders;
  for (size_t i = 0; i < holders.size(); ++i) {
    if (holders[i] == rank) {
      holders.erase(holders.begin() + static_cast<ptrdiff_t>(i));
      holders.insert(holders.begin(), rank);
      return;
    }
  }
  COLSGD_CHECK(false) << "rank " << rank << " does not hold block "
                      << block_id;
}

void BlockStore::DropRank(int rank) {
  for (auto& [id, entry] : blocks_) {
    for (size_t i = 0; i < entry.holders.size(); ++i) {
      if (entry.holders[i] == rank) {
        entry.holders.erase(entry.holders.begin() +
                            static_cast<ptrdiff_t>(i));
        entry.images.erase(rank);
        break;
      }
    }
  }
}

uint64_t BlockStore::ImageSize(uint64_t block_id) const {
  const auto it = blocks_.find(block_id);
  if (it == blocks_.end() || it->second.holders.empty()) return 0;
  const auto image = it->second.images.find(it->second.holders.front());
  return image == it->second.images.end() ? 0 : image->second.size();
}

std::vector<uint64_t> BlockStore::BlocksHeldBy(int rank) const {
  std::vector<uint64_t> ids;
  for (const auto& [id, entry] : blocks_) {
    for (int h : entry.holders) {
      if (h == rank) {
        ids.push_back(id);
        break;
      }
    }
  }
  return ids;
}

uint64_t BlockStore::BytesHeldBy(int rank) const {
  uint64_t bytes = 0;
  for (const auto& [id, entry] : blocks_) {
    const auto image = entry.images.find(rank);
    bool holds = false;
    for (int h : entry.holders) holds |= h == rank;
    if (holds && image != entry.images.end()) bytes += image->second.size();
  }
  return bytes;
}

}  // namespace colsgd
