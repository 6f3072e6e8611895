// Byte-buffer serialization used for every message that crosses the
// simulated network. Sizes are what the network model charges for, so all
// encodings here are the on-the-wire format.
#ifndef COLSGD_COMMON_BYTES_H_
#define COLSGD_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/status.h"

namespace colsgd {

/// \brief Append-only little-endian byte buffer writer.
class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(size_t reserve) { buf_.reserve(reserve); }

  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }

  /// \brief Length-prefixed string.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  /// \brief Length-prefixed vector of doubles.
  void PutDoubleVector(const std::vector<double>& v) {
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(double));
  }

  /// \brief Length-prefixed vector of uint32.
  void PutU32Vector(const std::vector<uint32_t>& v) {
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(uint32_t));
  }

  /// \brief Length-prefixed vector of uint64.
  void PutU64Vector(const std::vector<uint64_t>& v) {
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(uint64_t));
  }

  /// \brief Length-prefixed vector of floats (compact feature values).
  void PutFloatVector(const std::vector<float>& v) {
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(float));
  }

  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// \brief Sequential reader over a byte buffer produced by BufferWriter.
///
/// All getters return Status/Result so truncated or corrupt messages surface
/// as SerializationError instead of undefined behaviour.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  Result<uint32_t> GetU32() { return Get<uint32_t>(); }
  Result<uint64_t> GetU64() { return Get<uint64_t>(); }

  Result<std::string> GetString() {
    COLSGD_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    if (Remaining() < n) return Truncated("string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  Result<std::vector<double>> GetDoubleVector() {
    return GetVector<double>("double vector");
  }
  Result<std::vector<uint32_t>> GetU32Vector() {
    return GetVector<uint32_t>("u32 vector");
  }
  Result<std::vector<uint64_t>> GetU64Vector() {
    return GetVector<uint64_t>("u64 vector");
  }
  Result<std::vector<float>> GetFloatVector() {
    return GetVector<float>("float vector");
  }

  size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> Get() {
    if (Remaining() < sizeof(T)) return Truncated("scalar");
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  Result<std::vector<T>> GetVector(const char* what) {
    COLSGD_ASSIGN_OR_RETURN(uint64_t n, GetU64());
    // Divide rather than multiply: a hostile prefix would wrap n * sizeof(T).
    if (n > Remaining() / sizeof(T)) return Truncated(what);
    std::vector<T> v(n);
    // An empty vector's data() may be null, which memcpy must not see.
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  Status Truncated(const char* what) const {
    return Status::SerializationError(std::string("truncated buffer reading ") +
                                      what);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace colsgd

#endif  // COLSGD_COMMON_BYTES_H_
