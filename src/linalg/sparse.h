// Sparse vector views and CSR batches.
//
// Feature indices are uint32 (the paper's largest model has 2.8B FM
// parameters but feature ids stay under 2^32); values are float on the wire
// and in storage, double in accumulators.
#ifndef COLSGD_LINALG_SPARSE_H_
#define COLSGD_LINALG_SPARSE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace colsgd {

/// \brief Non-owning view over one sparse row (indices ascending not
/// required, duplicates not allowed).
struct SparseVectorView {
  const uint32_t* indices = nullptr;
  const float* values = nullptr;
  size_t nnz = 0;

  /// \brief Dot product against a dense vector. `dense.size()` must cover all
  /// indices.
  double Dot(const std::vector<double>& dense) const {
    double acc = 0.0;
    for (size_t i = 0; i < nnz; ++i) {
      acc += dense[indices[i]] * static_cast<double>(values[i]);
    }
    return acc;
  }

  /// \brief dense += scale * this.
  void AxpyInto(double scale, std::vector<double>* dense) const {
    for (size_t i = 0; i < nnz; ++i) {
      (*dense)[indices[i]] += scale * static_cast<double>(values[i]);
    }
  }

  double SquaredNorm() const {
    double acc = 0.0;
    for (size_t i = 0; i < nnz; ++i) {
      acc += static_cast<double>(values[i]) * static_cast<double>(values[i]);
    }
    return acc;
  }
};

/// \brief Owning sparse row.
struct SparseRow {
  std::vector<uint32_t> indices;
  std::vector<float> values;

  SparseVectorView View() const {
    return {indices.data(), values.data(), indices.size()};
  }
  size_t nnz() const { return indices.size(); }

  void Push(uint32_t index, float value) {
    indices.push_back(index);
    values.push_back(value);
  }
};

/// \brief Compressed Sparse Row batch: the storage format for row blocks and
/// worksets (Section IV-A of the paper uses CSR for dispatched worksets).
class CsrBatch {
 public:
  CsrBatch() { row_offsets_.push_back(0); }

  /// \brief Appends a row given parallel index/value arrays.
  void AppendRow(const uint32_t* indices, const float* values, size_t nnz) {
    indices_.insert(indices_.end(), indices, indices + nnz);
    values_.insert(values_.end(), values, values + nnz);
    row_offsets_.push_back(static_cast<uint64_t>(indices_.size()));
  }
  void AppendRow(const SparseVectorView& row) {
    AppendRow(row.indices, row.values, row.nnz);
  }
  void AppendRow(const SparseRow& row) { AppendRow(row.View()); }

  /// \brief Appends an empty row (a data point with no features in this
  /// column partition — common after column partitioning).
  void AppendEmptyRow() { row_offsets_.push_back(row_offsets_.back()); }

  /// \brief Appends one entry to the open row; EndRow closes it. A batch
  /// built entry by entry reuses its capacity after Clear.
  void Push(uint32_t index, float value) {
    indices_.push_back(index);
    values_.push_back(value);
  }
  /// \brief Closes the open row: every entry pushed since the last close,
  /// none making an empty row.
  void EndRow() {
    row_offsets_.push_back(static_cast<uint64_t>(indices_.size()));
  }

  /// \brief Empties the batch and keeps its capacity.
  void Clear() {
    indices_.clear();
    values_.clear();
    row_offsets_.resize(1);
  }

  size_t num_rows() const { return row_offsets_.size() - 1; }
  size_t nnz() const { return indices_.size(); }

  SparseVectorView Row(size_t i) const {
    COLSGD_CHECK_LT(i, num_rows());
    const uint64_t begin = row_offsets_[i];
    const uint64_t end = row_offsets_[i + 1];
    return {indices_.data() + begin, values_.data() + begin,
            static_cast<size_t>(end - begin)};
  }

  const std::vector<uint32_t>& indices() const { return indices_; }
  const std::vector<float>& values() const { return values_; }
  const std::vector<uint64_t>& row_offsets() const { return row_offsets_; }

  /// \brief Bytes this batch occupies on the wire / in memory (CSR layout).
  size_t ByteSize() const {
    return indices_.size() * sizeof(uint32_t) + values_.size() * sizeof(float) +
           row_offsets_.size() * sizeof(uint64_t);
  }

  /// \brief Direct access for deserialization.
  void Adopt(std::vector<uint32_t> indices, std::vector<float> values,
             std::vector<uint64_t> row_offsets) {
    COLSGD_CHECK_GE(row_offsets.size(), 1u);
    COLSGD_CHECK_EQ(row_offsets.back(), indices.size());
    COLSGD_CHECK_EQ(indices.size(), values.size());
    indices_ = std::move(indices);
    values_ = std::move(values);
    row_offsets_ = std::move(row_offsets);
  }

 private:
  std::vector<uint32_t> indices_;
  std::vector<float> values_;
  std::vector<uint64_t> row_offsets_;  // size num_rows+1, offsets_[0] == 0
};

}  // namespace colsgd

#endif  // COLSGD_LINALG_SPARSE_H_
