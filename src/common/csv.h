// CSV emission for benchmark series (loss-vs-time curves, sweeps).
#ifndef COLSGD_COMMON_CSV_H_
#define COLSGD_COMMON_CSV_H_

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/status.h"

namespace colsgd {

/// \brief Writes rows of a CSV file; used by benches to dump the series
/// behind each reproduced figure.
class CsvWriter {
 public:
  /// \brief Opens `path` for writing and emits the header row.
  Status Open(const std::string& path, const std::vector<std::string>& header);

  void WriteRow(const std::vector<std::string>& cells);

  /// \brief Convenience: formats doubles with %.6g.
  void WriteNumericRow(const std::vector<double>& cells);

  bool is_open() const { return out_.is_open(); }

 private:
  std::ofstream out_;
  size_t num_columns_ = 0;
};

/// \brief Formats a double compactly (%.6g).
std::string FormatDouble(double v);

/// \brief Formats a double in a round-trip form (%.17g): strtod reads back
/// the same bits.
std::string FormatDoubleExact(double v);

}  // namespace colsgd

#endif  // COLSGD_COMMON_CSV_H_
