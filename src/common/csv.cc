#include "common/csv.h"

#include <cstdio>

#include "common/check.h"

namespace colsgd {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatDoubleExact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status CsvWriter::Open(const std::string& path,
                       const std::vector<std::string>& header) {
  out_.open(path);
  if (!out_.is_open()) {
    return Status::IOError("cannot open CSV for writing: " + path);
  }
  num_columns_ = header.size();
  WriteRow(header);
  return Status::OK();
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  COLSGD_CHECK(out_.is_open());
  COLSGD_CHECK_EQ(cells.size(), num_columns_);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ",";
    out_ << cells[i];
  }
  out_ << "\n";
  out_.flush();  // benches tail these files while running
}

void CsvWriter::WriteNumericRow(const std::vector<double>& cells) {
  std::vector<std::string> repr;
  repr.reserve(cells.size());
  for (double c : cells) repr.push_back(FormatDouble(c));
  WriteRow(repr);
}

}  // namespace colsgd
