#include "engine/cost_model.h"

#include <cmath>

namespace colsgd {

double Phi1(const CostModelInput& in) {
  const double exponent = static_cast<double>(in.B) / in.K;
  return 1.0 - std::exp(exponent * std::log(in.rho));
}

double Phi2(const CostModelInput& in) {
  return 1.0 - std::exp(static_cast<double>(in.B) * std::log(in.rho));
}

double DataSize(const CostModelInput& in) {
  return static_cast<double>(in.N) +
         static_cast<double>(in.N) * static_cast<double>(in.m) * (1.0 - in.rho);
}

CostEntry RowSgdCost(const CostModelInput& in) {
  const double m = static_cast<double>(in.m);
  const double phi1 = Phi1(in);
  const double phi2 = Phi2(in);
  CostEntry entry;
  entry.master_memory = m + m * phi2;
  entry.worker_memory = DataSize(in) / in.K + 2.0 * m * phi1;
  entry.master_comm = 2.0 * in.K * m * phi1;
  entry.worker_comm = 2.0 * m * phi1;
  return entry;
}

CostEntry ColumnSgdCost(const CostModelInput& in) {
  const double m = static_cast<double>(in.m);
  const double B = static_cast<double>(in.B);
  CostEntry entry;
  entry.master_memory = B;
  entry.worker_memory = DataSize(in) / in.K + 2.0 * B + m / in.K;
  entry.master_comm = 2.0 * in.K * B;
  entry.worker_comm = 2.0 * B;
  return entry;
}

}  // namespace colsgd
