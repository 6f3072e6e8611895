// The analytic cost model of Table I (Section III-B1 of the paper):
// expected memory and communication overheads of RowSGD and ColumnSGD, in
// model-element units, as functions of dimension m, sparsity rho, batch size
// B, worker count K, and training-data size S.
#ifndef COLSGD_ENGINE_COST_MODEL_H_
#define COLSGD_ENGINE_COST_MODEL_H_

#include <cstdint>

namespace colsgd {

struct CostModelInput {
  uint64_t m = 0;       // model dimension (features)
  double rho = 0.0;     // sparsity: fraction of zeros
  uint64_t B = 0;       // batch size
  int K = 1;            // number of workers
  uint64_t N = 0;       // number of training points
};

/// \brief Expected overheads of one side of one system, in elements.
struct CostEntry {
  double master_memory = 0.0;
  double worker_memory = 0.0;
  double master_comm = 0.0;  // per iteration
  double worker_comm = 0.0;  // per iteration
};

/// \brief phi_1 = 1 - rho^(B/K): expected fraction of non-zero dimensions in
/// one worker's share of a batch.
double Phi1(const CostModelInput& in);
/// \brief phi_2 = 1 - rho^B: same for the whole batch.
double Phi2(const CostModelInput& in);
/// \brief Training data size S = N + N m (1 - rho), in elements.
double DataSize(const CostModelInput& in);

/// \brief Table I, RowSGD column.
CostEntry RowSgdCost(const CostModelInput& in);
/// \brief Table I, ColumnSGD column.
CostEntry ColumnSgdCost(const CostModelInput& in);

}  // namespace colsgd

#endif  // COLSGD_ENGINE_COST_MODEL_H_
