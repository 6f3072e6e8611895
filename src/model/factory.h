// Model factory.
#ifndef COLSGD_MODEL_FACTORY_H_
#define COLSGD_MODEL_FACTORY_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "model/model_spec.h"

namespace colsgd {

/// \brief Creates a model by name: "lr", "svm", "lsq", "mlr<C>"
/// (e.g. "mlr10"), "fm<F>" (e.g. "fm10"), "mlp<H>" (e.g. "mlp16";
/// ColumnSGD engine only). Any other name is an InvalidArgument error.
Result<std::unique_ptr<ModelSpec>> CreateModel(const std::string& name);

/// \brief CreateModel for names known to be valid; CHECK-fails on others.
std::unique_ptr<ModelSpec> MakeModel(const std::string& name);

}  // namespace colsgd

#endif  // COLSGD_MODEL_FACTORY_H_
