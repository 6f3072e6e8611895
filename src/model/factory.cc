#include "model/factory.h"

#include <utility>

#include "common/check.h"
#include "model/fm.h"
#include "model/glm.h"
#include "model/mlp.h"
#include "model/mlr.h"

namespace colsgd {

namespace {

/// \brief True when `name` is `prefix` followed by one to six decimal
/// digits worth at least `min`, stored in `size` ("mlr10" has size 10).
bool SizedName(const std::string& name, const std::string& prefix, int min,
               int* size) {
  if (name.rfind(prefix, 0) != 0) return false;
  const std::string digits = name.substr(prefix.size());
  if (digits.empty() || digits.size() > 6) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  *size = std::stoi(digits);
  return *size >= min;
}

}  // namespace

Result<std::unique_ptr<ModelSpec>> CreateModel(const std::string& name) {
  std::unique_ptr<ModelSpec> model;
  int size = 0;
  if (name == "lr") {
    model = std::make_unique<LogisticRegression>();
  } else if (name == "svm") {
    model = std::make_unique<LinearSvm>();
  } else if (name == "lsq") {
    model = std::make_unique<LeastSquares>();
  } else if (SizedName(name, "mlp", 1, &size)) {
    model = std::make_unique<MlpModel>(size);
  } else if (SizedName(name, "mlr", 2, &size)) {
    model = std::make_unique<MultinomialLogisticRegression>(size);
  } else if (SizedName(name, "fm", 1, &size)) {
    model = std::make_unique<FactorizationMachine>(size);
  } else {
    return Status::InvalidArgument("unknown model: " + name);
  }
  return model;
}

std::unique_ptr<ModelSpec> MakeModel(const std::string& name) {
  Result<std::unique_ptr<ModelSpec>> model = CreateModel(name);
  COLSGD_CHECK(model.ok()) << model.status().message();
  return std::move(model).ValueUnsafe();
}

}  // namespace colsgd
