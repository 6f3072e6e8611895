// The scenario implementations behind chaos::MakeScenario, and the helpers
// they share for naming and disabling indexed schedule components.
#ifndef COLSGD_CHAOS_SCENARIOS_H_
#define COLSGD_CHAOS_SCENARIOS_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.h"

namespace colsgd {
namespace chaos {

/// \brief "train", "membership" or "ssp"; nullptr otherwise.
std::unique_ptr<Scenario> MakeTrainingScenario(const std::string& name);

/// \brief "serving" or "serving_fleet"; nullptr otherwise.
std::unique_ptr<Scenario> MakeServingScenario(const std::string& name);

/// \brief Every size and count a scenario reads must be at least one: an
/// InvalidArgument naming the first (flag, value) pair of `counts` below it.
inline Status CheckCounts(
    std::initializer_list<std::pair<const char*, int64_t>> counts) {
  for (const auto& [flag, value] : counts) {
    if (value < 1) {
      return Status::InvalidArgument(std::string("--") + flag +
                                     " must be >= 1");
    }
  }
  return Status::OK();
}

/// \brief Appends "kind:0", "kind:1", ... for each of `items`.
template <typename T>
void ListIndexed(const std::vector<T>& items, const std::string& kind,
                 std::vector<std::string>* components) {
  for (size_t i = 0; i < items.size(); ++i) {
    components->push_back(kind + ":" + std::to_string(i));
  }
}

/// \brief Removes the items whose "kind:i" component is disabled; `i` is
/// the item's index in the drawn schedule.
template <typename T>
void DropIndexed(std::vector<T>* items, const std::string& kind,
                 const Disabled& disabled) {
  std::vector<T> kept;
  for (size_t i = 0; i < items->size(); ++i) {
    if (disabled.count(kind + ":" + std::to_string(i)) == 0) {
      kept.push_back((*items)[i]);
    }
  }
  *items = std::move(kept);
}

}  // namespace chaos
}  // namespace colsgd

#endif  // COLSGD_CHAOS_SCENARIOS_H_
