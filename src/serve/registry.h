// Model-generation registry for the serving frontend.
//
// Every install produces a new immutable generation (a ShardedModelImage
// plus provenance metadata). The registry keeps the active generation and
// the one being installed (double-buffered): while an install's transfers
// are still in flight on the simulated wire, batches keep scoring against
// the previous generation; the flip happens at the install's completion
// time and is atomic from the requests' point of view — every response is
// scored against exactly one generation (tests/serve_test.cc pins this).
// A fleet's groups share each generation's image read-only.
#ifndef COLSGD_SERVE_REGISTRY_H_
#define COLSGD_SERVE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/inference.h"

namespace colsgd {

/// \brief One installed (or failed) model generation.
struct GenerationInfo {
  int64_t generation = -1;          // dense id, 0 = initial model
  int64_t trained_iterations = 0;   // provenance: checkpoint coverage
  double install_start = 0.0;       // master clock when the install began
  double install_done = 0.0;        // last shard finished loading
  bool ok = false;                  // false: image failed CRC validation
};

class GenerationRegistry {
 public:
  /// \brief Registers a validated image whose shard transfers complete at
  /// `install_done`; it becomes active for batches dispatched at or after
  /// that time. Returns the new generation id.
  int64_t Install(std::shared_ptr<const ShardedModelImage> image,
                  GenerationInfo info);

  /// \brief Records an install that failed validation (damaged image); the
  /// active generation is untouched.
  void RecordFailedInstall(GenerationInfo info);

  /// \brief Flips to any pending generation whose install completed by
  /// `now`; returns the id active for a batch dispatched at `now`.
  int64_t ActiveAt(double now);

  const ShardedModelImage& image(int64_t generation) const {
    COLSGD_CHECK_GE(generation, 0);
    COLSGD_CHECK_LT(static_cast<size_t>(generation), images_.size());
    return *images_[generation];
  }

  bool has_active() const { return active_ >= 0; }
  bool install_pending() const { return pending_ >= 0; }

  /// \brief Install history, failed validations included, in install order.
  const std::vector<GenerationInfo>& history() const { return history_; }

 private:
  // Indexed by generation id.
  std::vector<std::shared_ptr<const ShardedModelImage>> images_;
  std::vector<GenerationInfo> history_;
  int64_t active_ = -1;
  int64_t pending_ = -1;
  double pending_done_ = 0.0;
};

}  // namespace colsgd

#endif  // COLSGD_SERVE_REGISTRY_H_
