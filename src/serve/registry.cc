#include "serve/registry.h"

#include <utility>

namespace colsgd {

int64_t GenerationRegistry::Install(
    std::shared_ptr<const ShardedModelImage> image, GenerationInfo info) {
  COLSGD_CHECK(!install_pending()) << "installs are serialized";
  const int64_t id = static_cast<int64_t>(images_.size());
  info.generation = id;
  info.ok = true;
  images_.push_back(std::move(image));
  history_.push_back(info);
  if (active_ < 0) {
    // Bring-up: the initial model is active as soon as it finishes loading
    // (there is nothing older to serve from).
    active_ = id;
  } else {
    pending_ = id;
    pending_done_ = info.install_done;
  }
  return id;
}

void GenerationRegistry::RecordFailedInstall(GenerationInfo info) {
  info.generation = -1;
  info.ok = false;
  history_.push_back(info);
}

int64_t GenerationRegistry::ActiveAt(double now) {
  if (pending_ >= 0 && now >= pending_done_) {
    active_ = pending_;
    pending_ = -1;
  }
  return active_;
}

}  // namespace colsgd
