// A small persistent thread pool for model initialisation and the row
// engines' iteration steps.
//
// The pool exists for WALL-CLOCK execution only: simulated time is always
// charged from counted work (simnet/compute_model.h), so the pool never
// touches a simulated clock. Callers use ParallelFor over disjoint index
// ranges — each worker writes its own output slots, so parallel execution is
// race-free by construction and bitwise-identical to the serial schedule
// (DESIGN.md §18: reductions never cross a range boundary).
#ifndef COLSGD_LINALG_KERNELS_THREAD_POOL_H_
#define COLSGD_LINALG_KERNELS_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace colsgd {
namespace kernels {

/// \brief Fixed-size pool of worker threads executing half-open index ranges.
class ThreadPool {
 public:
  /// \param num_threads worker threads to spawn (>= 1). The caller's thread
  /// also executes work inside ParallelFor, so total concurrency is
  /// num_threads + 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Runs `body(begin, end)` over [0, n) split into chunks of at most
  /// `grain` indices, distributed across the pool plus the calling thread.
  /// Blocks until every chunk has finished. `body` must only write state
  /// owned by its own range. n == 0 is a no-op; grain < 1 is clamped to 1.
  ///
  /// Safe to call from several threads at once: the pool runs one job at a
  /// time and later callers wait for it. A call made from inside a body, or
  /// from any pool's worker thread, runs inline as `body(0, n)` — waiting
  /// for the pool there could never finish.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();
  /// Claims and runs chunks of the current job until none remain.
  void RunChunks();

  std::mutex caller_mu_;  // held by the calling thread for a whole job
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: a job is ready
  std::condition_variable done_cv_;   // signals the caller: job finished
  // Current job (guarded by mu_; chunk claim is via next_index_ under mu_).
  const std::function<void(size_t, size_t)>* body_ = nullptr;
  size_t job_n_ = 0;
  size_t job_grain_ = 1;
  size_t next_index_ = 0;    // first unclaimed index
  size_t active_chunks_ = 0; // chunks currently executing
  uint64_t job_id_ = 0;      // bumps per job so workers never re-run one
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// \brief The process-wide pool used by model initialisation
/// (InitialWeights, model/model_spec.h) and the row engines' iteration steps
/// (engine/row_step.h), created on first use with hardware_concurrency - 1
/// threads (at least 1).
ThreadPool& SharedPool();

}  // namespace kernels
}  // namespace colsgd

#endif  // COLSGD_LINALG_KERNELS_THREAD_POOL_H_
