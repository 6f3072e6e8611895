#include "linalg/kernels/thread_pool.h"

#include <algorithm>

namespace colsgd {
namespace kernels {

namespace {
// True on every pool worker thread, and on a calling thread while it runs a
// job: a ParallelFor issued there runs inline.
thread_local bool t_inside_pool = false;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  t_inside_pool = true;
  uint64_t last_job = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (body_ != nullptr && job_id_ != last_job);
      });
      if (shutdown_) return;
      last_job = job_id_;
    }
    RunChunks();
  }
}

void ThreadPool::RunChunks() {
  while (true) {
    size_t begin, end;
    const std::function<void(size_t, size_t)>* body = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (body_ == nullptr || next_index_ >= job_n_) return;
      body = body_;
      begin = next_index_;
      end = std::min(job_n_, begin + job_grain_);
      next_index_ = end;
      ++active_chunks_;
    }
    (*body)(begin, end);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_chunks_;
      if (next_index_ >= job_n_ && active_chunks_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  grain = std::max<size_t>(1, grain);
  if (n <= grain || threads_.empty() || t_inside_pool) {
    body(0, n);
    return;
  }
  std::lock_guard<std::mutex> caller(caller_mu_);
  t_inside_pool = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    job_n_ = n;
    job_grain_ = grain;
    next_index_ = 0;
    active_chunks_ = 0;
    ++job_id_;
  }
  work_cv_.notify_all();
  RunChunks();  // caller participates
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return next_index_ >= job_n_ && active_chunks_ == 0; });
    body_ = nullptr;
    job_n_ = 0;
  }
  t_inside_pool = false;
}

ThreadPool& SharedPool() {
  static ThreadPool* pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return new ThreadPool(hw > 1 ? static_cast<int>(hw - 1) : 1);
  }();
  return *pool;
}

}  // namespace kernels
}  // namespace colsgd
