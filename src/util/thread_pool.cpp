#include "util/thread_pool.hpp"

#include <atomic>

#include "obs/obs.hpp"
#include "util/common.hpp"

namespace mps::util {

namespace {
/// Process-wide worker numbering: lanes from different pools stay
/// distinguishable in a trace even though every pool starts its own
/// workers at 0.
std::atomic<int> g_worker_seq{0};
}  // namespace

unsigned ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads <= 1) return;
  workers_.reserve(num_threads - 1);
  for (unsigned i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this](std::stop_token st) { worker_loop(st); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& w : workers_) w.request_stop();
  work_cv_.notify_all();
  // jthread joins on destruction.
}

void ThreadPool::drain_job(std::unique_lock<std::mutex>& lock) {
  while (next_index_ < job_size_) {
    const std::size_t i = next_index_++;
    ++in_flight_;
    const auto* fn = job_;
    lock.unlock();
    try {
      {
        // One span per claimed index: the per-lane "pool.task" slices are
        // what the utilization numbers in the stats output sum up.
        obs::Span span("pool.task");
        span.arg("index", static_cast<std::int64_t>(i));
        (*fn)(i);
      }
      lock.lock();
    } catch (...) {
      lock.lock();
      if (first_error_ == nullptr) first_error_ = std::current_exception();
      next_index_ = job_size_;  // abandon indices not yet started
    }
    --in_flight_;
  }
  if (in_flight_ == 0) done_cv_.notify_all();
}

void ThreadPool::worker_loop(std::stop_token st) {
  obs::set_thread_name(
      "worker-" + std::to_string(g_worker_seq.fetch_add(1, std::memory_order_relaxed)));
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, st, [&] { return job_ != nullptr && next_index_ < job_size_; });
    if (st.stop_requested()) return;
    drain_job(lock);
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock lock(mutex_);
  MPS_ASSERT(job_ == nullptr);  // no nesting on a pool with workers
  job_ = &fn;
  job_size_ = n;
  next_index_ = 0;
  in_flight_ = 0;
  first_error_ = nullptr;
  work_cv_.notify_all();
  drain_job(lock);  // the caller participates
  done_cv_.wait(lock, [&] { return in_flight_ == 0 && next_index_ >= job_size_; });
  job_ = nullptr;
  const std::exception_ptr err = first_error_;
  first_error_ = nullptr;
  lock.unlock();
  if (err != nullptr) std::rethrow_exception(err);
}

}  // namespace mps::util
