// A minimal fixed-size worker pool for fork-join parallelism.
//
// Used for embarrassingly-parallel loops such as bench/table1's
// per-benchmark rows.  The discipline: workers *execute* in whatever order
// the scheduler picks, but every task writes its result into a slot indexed
// by its task id, and the caller *consumes* the slots strictly in index
// order.  Execution order varies, result order never does — that is what
// keeps parallel runs bit-identical to serial ones.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mps::util {

class ThreadPool {
 public:
  /// Creates `num_threads - 1` workers: the thread calling parallel_for()
  /// participates too, so `num_threads` is the total parallelism.
  /// `num_threads <= 1` creates no workers at all and parallel_for()
  /// degenerates to a plain serial loop on the calling thread.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism of a parallel_for (workers + calling thread).
  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run fn(i) for every i in [0, n), distributing indices over the workers
  /// and the calling thread; blocks until all invocations finished.  fn must
  /// be safe to call concurrently from several threads.  If any invocation
  /// throws, the first exception is rethrown here after in-flight
  /// invocations drain (indices not yet started are abandoned).
  ///
  /// One job at a time: parallel_for must not be re-entered from inside fn
  /// on a pool that has workers (a pool of size 1 nests fine).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency(), but never 0.
  static unsigned hardware_threads();

 private:
  void worker_loop(std::stop_token st);
  /// Claim and run indices until the current job is exhausted.
  /// Pre/post-condition: `lock` held.
  void drain_job(std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable_any work_cv_;  // workers wait for a job
  std::condition_variable done_cv_;      // caller waits for completion
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_size_ = 0;
  std::size_t next_index_ = 0;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;
  std::vector<std::jthread> workers_;
};

}  // namespace mps::util
