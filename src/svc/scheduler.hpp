// svc::Scheduler — a bounded, single-flight job queue in front of the
// synthesis flow.
//
// Admission control: at most `queue_cap` jobs may be queued-but-not-running
// at once.  A submit that would exceed the cap is rejected immediately with
// Admit::Overloaded — the daemon answers "overloaded" in microseconds
// instead of stacking unbounded latency onto every queued client.
//
// Single-flight deduplication: jobs are keyed (by the request digest).  If
// a submit's key matches a job already queued or running, no new job is
// created — the caller joins the existing one and all waiters receive the
// same result when it completes (Admit::Joined; counted in
// SchedulerStats::joined).  N identical concurrent requests cost one
// synthesis.
//
// Execution: `num_threads` dedicated workers pop jobs FIFO.  Each job's
// work closure typically runs svc::run_synthesis, whose module loop is
// serial: the workers are the daemon's only parallelism; see DESIGN.md
// §10.  Per-request deadlines are the work closure's business
// (svc::run_synthesis turns deadline_s into one util::Deadline on the
// method's sat::SolveOptions::deadline).
//
// Drain: drain() stops admission (further submits are rejected) but runs
// every already-admitted job to completion, so no accepted request ever
// loses its response; it returns when the last job finished.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace mps::svc {

struct SchedulerOptions {
  /// Worker threads executing jobs; 0 = one per hardware thread.
  unsigned num_threads = 0;
  /// Max queued-but-not-running jobs before submits are rejected.
  std::size_t queue_cap = 64;
};

struct SchedulerStats {
  std::int64_t submitted = 0;  ///< jobs actually enqueued (excludes joins)
  std::int64_t joined = 0;     ///< submits deduplicated onto an in-flight job
  std::int64_t rejected = 0;   ///< submits refused by the queue cap
  std::int64_t completed = 0;
  std::int64_t queue_depth = 0;  ///< currently queued (not running)
  std::int64_t running = 0;      ///< currently executing
};

class Scheduler {
 public:
  /// What one job produces: an opaque payload, or an error message.  The
  /// work closure must not throw; wrap and report via `error` instead
  /// (run_synthesis does).  A closure that does throw poisons the job with
  /// its exception text — waiters see it as an error, never a hang.
  struct Result {
    std::string payload;
    std::string error;  ///< non-empty = failed
    bool ok() const { return error.empty(); }
  };
  using Work = std::function<Result()>;

  enum class Admit {
    Started,     ///< a new job was enqueued
    Joined,      ///< deduplicated onto an existing job with the same key
    Overloaded,  ///< rejected: queue at cap (or draining); no job exists
  };

  /// A handle to one admitted job; wait() blocks until its result exists.
  /// Handles are shared — every waiter of a single-flight group holds the
  /// same underlying job.
  class Ticket {
   public:
    Ticket() = default;
    bool valid() const { return job_ != nullptr; }
    /// Blocks until the job completed; returns its (shared) result.
    const Result& wait() const;

   private:
    friend class Scheduler;
    struct Job;
    explicit Ticket(std::shared_ptr<Job> job) : job_(std::move(job)) {}
    std::shared_ptr<Job> job_;
  };

  explicit Scheduler(const SchedulerOptions& opts = {});
  /// Drains (see drain()) and joins the workers.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admit `work` under `key`.  On Overloaded the returned ticket is
  /// invalid; otherwise ticket.wait() yields the job's result.
  std::pair<Admit, Ticket> submit(const std::string& key, Work work);

  /// Stop admitting; run every admitted job to completion; return when the
  /// queue is empty and no job is running.  Idempotent.
  void drain();

  SchedulerStats stats() const;
  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  SchedulerOptions opts_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for jobs
  std::condition_variable drain_cv_;  // drain() waits for quiescence
  std::deque<std::shared_ptr<Ticket::Job>> queue_;
  /// Key -> queued-or-running job, for single-flight joins.
  std::unordered_map<std::string, std::shared_ptr<Ticket::Job>> inflight_;
  SchedulerStats stats_;
  bool draining_ = false;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mps::svc
