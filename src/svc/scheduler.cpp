#include "svc/scheduler.hpp"

#include "obs/obs.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace mps::svc {

/// One keyed unit of work plus its completion latch.  Shared by the queue,
/// the executing worker and every joined waiter.
struct Scheduler::Ticket::Job {
  std::string key;
  Work work;
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  Result result;
};

const Scheduler::Result& Scheduler::Ticket::wait() const {
  MPS_ASSERT(job_ != nullptr);
  std::unique_lock<std::mutex> lock(job_->mutex);
  job_->done_cv.wait(lock, [&] { return job_->done; });
  return job_->result;
}

Scheduler::Scheduler(const SchedulerOptions& opts) : opts_(opts) {
  const unsigned n =
      opts_.num_threads == 0 ? util::ThreadPool::hardware_threads() : opts_.num_threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      obs::set_thread_name("svc-worker-" + std::to_string(i));
      worker_loop();
    });
  }
}

Scheduler::~Scheduler() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::pair<Scheduler::Admit, Scheduler::Ticket> Scheduler::submit(const std::string& key,
                                                                 Work work) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    ++stats_.joined;
    return {Admit::Joined, Ticket(it->second)};
  }
  if (draining_ || queue_.size() >= opts_.queue_cap) {
    ++stats_.rejected;
    return {Admit::Overloaded, Ticket()};
  }
  auto job = std::make_shared<Ticket::Job>();
  job->key = key;
  job->work = std::move(work);
  queue_.push_back(job);
  inflight_[key] = job;
  ++stats_.submitted;
  stats_.queue_depth = static_cast<std::int64_t>(queue_.size());
  work_cv_.notify_one();
  return {Admit::Started, Ticket(std::move(job))};
}

void Scheduler::worker_loop() {
  for (;;) {
    std::shared_ptr<Ticket::Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
      stats_.queue_depth = static_cast<std::int64_t>(queue_.size());
      ++stats_.running;
    }

    Result result;
    {
      obs::Span span("svc.job", job->key);
      try {
        result = job->work();
      } catch (const std::exception& e) {
        result.error = std::string("job failed: ") + e.what();
      } catch (...) {
        result.error = "job failed: unknown exception";
      }
      span.arg("ok", result.ok() ? 1 : 0);
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(job->key);
      --stats_.running;
      ++stats_.completed;
    }
    {
      std::lock_guard<std::mutex> job_lock(job->mutex);
      job->result = std::move(result);
      job->done = true;
    }
    job->done_cv.notify_all();
    drain_cv_.notify_all();
  }
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  drain_cv_.wait(lock, [&] { return queue_.empty() && stats_.running == 0; });
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace mps::svc
