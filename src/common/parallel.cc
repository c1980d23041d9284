// Copyright 2026 The LearnRisk Authors

#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace learnrisk {
namespace {

// Below this many indices the chunking/wakeup overhead dominates any
// speedup; run serially (also keeps tiny loops deterministic in order).
constexpr size_t kSerialCutoff = 256;

// Depth of parallel regions on this thread: > 0 inside a pool worker or a
// caller currently inside ParallelForRange. Nested calls run serially.
thread_local int g_parallel_depth = 0;

/// One dispatched parallel loop. Shared by the caller and every worker that
/// wakes for it; chunk claims and completion are tracked per-job so a
/// late-waking worker that finds no chunks left simply drops its reference.
struct Job {
  std::function<void(size_t, size_t)> body;
  size_t n = 0;
  size_t chunk_size = 0;
  size_t num_chunks = 0;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> done_chunks{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
};

/// Marks the current thread as inside a parallel region for its lifetime.
struct DepthGuard {
  DepthGuard() { ++g_parallel_depth; }
  ~DepthGuard() { --g_parallel_depth; }
};

class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  size_t concurrency() const { return workers_.size() + 1; }

  /// Runs the job to completion, participating from the calling thread.
  /// Rethrows the first exception any chunk raised.
  void Run(const std::shared_ptr<Job>& job) {
    std::lock_guard<std::mutex> serialize(run_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      ++generation_;
    }
    work_cv_.notify_all();
    Drain(*job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] {
        return job->done_chunks.load() == job->num_chunks;
      });
      job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  ThreadPool() {
    const size_t hw =
        std::max<size_t>(std::thread::hardware_concurrency(), 1);
    workers_.reserve(hw - 1);
    for (size_t t = 0; t + 1 < hw; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  void WorkerLoop() {
    g_parallel_depth = 1;  // nested ParallelFor inside a body runs serially
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (job) Drain(*job);
    }
  }

  /// Claims statically-sized chunks until none remain. After a chunk fails,
  /// remaining chunks are claimed but skipped so the loop winds down fast.
  void Drain(Job& job) {
    for (;;) {
      const size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.num_chunks) return;
      if (!job.failed.load(std::memory_order_acquire)) {
        const size_t begin = c * job.chunk_size;
        const size_t end = std::min(begin + job.chunk_size, job.n);
        try {
          job.body(begin, end);
        } catch (...) {
          std::lock_guard<std::mutex> lock(job.error_mu);
          if (!job.error) job.error = std::current_exception();
          job.failed.store(true, std::memory_order_release);
        }
      }
      if (job.done_chunks.fetch_add(1) + 1 == job.num_chunks) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex run_mu_;  // serializes concurrent Run() callers

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// How ParallelForRange splits [0, n): num_chunks contiguous chunks of
// chunk_size indices (the last may be shorter); one chunk runs serially.
struct ChunkPlan {
  size_t num_chunks = 0;
  size_t chunk_size = 0;
};

ChunkPlan PlanChunks(size_t n, size_t num_threads) {
  if (n == 0) return {};
  // Decide the serial cases before touching the pool, so a process whose
  // loops are all tiny (or explicitly single-threaded) never spawns the
  // persistent workers at all.
  if (n < kSerialCutoff || num_threads == 1 || g_parallel_depth > 0) {
    return {1, n};
  }
  const size_t threads =
      num_threads == 0
          ? ThreadPool::Instance().concurrency()
          : std::min(num_threads, ThreadPool::Instance().concurrency());
  if (threads <= 1) return {1, n};
  ChunkPlan plan;
  plan.num_chunks = std::min(threads, n);
  plan.chunk_size = (n + plan.num_chunks - 1) / plan.num_chunks;
  // Rounding the chunk size up can cover n with fewer chunks; recompute so
  // every chunk is non-empty.
  plan.num_chunks = (n + plan.chunk_size - 1) / plan.chunk_size;
  return plan;
}

}  // namespace

size_t ParallelConcurrency() { return ThreadPool::Instance().concurrency(); }

size_t ParallelChunks(size_t n, size_t num_threads) {
  return PlanChunks(n, num_threads).num_chunks;
}

void ParallelForRange(size_t n, const std::function<void(size_t, size_t)>& fn,
                      size_t num_threads) {
  const ChunkPlan plan = PlanChunks(n, num_threads);
  if (plan.num_chunks == 0) return;
  if (plan.num_chunks == 1) {
    DepthGuard depth;
    fn(0, n);
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = fn;
  job->n = n;
  job->num_chunks = plan.num_chunks;
  job->chunk_size = plan.chunk_size;

  DepthGuard depth;
  ThreadPool::Instance().Run(job);
}

}  // namespace learnrisk
