#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/stringutil.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kdsel {

namespace {

// Set while the current thread executes chunks of any job (worker or
// participating caller); nested For() calls see it and run inline.
thread_local bool t_in_parallel_region = false;

// Handles into the immortal registry, resolved once; a struct of
// references has a trivial destructor, so recording stays safe even
// from worker threads during static teardown.
struct PoolMetrics {
  obs::Counter& jobs;
  obs::Counter& inline_jobs;
  obs::Counter& chunks;
  obs::Histogram& job_us;
  obs::Gauge& threads;
};

PoolMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static PoolMetrics metrics{
      registry.GetCounter("kdsel.parallel.jobs"),
      registry.GetCounter("kdsel.parallel.inline_jobs"),
      registry.GetCounter("kdsel.parallel.chunks"),
      registry.GetHistogram("kdsel.parallel.job_us"),
      registry.GetGauge("kdsel.parallel.threads"),
  };
  return metrics;
}

// KDSEL_THREADS values above this are almost certainly typos; clamp and
// warn rather than trying to spawn thousands of workers.
constexpr size_t kMaxThreads = 256;

}  // namespace

/// One For() invocation: a shared chunk counter workers and the caller
/// race on, plus completion bookkeeping for the caller's wait.
struct ThreadPool::Job {
  const ChunkCallback* fn = nullptr;
  size_t n = 0;
  size_t grain = 1;
  size_t chunks = 0;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> done_chunks{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error KDSEL_GUARDED_BY(mu);  // First failure wins.
};

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable wake;
  // Jobs with chunks left to hand out.
  std::deque<std::shared_ptr<Job>> queue KDSEL_GUARDED_BY(mu);
  std::vector<std::thread> workers;
  bool stop KDSEL_GUARDED_BY(mu) = false;
};

size_t ThreadPool::ThreadsFromEnv() {
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const char* env = std::getenv("KDSEL_THREADS");
  if (env == nullptr || *env == '\0') return hardware;
  auto parsed = ParseSize(env);
  if (!parsed.ok()) {
    std::fprintf(stderr,
                 "[parallel] ignoring invalid KDSEL_THREADS=%s (%s); using "
                 "%zu threads\n",
                 env, parsed.status().message().c_str(), hardware);
    return hardware;
  }
  if (*parsed == 0) return hardware;
  if (*parsed > kMaxThreads) {
    std::fprintf(stderr,
                 "[parallel] clamping KDSEL_THREADS=%zu to %zu\n", *parsed,
                 kMaxThreads);
    return kMaxThreads;
  }
  return *parsed;
}

ThreadPool::ThreadPool(size_t threads)
    : threads_(std::max<size_t>(1, threads)),
      impl_(std::make_unique<Impl>()) {
  impl_->workers.reserve(threads_ - 1);
  for (size_t i = 0; i + 1 < threads_; ++i) {
    impl_->workers.emplace_back([this] { WorkerLoop(); });
  }
  Metrics().threads.Set(static_cast<double>(threads_));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
}

size_t ParallelChunkCount(size_t n, size_t grain) {
  if (n == 0) return 0;
  if (grain < 1) grain = 1;
  return (n + grain - 1) / grain;
}

void ThreadPool::RunChunks(Job& job) {
  for (;;) {
    const size_t chunk = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.chunks) return;
    if (!job.failed.load(std::memory_order_relaxed)) {
      const size_t begin = chunk * job.grain;
      const size_t end = std::min(job.n, begin + job.grain);
      try {
        KDSEL_SPAN("parallel.chunk");
        (*job.fn)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.mu);
        if (!job.error) job.error = std::current_exception();
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
    if (job.done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.chunks) {
      // Lock so the notify cannot slip between the waiter's predicate
      // check and its wait().
      std::lock_guard<std::mutex> lock(job.mu);
      job.done_cv.notify_all();
    }
  }
}

KDSEL_ALLOC_OK(
    "one Job control block per dispatch, amortized across all chunks of "
    "the parallel region; the per-chunk worker path is allocation-free")
void ThreadPool::For(size_t n, size_t grain, ChunkCallback fn) {
  if (n == 0) return;
  if (grain < 1) grain = 1;
  const size_t chunks = ParallelChunkCount(n, grain);

  // Inline path: nested call, single-threaded pool, or a single chunk.
  // Runs the identical chunk partition in ascending order so results
  // match the parallel path bitwise.
  if (t_in_parallel_region || impl_->workers.empty() || chunks == 1) {
    PoolMetrics& metrics = Metrics();
    metrics.inline_jobs.Increment();
    metrics.chunks.Increment(chunks);
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    for (size_t chunk = 0; chunk < chunks; ++chunk) {
      const size_t begin = chunk * grain;
      const size_t end = std::min(n, begin + grain);
      try {
        // No span here: inline chunks are covered by the caller's own
        // span, and emitting one per chunk floods the trace buffers on
        // small workloads. "parallel.chunk" marks pooled execution only.
        fn(begin, end);
      } catch (...) {
        t_in_parallel_region = was_in_region;
        throw;
      }
    }
    t_in_parallel_region = was_in_region;
    return;
  }

  PoolMetrics& metrics = Metrics();
  metrics.jobs.Increment();
  metrics.chunks.Increment(chunks);
  const uint64_t job_begin_ns = obs::NowNs();

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->grain = grain;
  job->chunks = chunks;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->queue.push_back(job);
  }
  impl_->wake.notify_all();

  // The caller is the Nth executor.
  t_in_parallel_region = true;
  RunChunks(*job);
  t_in_parallel_region = false;

  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->done_cv.wait(lock, [&] {
      return job->done_chunks.load(std::memory_order_acquire) == job->chunks;
    });
    if (job->error) std::rethrow_exception(job->error);
  }
  metrics.job_us.Record(static_cast<double>(obs::NowNs() - job_begin_ns) /
                        1e3);
}

void ThreadPool::WorkerLoop() {
  t_in_parallel_region = true;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->wake.wait(lock,
                       [&] { return impl_->stop || !impl_->queue.empty(); });
      // Drop exhausted jobs (all chunks handed out; remaining work is
      // in flight on other threads and completion is signalled per-job).
      while (!impl_->queue.empty() &&
             impl_->queue.front()->next_chunk.load(
                 std::memory_order_relaxed) >= impl_->queue.front()->chunks) {
        impl_->queue.pop_front();
      }
      if (impl_->queue.empty()) {
        if (impl_->stop) return;
        continue;
      }
      job = impl_->queue.front();
    }
    RunChunks(*job);
  }
}

namespace {

std::mutex g_global_pool_mu;
std::unique_ptr<ThreadPool> g_global_pool KDSEL_GUARDED_BY(g_global_pool_mu);

KDSEL_ALLOC_OK(
    "builds the process-wide pool once, on first use; every later call "
    "returns the existing pool without allocating")
ThreadPool& GlobalPoolLocked() {
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(ThreadPool::ThreadsFromEnv());
  }
  return *g_global_pool;
}

}  // namespace

ThreadPool& ThreadPool::Global() { return GlobalPoolLocked(); }

void ThreadPool::ResetGlobalForTesting(size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  g_global_pool.reset();
  g_global_pool = std::make_unique<ThreadPool>(
      threads == 0 ? ThreadsFromEnv() : threads);
}

size_t ParallelThreads() { return ThreadPool::Global().threads(); }

void ParallelFor(size_t n, size_t grain, ChunkCallback fn) {
  ThreadPool::Global().For(n, grain, fn);
}

}  // namespace kdsel
