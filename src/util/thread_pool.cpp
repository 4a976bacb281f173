#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace pipesched {

namespace {

/// Pending tasks across all pools, maintained as an up/down gauge
/// (+1 on submit, -1 on dequeue) so concurrent pools compose.
Gauge& queue_depth_gauge() {
  static Gauge& g = metrics_gauge("ps_thread_pool_queue_depth", {},
                                  "Tasks queued but not yet started");
  return g;
}

Counter& tasks_counter() {
  static Counter& c = metrics_counter("ps_thread_pool_tasks_total", {},
                                      "Tasks executed to completion");
  return c;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      // Name the worker's trace track so corpus timelines read
      // "pool-worker-3" instead of a bare tid (no-op while tracing is
      // off; cheap either way, it runs once per thread).
      trace_set_thread_name("pool-worker-" + std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  PS_ASSERT(task);
  {
    std::unique_lock lock(mutex_);
    PS_ASSERT(!stopping_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  queue_depth_gauge().add(1);
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    queue_depth_gauge().add(-1);
    task();
    tasks_counter().increment();
    {
      std::unique_lock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for_each(ThreadPool& pool, std::size_t count,
                       const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Chunk so each worker gets several chunks (load balance) without
  // per-index queue overhead.
  const std::size_t chunks = std::min(count, pool.thread_count() * 8);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;

  // A worker exception must not std::terminate the process (a single bad
  // block would destroy a whole corpus run): capture the first one and
  // rethrow it on the submitting thread once the pool is idle. Chunks
  // that start after a failure bail out immediately — their indices are
  // abandoned, which is fine because the batch as a whole throws.
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};

  for (std::size_t begin = 0; begin < count; begin += chunk_size) {
    const std::size_t end = std::min(begin + chunk_size, count);
    pool.submit([begin, end, &fn, &error_mutex, &first_error, &failed] {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pipesched
