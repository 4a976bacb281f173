// Work-sharing thread pool.
//
// Blocks are scheduled independently of each other, so the corpus
// experiments are embarrassingly parallel: parallel_for_each splits the
// index space into chunks and runs them across a fixed set of workers.
// Results must be written into pre-sized per-index slots so the outcome is
// deterministic regardless of interleaving.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pipesched {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// `threads` == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue a task. Tasks must not throw (an escaping exception
  /// terminates); parallel_for_each wraps its chunks so user callbacks
  /// may throw safely.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Run fn(i) for every i in [0, count), chunked across `pool`.
/// fn must only touch per-index state (or synchronize internally).
/// If fn throws, the first exception (by completion order) is rethrown on
/// the calling thread after all in-flight work drains; chunks not yet
/// started are abandoned. The pool itself stays usable afterwards.
void parallel_for_each(ThreadPool& pool, std::size_t count,
                       const std::function<void(std::size_t)>& fn);

}  // namespace pipesched
