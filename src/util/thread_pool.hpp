#pragma once

// Fixed-size thread pool used to parallelize embarrassingly parallel work:
// MCTS sample generation across layouts and per-layout routing in benches.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace oar::util {

class ThreadPool {
 public:
  /// `num_threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  /// Shared worker-count policy for config knobs: `requested > 0` is taken
  /// verbatim, `requested <= 0` means hardware_concurrency (at least 1).
  static std::size_t resolve_thread_count(std::int64_t requested);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the future resolves with its result.
  template <typename F>
  auto submit(F&& f) -> std::future<decltype(f())> {
    using R = decltype(f());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      jobs_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, count) across the pool and wait for completion.
  /// The index space is split into min(count, size()) contiguous chunks, one
  /// task per chunk.  If calls throw, every chunk still runs to its own
  /// first failure before the first exception (in chunk order) is rethrown;
  /// later indices of a throwing chunk are skipped.
  ///
  /// Reentrancy contract: calling parallel_for from INSIDE a task running on
  /// this pool executes every index inline on the calling worker instead of
  /// enqueueing chunks.  The naive alternative deadlocks: the outer task
  /// occupies a worker while blocking on chunk futures that can only run on
  /// the workers the outer level already holds (with pool size 1 the very
  /// first nested call hangs forever).  Inline execution trades the lost
  /// nested parallelism for a guarantee of forward progress, so layered
  /// callers — a serve::RouterService routing fan-out whose engine itself
  /// fans out — degrade to serial instead of freezing.  Nested calls on a *different* pool are
  /// unaffected.  submit() from a worker never blocks and stays safe.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// True iff the calling thread is one of this pool's workers (the
  /// condition under which parallel_for runs inline).
  bool current_thread_in_pool() const;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace oar::util
