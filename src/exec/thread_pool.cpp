#include "exec/thread_pool.hpp"

#include <stdexcept>
#include <utility>

#include "obs/scoped_timer.hpp"

namespace tl::exec {

unsigned ThreadPool::resolve_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads) {
  tasks_total_ = obs::counter("tl_exec_pool_tasks_total",
                              "Tasks executed by the worker pool");
  queue_depth_ = obs::gauge("tl_exec_pool_queue_depth",
                            "Tasks currently queued, not yet started");
  task_seconds_ =
      obs::histogram("tl_exec_pool_task_seconds",
                     obs::MetricsRegistry::latency_edges_s(),
                     "Wall time per pool task");
  const unsigned n = resolve_threads(threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // Instrumentation lives INSIDE the packaged task: every metric write must
  // happen-before the task's completion is observable (via the future or any
  // signal the task itself sends), because callers may tear down the metrics
  // registry as soon as they have seen all their tasks finish. A trailing
  // worker-side observe after task() would race that teardown.
  std::packaged_task<void()> packaged{
      [counter = tasks_total_, seconds = task_seconds_,
       task = std::move(task)] {
        counter.inc();
        obs::ScopedTimer span{seconds};
        task();  // a throw still records the span, then parks in the future
      }};
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock{mutex_};
    if (shutting_down_) {
      throw std::runtime_error{"ThreadPool::submit: pool is shut down"};
    }
    queue_.push_back(std::move(packaged));
    // Increment while still holding the lock: a worker can only pop (and
    // then decrement) after this unlock, so the gauge's running sum is
    // always >= 0. Incrementing after the unlock let a fast worker
    // decrement first and expositions scrape a transient depth of -1.
    queue_depth_.add(1.0);
  }
  work_available_.notify_one();
  return future;
}

void ThreadPool::shutdown() {
  // Claim the worker handles under the lock so concurrent shutdown() calls
  // (or shutdown racing the destructor) each join a disjoint set — the
  // loser of the swap sees an empty vector and returns immediately.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    shutting_down_ = true;
    workers.swap(workers_);
  }
  work_available_.notify_all();
  for (auto& worker : workers) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      // Graceful shutdown: keep draining until the queue is truly empty.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_.add(-1.0);
    task();  // a throwing task parks its exception in the paired future
  }
}

}  // namespace tl::exec
