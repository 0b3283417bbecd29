#include "common/thread_pool.h"

#include <atomic>
#include <chrono>

#include "common/metrics.h"

namespace mct {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  size_t total = num_threads > 0
                     ? static_cast<size_t>(num_threads)
                     : static_cast<size_t>(std::thread::hardware_concurrency());
  if (total == 0) total = 1;
  workers_.reserve(total - 1);
  for (size_t i = 0; i + 1 < total; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Execute(const std::function<void()>& fn) {
  static Counter* executes =
      MetricsRegistry::Global().counter("mct.thread_pool.executes");
  static Histogram* exec_micros = MetricsRegistry::Global().histogram(
      "mct.thread_pool.execute_micros");
  static Histogram* wait_micros =
      MetricsRegistry::Global().histogram("mct.thread_pool.wait_micros");
  static Gauge* fanout =
      MetricsRegistry::Global().gauge("mct.thread_pool.fanout_width");
  executes->Inc();
  fanout->Set(static_cast<int64_t>(num_threads()));
  const auto t0 = std::chrono::steady_clock::now();
  if (workers_.empty()) {
    fn();
    exec_micros->Observe(MicrosSince(t0));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    ++generation_;
    pending_ = workers_.size();
  }
  work_cv_.notify_all();
  fn();  // the caller is a worker too
  // Time the caller spends blocked after its own share of the work is the
  // pool's load-imbalance signal.
  const auto wait_t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  wait_micros->Observe(MicrosSince(wait_t0));
  exec_micros->Observe(MicrosSince(t0));
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void()>* job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    (*job)();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

void ParallelFor(ThreadPool* pool, size_t num_tasks,
                 const std::function<void(size_t)>& body) {
  static Counter* tasks =
      MetricsRegistry::Global().counter("mct.thread_pool.tasks");
  tasks->Inc(num_tasks);
  if (pool == nullptr || pool->num_threads() == 1 || num_tasks <= 1) {
    for (size_t i = 0; i < num_tasks; ++i) body(i);
    return;
  }
  // The shared claim counter is the hottest atomic in a morsel-parallel
  // fan-out; pad it so the surrounding stack frame (the closure's captured
  // state, read-only during the loop) never shares its cache line.
  struct alignas(kCacheLineBytes) PaddedCounter {
    std::atomic<size_t> v{0};
    char pad[kCacheLineBytes - sizeof(std::atomic<size_t>)];
  } counter;
  std::atomic<size_t>& next = counter.v;
  pool->Execute([&] {
    for (;;) {
      size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= num_tasks) return;
      body(task);
    }
  });
}

}  // namespace mct
