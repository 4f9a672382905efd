#include "util/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace prcost {
namespace {

// Set while a thread executes batch chunks (pool worker or submitter).
thread_local bool t_in_region = false;

// Opaque per-task context (see parallel.hpp). Owned by the caller; the
// pool only copies the pointer from the submitter to joining workers.
thread_local void* t_task_context = nullptr;

/// One parallel_for invocation, shared between the submitting thread and
/// the pool workers that join it. Lives on the submitter's stack; workers
/// only reach it through Pool::batch_ under the pool mutex, and the
/// submitter does not return before every joined worker has left.
struct Batch {
  std::size_t count = 0;
  std::size_t grain = 1;
  void* context = nullptr;             ///< submitter's task_context
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};    ///< chunk claim counter
  std::atomic<bool> failed{false};     ///< short-circuit after first throw
  std::size_t in_flight = 0;           ///< joined workers (pool mutex)
  std::exception_ptr error;            ///< first error (error_mu)
  std::mutex error_mu;
};

/// Claim and run chunks until the batch drains (or fails). Runs on both
/// the submitter and the pool workers.
void run_batch(Batch& batch) {
  t_in_region = true;
  // Adopt the submitter's task context so work on this thread is
  // attributed to the submitting request; restored on every exit path.
  void* const saved_context = t_task_context;
  t_task_context = batch.context;
  while (!batch.failed.load(std::memory_order_relaxed)) {
    const std::size_t begin =
        batch.next.fetch_add(batch.grain, std::memory_order_relaxed);
    if (begin >= batch.count) break;
    const std::size_t end = std::min(batch.count, begin + batch.grain);
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*batch.body)(i);
      } catch (...) {
        {
          const std::scoped_lock lock{batch.error_mu};
          if (!batch.error) batch.error = std::current_exception();
        }
        batch.failed.store(true, std::memory_order_relaxed);
        t_task_context = saved_context;
        t_in_region = false;
        return;
      }
    }
  }
  t_task_context = saved_context;
  t_in_region = false;
}

/// Lazily started persistent worker pool. One batch runs at a time;
/// concurrent submitters queue on submit_cv_. Threads are joined when the
/// process-wide instance is destroyed at exit.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(Batch& batch, std::size_t max_helpers) {
    std::unique_lock lock{mu_};
    submit_cv_.wait(lock, [&] { return batch_ == nullptr; });
    batch_ = &batch;
    wanted_ = std::min(max_helpers, threads_.size());
    const bool has_helpers = wanted_ > 0;
    lock.unlock();
    if (has_helpers) work_cv_.notify_all();
    run_batch(batch);  // the submitter is always a participant
    lock.lock();
    done_cv_.wait(lock, [&] { return batch.in_flight == 0; });
    batch_ = nullptr;
    lock.unlock();
    submit_cv_.notify_one();
  }

 private:
  // Sized for the widest call any thread can make: the affinity mask is
  // read per call and may be narrower (or widened later) than when the
  // pool starts.
  Pool() {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t helpers = hw > 1 ? hw - 1 : 0;
    threads_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i) {
      threads_.emplace_back([this] { worker(); });
    }
  }

  ~Pool() {
    {
      const std::scoped_lock lock{mu_};
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  void worker() {
    std::unique_lock lock{mu_};
    for (;;) {
      work_cv_.wait(lock,
                    [&] { return stop_ || (batch_ != nullptr && wanted_ > 0); });
      if (stop_) return;
      --wanted_;
      Batch& batch = *batch_;
      ++batch.in_flight;
      lock.unlock();
      run_batch(batch);
      lock.lock();
      if (--batch.in_flight == 0) done_cv_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;    ///< workers wait for a batch
  std::condition_variable done_cv_;    ///< submitter waits for stragglers
  std::condition_variable submit_cv_;  ///< next submitter waits its turn
  Batch* batch_ = nullptr;             ///< current batch (mu_)
  std::size_t wanted_ = 0;             ///< helper slots left to claim (mu_)
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

std::size_t parallel_worker_count() {
  // Read per call, not cached: a thread may be pinned after the pool
  // exists, and helpers sharing the caller's one CPU only add hand-offs.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int allowed = CPU_COUNT(&set);
    if (allowed > 0) return static_cast<std::size_t>(allowed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

bool in_parallel_region() noexcept { return t_in_region; }

void* task_context() noexcept { return t_task_context; }

void set_task_context(void* context) noexcept { t_task_context = context; }

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t workers) {
  if (count == 0) return;
  // Nested calls run serially anyway: skip the affinity-mask syscall.
  if (workers == 0 && !t_in_region) workers = parallel_worker_count();
  workers = std::min(workers, count);
  if (workers <= 1 || t_in_region) {
    // Serial path; also taken for nested calls so a body that fans out
    // again cannot wait on the pool it is itself running on. The region
    // flag is still set so in_parallel_region() is true inside any
    // parallel_for body, whatever path executed it.
    const bool was_in_region = t_in_region;
    t_in_region = true;
    try {
      for (std::size_t i = 0; i < count; ++i) body(i);
    } catch (...) {
      t_in_region = was_in_region;
      throw;
    }
    t_in_region = was_in_region;
    return;
  }

  Batch batch;
  batch.count = count;
  batch.context = t_task_context;
  batch.body = &body;
  // Dynamic scheduling with modest grain: sweep items (full search flows,
  // simulated anneals) have highly variable cost.
  batch.grain = std::max<std::size_t>(1, count / (workers * 8));
  Pool::instance().run(batch, workers - 1);
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace prcost
