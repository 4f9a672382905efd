// Data-parallel helper for DSE sweeps and property-style test sweeps.
//
// parallel_for runs on a lazily-started persistent worker pool (one pool
// per process, hardware_concurrency - 1 threads; the calling thread always
// participates; a call uses at most as many workers as CPUs the calling
// thread may run on) instead of spawning fresh threads per call. Chunks are
// claimed dynamically off a shared atomic counter, so the highly skewed
// item costs of DSE sweeps (early-infeasible partitions vs. full
// simulations) load-balance across workers. Bodies must be free of shared
// mutable state; results are written to per-index slots by the caller.
#pragma once

#include <cstddef>
#include <functional>

namespace prcost {

/// Number of workers parallel_for will use (>= 1): the CPUs in the calling
/// thread's affinity mask, read on every call; hardware concurrency when
/// the mask cannot be read.
std::size_t parallel_worker_count();

/// Invoke body(i) for i in [0, count), distributing dynamically sized
/// chunks over at most `workers` threads (0 = auto). Exceptions from
/// bodies are captured and the first one is rethrown on the calling thread
/// after the batch drains; once a body throws, workers stop claiming new
/// chunks. Nested calls (a body invoking parallel_for) are safe: they run
/// serially inline on the calling thread, so the pool can never deadlock
/// on itself.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t workers = 0);

/// True while the calling thread is executing a parallel_for body (on the
/// pool or as the participating submitter). Nested parallel_for calls
/// observe this and degrade to the serial path.
bool in_parallel_region() noexcept;

/// Opaque per-task context pointer, propagated to every worker that joins a
/// parallel_for batch: workers see the submitter's context for the duration
/// of their participation and their previous context is restored when the
/// batch drains. The observability layer uses this to attribute work done
/// on pool threads back to the request that submitted it; the pointer is
/// never dereferenced by the pool itself.
void* task_context() noexcept;
void set_task_context(void* context) noexcept;

}  // namespace prcost
