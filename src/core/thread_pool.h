#ifndef ORION_SRC_CORE_THREAD_POOL_H_
#define ORION_SRC_CORE_THREAD_POOL_H_

/**
 * @file
 * A small fork-join thread pool for data-parallel FHE kernels.
 *
 * Design constraints (which rule out a generic task graph):
 *  - Every parallel region in the CKKS substrate is a fork-join loop over
 *    independent slices (RNS limbs, key-switch digits, BSGS rotations)
 *    whose writes are disjoint and whose arithmetic is exact modular
 *    integer math, so results are bit-identical for ANY thread count.
 *    Reductions are always finalized serially in a fixed order.
 *  - Kernels nest (a parallel BSGS baby step performs a parallel NTT; the
 *    bootstrap's two EvalMod halves each run per-limb regions). A thread
 *    working for a pool - one of its workers, or a caller running
 *    iterations of a region it launched on it - sends nested launches to
 *    that pool, never to the global or an override pool. A nested region
 *    runs inline unless the pool has idle workers; then it enqueues at
 *    most (idle - already queued) helpers and the launching thread drains
 *    beside them. A top-level region asks for every worker.
 *  - Deadlock freedom: a region completes when its iterations have
 *    finished, not when its helper tasks have run (a helper still queued
 *    behind other work finds nothing left to claim), and the launching
 *    thread claims every index nobody else has. So a region waits only
 *    for indices that running threads have already claimed. A thread that
 *    holds index i of region X and waits on region Y launched Y inside its
 *    work on X, so launch times strictly increase along any wait chain,
 *    and no cycle can form.
 *  - num_threads = 1 must not spawn threads at all, so single-threaded
 *    runs exercise exactly the same code path as the seed implementation.
 *
 * Exceptions thrown by loop bodies are captured and the first one is
 * rethrown on the calling thread after the region completes; remaining
 * iterations are abandoned (best effort) once a failure is recorded.
 *
 * The kernel thread count is set in exactly four ways. The global pool is
 * sized from $ORION_NUM_THREADS (default 1) and resized by
 * set_num_threads (which bench's `--threads` calls); a ScopedPoolOverride
 * gives one thread's call tree a private pool; and a serving worker
 * installs one such override for its whole life when
 * serve::ServeOptions::threads_per_request > 0.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common.h"

namespace orion::core {

class ThreadPool {
  public:
    /** Creates a pool where `num_threads` threads (including the caller)
     *  participate in parallel regions; spawns `num_threads - 1` workers. */
    explicit ThreadPool(int num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Threads participating in parallel_for (workers + calling thread). */
    int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

    /**
     * True on a worker of any ThreadPool, and on a caller while it runs
     * iterations of its own region: parallel work launched there is
     * nested (it borrows only idle workers).
     */
    static bool in_region();

    /**
     * Runs fn(i) for every i in [begin, end), distributing iterations
     * across the pool. Blocks until all iterations complete. Runs inline
     * when the pool is serial, the range is trivial, or the caller is
     * already inside a region and no worker of this pool is idle.
     */
    void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& fn);

    /** Size of the global pool (without forcing its creation): the last
     *  set_num_threads, else $ORION_NUM_THREADS, else 1. */
    static int global_threads();

  private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    /** Workers waiting for a task. Written under mu_; read lock-free by
     *  the nested fast path, which only needs a hint. */
    std::atomic<int> idle_{0};
};

/**
 * The kernels' entry point. Dispatch order: trivial ranges run inline (no
 * locks); calls from inside a region go to the pool the thread works for
 * (inline unless it has idle workers); otherwise the calling thread's
 * ScopedPoolOverride pool, if any; otherwise the global pool.
 */
void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& fn);

/**
 * Number of threads a parallel_for launched from the current thread may
 * count on: 1 inside a region (a nested region gets only the workers that
 * happen to be idle, so per-chunk partials would not pay), the override
 * pool's size under a ScopedPoolOverride, otherwise the global pool's
 * size. Used by kernels that pick a chunk count for per-thread partial
 * results; the chunking only affects scheduling, never values, so any
 * return value preserves bit-identical outputs.
 */
int current_parallelism();

/**
 * Parses a kernel thread count: a non-negative decimal integer, where 0
 * means every core. Anything else (empty text, a sign, trailing
 * characters, overflow) throws an Error naming `source` - the env var or
 * flag the text came from - and the text itself.
 */
int parse_thread_count(std::string_view text, std::string_view source);

/** `n` when positive, else the hardware concurrency (at least 1). */
int resolve_thread_count(int n);

/** Replaces the global pool with one of n threads (0 = every core). */
void set_num_threads(int n);

/** Chunk-count policy for per-chunk fan-outs: one contiguous chunk per
 *  available thread, never more chunks than iterations. */
inline i64
chunk_count(i64 count)
{
    return std::min<i64>(count, std::max(1, current_parallelism()));
}

/**
 * Splits [0, count) into `chunks` contiguous ranges (from chunk_count —
 * passed explicitly so callers sizing per-chunk state see the same value)
 * and runs fn(chunk, begin, end) for each across the pool, inline when
 * there is a single chunk. The partition depends only on (count, chunks),
 * so workloads whose values don't depend on the grouping — elementwise
 * loops, or reductions merged in chunk order with exact arithmetic —
 * stay bit-identical at any thread count.
 */
template <typename F>
void
parallel_chunks(i64 count, i64 chunks, F&& fn)
{
    if (count <= 0) return;
    if (chunks <= 1) {
        fn(i64(0), i64(0), count);
        return;
    }
    parallel_for(0, chunks, [&](i64 c) {
        fn(c, count * c / chunks, count * (c + 1) / chunks);
    });
}

/**
 * Runs fn(i) for every i in [0, count) via parallel_chunks. For
 * elementwise-independent bodies — no cross-index reads or reductions —
 * this gives fine-grained loops pool parallelism without per-index
 * dispatch overhead.
 */
template <typename F>
void
parallel_for_chunked(i64 count, F&& fn)
{
    parallel_chunks(count, chunk_count(count), [&](i64, i64 begin, i64 end) {
        for (i64 i = begin; i < end; ++i) fn(i);
    });
}

/**
 * RAII guard: gives the *current thread's* kernel launches a private pool
 * of n threads, restoring the previous override (if any) on exit. It
 * touches no global state, so concurrent callers with different thread
 * budgets (serving workers, thread-count sweeps in tests and benches)
 * cannot interfere with each other.
 */
class ScopedPoolOverride {
  public:
    explicit ScopedPoolOverride(int n);
    ~ScopedPoolOverride();
    ScopedPoolOverride(const ScopedPoolOverride&) = delete;
    ScopedPoolOverride& operator=(const ScopedPoolOverride&) = delete;

  private:
    std::shared_ptr<ThreadPool> previous_;
};

}  // namespace orion::core

#endif  // ORION_SRC_CORE_THREAD_POOL_H_
