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
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
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
     * nested (it borrows only idle workers, and submit() runs inline).
     */
    static bool in_region();

    /**
     * Runs fn(i) for every i in [begin, end), distributing iterations
     * across the pool. Blocks until all iterations complete. Runs inline
     * when the pool is serial, the range is trivial, or the caller is
     * already inside a region and no worker of this pool is idle.
     */
    void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& fn);

    /**
     * Schedules a single task and returns its future. Runs inline (and
     * returns a ready future) when the pool is serial or the caller is
     * inside a region, so waiting on the future can never deadlock.
     */
    template <typename F>
    auto
    submit(F&& f) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
        std::future<R> fut = task->get_future();
        if (workers_.empty() || in_region()) {
            (*task)();
        } else {
            enqueue([task] { (*task)(); });
        }
        return fut;
    }

    /**
     * The process-wide pool used by all FHE kernels. Sized from
     * core::config().num_threads on first use. Shared ownership: a kernel
     * holds the returned pointer for the duration of its region, so a
     * concurrent resize (which installs a fresh pool) cannot destroy a
     * pool that still has work in flight - the old pool is torn down when
     * its last in-flight region finishes.
     */
    static std::shared_ptr<ThreadPool> global();
    /** Replaces the global pool with one of the given size. */
    static void set_global_threads(int n);
    /** Current size of the global pool (without forcing its creation). */
    static int global_threads();

  private:
    void enqueue(std::function<void()> task);
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

/** RAII guard: sets the global pool size, restores the old size on exit.
 *  Process-wide - intended for single-threaded drivers (tests, benches).
 *  Concurrent guards on different threads trample each other's sizes; use
 *  ScopedPoolOverride for per-call-tree parallelism instead. */
class ScopedNumThreads {
  public:
    explicit ScopedNumThreads(int n);
    ~ScopedNumThreads();
    ScopedNumThreads(const ScopedNumThreads&) = delete;
    ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

  private:
    int previous_;
};

/**
 * RAII guard: gives the *current thread's* kernel launches a private pool
 * of n threads, restoring the previous override (if any) on exit. Unlike
 * ScopedNumThreads this touches no global state, so concurrent executors
 * with different thread budgets cannot interfere with each other.
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
