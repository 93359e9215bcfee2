#include "src/core/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string>

namespace orion::core {

namespace {

/**
 * The pool whose region the calling thread is working for: set for the
 * life of a worker loop, and while a caller runs iterations of a region it
 * launched. Null outside every region. Nested launches go to this pool.
 */
thread_local ThreadPool* tls_pool = nullptr;

/** Marks the calling thread as working for `pool` for its lifetime. */
class RegionGuard {
  public:
    explicit RegionGuard(ThreadPool* pool) : previous_(tls_pool)
    {
        tls_pool = pool;
    }
    ~RegionGuard() { tls_pool = previous_; }
    RegionGuard(const RegionGuard&) = delete;
    RegionGuard& operator=(const RegionGuard&) = delete;

  private:
    ThreadPool* previous_;
};

/** Per-thread pool override installed by ScopedPoolOverride. */
thread_local std::shared_ptr<ThreadPool> tls_pool_override;

std::mutex g_pool_mu;
std::shared_ptr<ThreadPool> g_pool;
/** Size of g_pool, readable without g_pool_mu (0 = not yet created). */
std::atomic<int> g_pool_size{0};

/** The global pool's size before any set_num_threads: $ORION_NUM_THREADS
 *  (read once), else 1. */
int
env_num_threads()
{
    static const int n = [] {
        const char* env = std::getenv("ORION_NUM_THREADS");
        return env == nullptr ? 1
                              : resolve_thread_count(parse_thread_count(
                                    env, "ORION_NUM_THREADS"));
    }();
    return n;
}

/**
 * The process-wide pool. Shared ownership: a kernel holds the returned
 * pointer for the duration of its region, so a concurrent resize (which
 * installs a fresh pool) cannot destroy a pool that still has work in
 * flight - the old pool is torn down when its last in-flight region
 * finishes.
 */
std::shared_ptr<ThreadPool>
global_pool()
{
    std::lock_guard<std::mutex> lk(g_pool_mu);
    if (!g_pool) {
        const int n = env_num_threads();
        g_pool = std::make_shared<ThreadPool>(n);
        g_pool_size.store(n, std::memory_order_relaxed);
    }
    return g_pool;
}

}  // namespace

int
parse_thread_count(std::string_view text, std::string_view source)
{
    int n = -1;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, n);
    ORION_CHECK(!text.empty() && ec == std::errc() && ptr == end && n >= 0,
                source << "=\"" << std::string(text)
                       << "\" is not a thread count (a non-negative "
                          "integer; 0 = every core)");
    return n;
}

int
resolve_thread_count(int n)
{
    if (n > 0) return n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

void
set_num_threads(int n)
{
    ORION_CHECK(n >= 0, "num_threads " << n << " is negative");
    n = resolve_thread_count(n);
    std::shared_ptr<ThreadPool> retired;
    {
        std::lock_guard<std::mutex> lk(g_pool_mu);
        if (g_pool && g_pool->num_threads() == n) return;
        retired = std::move(g_pool);  // destroyed outside the lock, or kept
                                      // alive by in-flight kernels
        g_pool = std::make_shared<ThreadPool>(n);
        g_pool_size.store(n, std::memory_order_relaxed);
    }
}

ThreadPool::ThreadPool(int num_threads)
{
    ORION_CHECK(num_threads >= 1, "thread pool needs at least one thread");
    const int workers = num_threads - 1;
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

bool
ThreadPool::in_region()
{
    return tls_pool != nullptr;
}

void
ThreadPool::worker_loop()
{
    tls_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu_);
            idle_.fetch_add(1, std::memory_order_relaxed);
            cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
            idle_.fetch_sub(1, std::memory_order_relaxed);
            if (stop_ && queue_.empty()) return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallel_for(i64 begin, i64 end,
                         const std::function<void(i64)>& fn)
{
    const i64 count = end - begin;
    if (count <= 0) return;
    const bool nested = in_region();
    // A nested region borrows only workers that are idle now; with none
    // (the common case while a region keeps every worker busy) it runs
    // inline without taking the lock.
    if (count == 1 || workers_.empty() ||
        (nested && idle_.load(std::memory_order_relaxed) == 0)) {
        for (i64 i = begin; i < end; ++i) fn(i);
        return;
    }

    // Every index is claimed exactly once (next) and counted exactly once
    // when it finishes (finished), whether it ran or was skipped after a
    // failure. The caller waits for the count, not for the helper tasks:
    // a helper still queued behind other work finds nothing left to claim
    // when it starts, and the region does not wait for it.
    struct State {
        std::atomic<i64> next{0};
        i64 end = 0;
        i64 count = 0;
        const std::function<void(i64)>* fn = nullptr;
        std::atomic<bool> failed{false};
        std::atomic<i64> finished{0};
        std::mutex mu;
        std::condition_variable done;
        std::exception_ptr error;
    };
    auto st = std::make_shared<State>();
    st->next = begin;
    st->end = end;
    st->count = count;
    st->fn = &fn;

    auto drain = [](State& s) {
        for (;;) {
            const i64 i = s.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= s.end) return;
            if (!s.failed.load(std::memory_order_relaxed)) {
                try {
                    (*s.fn)(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lk(s.mu);
                    if (!s.error) s.error = std::current_exception();
                    s.failed.store(true, std::memory_order_relaxed);
                }
            }
            if (s.finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                s.count) {
                std::lock_guard<std::mutex> lk(s.mu);
                s.done.notify_all();
            }
        }
    };

    i64 helpers = 0;
    {
        // A top-level region asks for every worker; a nested one for the
        // idle workers that no queued task has claimed yet.
        std::lock_guard<std::mutex> lk(mu_);
        i64 available = static_cast<i64>(workers_.size());
        if (nested) {
            available = idle_.load(std::memory_order_relaxed) -
                        static_cast<i64>(queue_.size());
        }
        helpers = std::clamp<i64>(available, 0, count - 1);
        for (i64 h = 0; h < helpers; ++h) {
            queue_.push_back([st, drain] { drain(*st); });
        }
    }
    if (helpers == 0) {
        for (i64 i = begin; i < end; ++i) fn(i);
        return;
    }
    for (i64 h = 0; h < helpers; ++h) cv_.notify_one();
    {
        // The caller's own nested regions go to this pool, as a worker's
        // do.
        const RegionGuard guard(this);
        drain(*st);
    }
    {
        std::unique_lock<std::mutex> lk(st->mu);
        st->done.wait(lk, [&] {
            return st->finished.load(std::memory_order_acquire) == count;
        });
    }
    if (st->error) std::rethrow_exception(st->error);
}

int
ThreadPool::global_threads()
{
    const int size = g_pool_size.load(std::memory_order_relaxed);
    return size > 0 ? size : env_num_threads();
}

void
parallel_for(i64 begin, i64 end, const std::function<void(i64)>& fn)
{
    // Lock-free fast paths first: trivial ranges run inline, and a nested
    // launch goes to the pool the thread is working for (never to the
    // override or global pool), which runs it inline unless it has idle
    // workers. A serial global pool runs inline without touching
    // g_pool_mu.
    if (end - begin <= 1) {
        for (i64 i = begin; i < end; ++i) fn(i);
        return;
    }
    if (tls_pool != nullptr) {
        tls_pool->parallel_for(begin, end, fn);
        return;
    }
    if (tls_pool_override) {
        tls_pool_override->parallel_for(begin, end, fn);
        return;
    }
    if (g_pool_size.load(std::memory_order_relaxed) == 1) {
        for (i64 i = begin; i < end; ++i) fn(i);
        return;
    }
    // Holding the shared_ptr for the whole region keeps the pool alive
    // even if another thread swaps in a different global pool meanwhile.
    global_pool()->parallel_for(begin, end, fn);
}

int
current_parallelism()
{
    if (ThreadPool::in_region()) return 1;
    if (tls_pool_override) return tls_pool_override->num_threads();
    return ThreadPool::global_threads();
}

ScopedPoolOverride::ScopedPoolOverride(int n)
    : previous_(std::move(tls_pool_override))
{
    ORION_CHECK(n >= 1, "num_threads must be >= 1");
    tls_pool_override = std::make_shared<ThreadPool>(n);
}

ScopedPoolOverride::~ScopedPoolOverride()
{
    tls_pool_override = std::move(previous_);
}

}  // namespace orion::core
