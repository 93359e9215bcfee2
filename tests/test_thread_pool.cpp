/**
 * @file
 * The core/thread_pool contract: every iteration runs once, exceptions
 * propagate out of parallel_for(), nested regions borrow idle workers of
 * their own pool without deadlock, thread counts parse strictly, and the
 * determinism guarantee the whole runtime rests on - multithreaded NTT
 * and BSGS results are bit-identical to num_threads = 1.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/thread_pool.h"
#include "src/linalg/bsgs.h"
#include "tests/test_util.h"

namespace orion {
namespace {

using core::ScopedPoolOverride;
using core::ThreadPool;

TEST(ThreadPool, RunsEveryIteration)
{
    ThreadPool pool(4);
    constexpr i64 kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(0, kCount, [&](i64 i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialPoolSpawnsNoThreads)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.num_threads(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    pool.parallel_for(0, 4, [&](i64) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallel_for(0, 100,
                          [](i64 i) {
                              if (i == 37) throw Error("boom 37");
                          }),
        Error);
}

TEST(ThreadPool, AbandonsRemainingWorkAfterFailure)
{
    // Best effort: iterations claimed after the failure is recorded are
    // skipped, so a failing region does not run to the bitter end.
    ThreadPool pool(4);
    std::atomic<i64> executed{0};
    try {
        pool.parallel_for(0, 100000, [&](i64 i) {
            if (i == 0) throw Error("early failure");
            executed.fetch_add(1);
        });
        FAIL() << "expected Error";
    } catch (const Error&) {
    }
    EXPECT_LT(executed.load(), 100000);
}

TEST(ThreadPool, NestedParallelForCompletesWithoutDeadlock)
{
    ThreadPool pool(4);
    std::atomic<int> inner_total{0};
    pool.parallel_for(0, 8, [&](i64) {
        // Workers may enqueue nested helpers, but must never block on
        // their own queue.
        pool.parallel_for(0, 4, [&](i64) { inner_total.fetch_add(1); });
    });
    EXPECT_EQ(inner_total.load(), 8 * 4);
}

/** Mixes (seed, i) into a child seed for the nesting stress test. */
u64
child_seed(u64 seed, i64 i)
{
    u64 x = seed ^ (static_cast<u64>(i) + 0x9e3779b97f4a7c15ULL);
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    return x ^ (x >> 29);
}

/** Leaves of the region tree random_nest(seed, depth) walks. */
i64
expected_leaves(u64 seed, int depth)
{
    const i64 count = static_cast<i64>(seed % 6);
    if (depth == 3) return count;
    i64 total = 0;
    for (i64 i = 0; i < count; ++i) {
        total += expected_leaves(child_seed(seed, i), depth + 1);
    }
    return total;
}

/**
 * Three levels of seeded random fan-out (0 to 5 per region). Even depths
 * launch on the pool directly, odd depths through core::parallel_for,
 * which must route a worker's launch back to the pool it works for.
 * Every region checks that each of its indices ran exactly once.
 */
void
random_nest(ThreadPool& pool, u64 seed, int depth, std::atomic<i64>& leaves,
            std::atomic<int>& errors)
{
    const i64 count = static_cast<i64>(seed % 6);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
    const auto body = [&](i64 i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
        if (depth == 3) {
            leaves.fetch_add(1);
            if (seed & 1) std::this_thread::yield();
            return;
        }
        random_nest(pool, child_seed(seed, i), depth + 1, leaves, errors);
    };
    if (depth % 2 == 0) {
        pool.parallel_for(0, count, body);
    } else {
        core::parallel_for(0, count, body);
    }
    for (const std::atomic<int>& h : hits) {
        if (h.load() != 1) errors.fetch_add(1);
    }
}

TEST(ThreadPool, RandomNestedRegionsRunEveryIndexOnce)
{
    // Two external callers share each pool, so nested launches race for
    // idle workers with each other and with top-level regions. A hang
    // aborts after a bounded wall instead of stalling the suite.
    constexpr int kRounds = 1000;
    for (int threads : {2, 3, 4}) {
        ThreadPool pool(threads);
        std::atomic<i64> leaves{0};
        std::atomic<int> errors{0};
        const u64 base = 1234 + static_cast<u64>(threads);
        i64 want = 0;
        for (int caller = 0; caller < 2; ++caller) {
            for (int r = 0; r < kRounds; ++r) {
                want += expected_leaves(child_seed(base, 2 * r + caller), 0);
            }
        }
        auto run = std::async(std::launch::async, [&] {
            std::vector<std::thread> callers;
            for (int caller = 0; caller < 2; ++caller) {
                callers.emplace_back([&, caller] {
                    for (int r = 0; r < kRounds; ++r) {
                        random_nest(pool, child_seed(base, 2 * r + caller), 0,
                                    leaves, errors);
                    }
                });
            }
            for (std::thread& t : callers) t.join();
        });
        if (run.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
            std::fprintf(stderr, "nested regions hung on a %d-thread pool\n",
                         threads);
            std::abort();
        }
        run.get();
        EXPECT_EQ(errors.load(), 0) << threads << " threads";
        EXPECT_EQ(leaves.load(), want) << threads << " threads";
    }
}

/** Ids of the `threads` threads that core::parallel_for reaches from this
 *  thread, gathered by a region in which each index waits until every
 *  thread holds one. */
std::set<std::thread::id>
pool_thread_ids(int threads)
{
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::thread::id> ids;
    core::parallel_for(0, threads, [&](i64) {
        std::unique_lock<std::mutex> lk(mu);
        ids.insert(std::this_thread::get_id());
        cv.notify_all();
        cv.wait_for(lk, std::chrono::seconds(5), [&] {
            return static_cast<int>(ids.size()) == threads;
        });
    });
    return ids;
}

TEST(ThreadPool, NestedLaunchUnderOverrideStaysOnThatPool)
{
    // The global pool has workers of its own, so a nested launch that
    // escaped to it would run on a thread outside the override pool.
    const test::GlobalThreadsGuard restore;
    core::set_num_threads(4);
    const ScopedPoolOverride scoped(4);
    const std::set<std::thread::id> override_ids = pool_thread_ids(4);
    ASSERT_EQ(override_ids.size(), 4u);

    // Two outer items leave two workers idle for the nested regions to
    // borrow; whoever runs a nested index must belong to the override
    // pool (its workers or this thread).
    std::mutex mu;
    std::set<std::thread::id> nested_ids;
    std::atomic<int> total{0};
    core::parallel_for(0, 2, [&](i64) {
        for (int rep = 0; rep < 8; ++rep) {
            core::parallel_for(0, 16, [&](i64) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                total.fetch_add(1);
                std::lock_guard<std::mutex> lk(mu);
                nested_ids.insert(std::this_thread::get_id());
            });
        }
    });
    EXPECT_EQ(total.load(), 2 * 8 * 16);
    for (const std::thread::id& id : nested_ids) {
        EXPECT_EQ(override_ids.count(id), 1u)
            << "a nested region left the override pool";
    }
}

TEST(ThreadPool, NestedRegionBorrowsIdleWorkers)
{
    // A two-item region on a 4-thread pool leaves two workers idle, so
    // the nested regions should reach more than the two threads running
    // outer items. Scheduling decides who wins the race for idle workers,
    // so retry a bounded number of times.
    ThreadPool pool(4);
    std::size_t best = 0;
    for (int attempt = 0; attempt < 20 && best <= 2; ++attempt) {
        std::mutex mu;
        std::set<std::thread::id> ids;
        pool.parallel_for(0, 2, [&](i64) {
            pool.parallel_for(0, 32, [&](i64) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                std::lock_guard<std::mutex> lk(mu);
                ids.insert(std::this_thread::get_id());
            });
        });
        best = std::max(best, ids.size());
    }
    EXPECT_GT(best, 2u);
}

TEST(ThreadPool, CallerNestedRegionDoesNotWaitForSiblings)
{
    // Both outer items run at once, one on the caller and one on the
    // worker. Each runs a nested region, then waits for the other item's
    // nested region. A caller whose nested region waited for its queued
    // helper would block until the worker's item gave up.
    ThreadPool pool(2);
    std::mutex mu;
    std::condition_variable cv;
    int started = 0, nested_done = 0, timeouts = 0;
    auto wait_for = [&](std::unique_lock<std::mutex>& lk, int* counter) {
        if (!cv.wait_for(lk, std::chrono::seconds(2),
                         [&] { return *counter == 2; })) {
            ++timeouts;
        }
    };
    pool.parallel_for(0, 2, [&](i64) {
        {
            std::unique_lock<std::mutex> lk(mu);
            ++started;
            cv.notify_all();
            wait_for(lk, &started);
        }
        std::atomic<int> inner{0};
        pool.parallel_for(0, 4, [&](i64) { inner.fetch_add(1); });
        EXPECT_EQ(inner.load(), 4);
        std::unique_lock<std::mutex> lk(mu);
        ++nested_done;
        cv.notify_all();
        wait_for(lk, &nested_done);
    });
    EXPECT_EQ(timeouts, 0);
}

TEST(ThreadPool, CallerRegionReportsSerialParallelism)
{
    const ScopedPoolOverride scoped(2);
    std::atomic<int> max_seen{0};
    core::parallel_for(0, 2, [&](i64) {
        const int p = core::current_parallelism();
        int prev = max_seen.load();
        while (prev < p && !max_seen.compare_exchange_weak(prev, p)) {
        }
    });
    EXPECT_EQ(max_seen.load(), 1);
}

TEST(ThreadPool, NestedGlobalParallelForFromWorker)
{
    const test::GlobalThreadsGuard restore;
    core::set_num_threads(4);
    std::atomic<int> total{0};
    core::parallel_for(0, 6, [&](i64) {
        core::parallel_for(0, 5, [&](i64) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 30);
}

TEST(ThreadPool, ScopedPoolOverrideLeavesGlobalPoolAlone)
{
    const int global_before = ThreadPool::global_threads();
    std::atomic<int> total{0};
    std::set<std::thread::id> seen;
    std::mutex seen_mu;
    {
        const ScopedPoolOverride scoped(4);
        core::parallel_for(0, 64, [&](i64) {
            total.fetch_add(1);
            std::lock_guard<std::mutex> lk(seen_mu);
            seen.insert(std::this_thread::get_id());
        });
        // Overrides nest: the inner override wins, then restores.
        {
            const ScopedPoolOverride inner(2);
            core::parallel_for(0, 8, [&](i64) { total.fetch_add(1); });
        }
        core::parallel_for(0, 8, [&](i64) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 64 + 8 + 8);
    EXPECT_GE(seen.size(), 1u);
    EXPECT_EQ(ThreadPool::global_threads(), global_before);
}

TEST(ThreadPool, SetNumThreadsResizesGlobalPool)
{
    const test::GlobalThreadsGuard restore;
    core::set_num_threads(3);
    EXPECT_EQ(ThreadPool::global_threads(), 3);
    core::set_num_threads(0);
    EXPECT_EQ(ThreadPool::global_threads(), core::resolve_thread_count(0));
    EXPECT_THROW(core::set_num_threads(-1), Error);
}

TEST(ThreadCount, DefaultIsSerial)
{
    // Unless ORION_NUM_THREADS overrides it, kernels default to the serial
    // seed behavior.
    if (std::getenv("ORION_NUM_THREADS") == nullptr) {
        EXPECT_EQ(ThreadPool::global_threads(), 1);
    }
    EXPECT_GE(core::resolve_thread_count(0), 1);
    EXPECT_EQ(core::resolve_thread_count(3), 3);
}

TEST(ThreadCount, ParsesOnlyNonNegativeIntegers)
{
    // The parser alone: nothing here builds a pool or starts a thread.
    EXPECT_EQ(core::parse_thread_count("0", "ORION_NUM_THREADS"), 0);
    EXPECT_EQ(core::parse_thread_count("8", "--threads"), 8);
    for (const char* bad : {"abc", "4x", "-1", ""}) {
        for (const char* source : {"ORION_NUM_THREADS", "--threads"}) {
            const std::string named =
                std::string(source) + "=\"" + bad + "\"";
            test::expect_throw_contains<Error>(
                [&] { (void)core::parse_thread_count(bad, source); }, named);
        }
    }
}

// ---------------------------------------------------------------------
// Determinism: threaded kernels must be bit-identical to num_threads = 1.
// ---------------------------------------------------------------------

bool
polys_bit_identical(const ckks::RnsPoly& a, const ckks::RnsPoly& b)
{
    if (a.num_limbs() != b.num_limbs() || a.is_ntt() != b.is_ntt() ||
        a.level() != b.level()) {
        return false;
    }
    const std::size_t bytes = sizeof(u64) * a.degree();
    for (int i = 0; i < a.num_limbs(); ++i) {
        if (std::memcmp(a.limb(i), b.limb(i), bytes) != 0) return false;
    }
    return true;
}

TEST(ThreadPoolDeterminism, NttRoundTripBitIdenticalAcrossThreadCounts)
{
    test::CkksEnv& env = test::CkksEnv::shared();
    const std::vector<double> v =
        test::random_vector(env.ctx.slot_count(), 1.0, 11);

    auto roundtrip = [&](int threads) {
        const ScopedPoolOverride scoped(threads);
        ckks::Plaintext pt =
            env.encoder.encode(v, env.ctx.max_level(), env.ctx.scale());
        pt.poly.to_coeff();
        pt.poly.to_ntt();
        return pt;
    };
    const ckks::Plaintext serial = roundtrip(1);
    for (int threads : {2, 4, 8}) {
        const ckks::Plaintext threaded = roundtrip(threads);
        EXPECT_TRUE(polys_bit_identical(serial.poly, threaded.poly))
            << "NTT round trip diverged at num_threads = " << threads;
    }
}

TEST(ThreadPoolDeterminism, BsgsMatvecBitIdenticalAcrossThreadCounts)
{
    test::CkksEnv& env = test::CkksEnv::shared();
    const u64 dim = env.ctx.slot_count();

    // A banded matrix whose plan exercises baby steps, giant steps, and
    // the deferred mod-down accumulation.
    lin::DiagonalMatrix m(dim);
    std::mt19937_64 rng(23);
    std::uniform_real_distribution<double> dist(-0.5, 0.5);
    for (u64 k : {u64(0), u64(1), u64(2), u64(3), u64(8), u64(9)}) {
        for (u64 r = 0; r < dim; ++r) m.set(r, (r + k) % dim, dist(rng));
    }
    const lin::BsgsPlan plan = lin::BsgsPlan::build(m, 8);
    ckks::GaloisKeys keys =
        env.keygen.make_galois_keys(plan.required_steps());
    ckks::Evaluator eval(env.ctx, env.encoder);
    eval.set_galois_keys(&keys);

    const int level = 3;
    const double w_scale = static_cast<double>(env.ctx.q(level).value());
    const ckks::Ciphertext ct = env.encryptor.encrypt(env.encoder.encode(
        test::random_vector(dim, 1.0, 29), level, env.ctx.scale()));

    auto matvec = [&](int threads) {
        const ScopedPoolOverride scoped(threads);
        const lin::HeBlockedMatrix he(env.ctx, env.encoder, m, plan, level,
                                      w_scale);
        return he.apply(eval, {&ct, 1}).front();
    };
    const ckks::Ciphertext serial = matvec(1);
    for (int threads : {2, 4}) {
        const ckks::Ciphertext threaded = matvec(threads);
        EXPECT_TRUE(polys_bit_identical(serial.c0, threaded.c0))
            << "BSGS c0 diverged at num_threads = " << threads;
        EXPECT_TRUE(polys_bit_identical(serial.c1, threaded.c1))
            << "BSGS c1 diverged at num_threads = " << threads;
        EXPECT_EQ(serial.scale, threaded.scale);
    }
}

TEST(ThreadPoolDeterminism, HoistedRotationBitIdenticalAcrossThreadCounts)
{
    test::CkksEnv& env = test::CkksEnv::shared();
    const std::vector<double> v =
        test::random_vector(env.ctx.slot_count(), 1.0, 31);
    const ckks::Ciphertext ct = env.encryptor.encrypt(
        env.encoder.encode(v, env.ctx.max_level(), env.ctx.scale()));

    auto rotate = [&](int threads) {
        const ScopedPoolOverride scoped(threads);
        const ckks::Evaluator::Hoisted h = env.eval.hoist(ct);
        return env.eval.rotate_hoisted(h, 5);
    };
    const ckks::Ciphertext serial = rotate(1);
    const ckks::Ciphertext threaded = rotate(4);
    EXPECT_TRUE(polys_bit_identical(serial.c0, threaded.c0));
    EXPECT_TRUE(polys_bit_identical(serial.c1, threaded.c1));
}

}  // namespace
}  // namespace orion
