#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "src/ckks/kernels.h"
#include "src/ckks/ntt.h"
#include "src/ckks/primes.h"
#include "src/ckks/serial.h"
#include "src/core/arena.h"
#include "src/core/thread_pool.h"
#include "test_util.h"

/**
 * @file
 * Bit-identity of every vectorized kernel against the scalar reference.
 *
 * The dispatch contract (kernels.h) says AVX2/AVX-512 variants are
 * bit-identical to scalar on EVERY input, so these tests drive each
 * kernel with adversarial residues (q - 1 under a 61-bit modulus, the
 * largest the lazy-range proofs admit) and with sizes that are not lane
 * multiples, forcing the scalar-tail paths. The forced-dispatch test
 * exercises the same override the ORION_SIMD environment variable uses
 * (ORION_SIMD=scalar|avx2|avx512, clamped to host support), and the
 * thread sweep pins the "bit-identical for ANY thread count" guarantee
 * per ISA.
 */

namespace orion::ckks {
namespace {

namespace k = kernels;

/** Every ISA this build + host can actually run. */
std::vector<k::Isa>
supported_isas()
{
    std::vector<k::Isa> out;
    for (k::Isa isa : {k::Isa::kScalar, k::Isa::kAvx2, k::Isa::kAvx512}) {
        if (k::isa_supported(isa)) out.push_back(isa);
    }
    return out;
}

/** Restores the active ISA on scope exit (set_isa is process-global). */
struct IsaGuard {
    k::Isa saved = k::active_isa();
    ~IsaGuard() { k::set_isa(saved); }
};

/**
 * Residues stressing the lane carry chains: exact q - 1 / q - 2 runs (the
 * largest canonical values, so products and sums sit at the top of every
 * proven range), zeros and ones, then uniform randoms.
 */
std::vector<u64>
adversarial_residues(u64 n, const Modulus& q, u64 seed)
{
    std::vector<u64> out(n);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<u64> dist(0, q.value() - 1);
    for (u64 j = 0; j < n; ++j) {
        switch (j % 5) {
            case 0: out[j] = q.value() - 1; break;
            case 1: out[j] = q.value() - 2; break;
            case 2: out[j] = 0; break;
            case 3: out[j] = 1; break;
            default: out[j] = dist(rng); break;
        }
    }
    return out;
}

/** Lazy residues in [0, 4q), the widest range normalize_lazy accepts. */
std::vector<u64>
adversarial_lazy(u64 n, const Modulus& q, u64 seed)
{
    std::vector<u64> out(n);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<u64> dist(0, 4 * q.value() - 1);
    for (u64 j = 0; j < n; ++j) {
        out[j] = (j % 4 == 0) ? 4 * q.value() - 1 - (j % 3) : dist(rng);
    }
    return out;
}

/** A 61-bit NTT prime — the largest modulus the kernels must support.
 *  Generated once for the largest ring used here (q = 1 mod 2 * 4096
 *  implies NTT-friendliness for every smaller power-of-two ring too). */
Modulus
big_modulus(u64 /*poly_degree*/ = 1 << 12)
{
    static const u64 q = generate_ntt_primes(61, 1, u64(1) << 12)[0];
    return Modulus(q);
}

// Sizes around every lane boundary: below AVX2's 4, between 4 and AVX-512's
// 8, multiples of both, and odd sizes that leave 1..7-element tails.
const std::vector<u64> kSizes = {1,  2,  3,  4,  5,   7,   8,   9,   15, 16,
                                 17, 31, 32, 33, 63,  64,  65,  100, 127,
                                 255, 256, 1000};

TEST(KernelsSimd, DispatchSanity)
{
    EXPECT_TRUE(k::isa_supported(k::Isa::kScalar));
    EXPECT_TRUE(k::isa_supported(k::best_supported_isa()));
    EXPECT_TRUE(k::isa_supported(k::active_isa()));
    EXPECT_STREQ(k::isa_name(k::Isa::kScalar), "scalar");
    EXPECT_STREQ(k::isa_name(k::Isa::kAvx2), "avx2");
    EXPECT_STREQ(k::isa_name(k::Isa::kAvx512), "avx512");
}

TEST(KernelsSimd, ElementwiseKernelsBitIdenticalToScalar)
{
    const Modulus q = big_modulus();
    const k::KernelTable& ref = k::table(k::Isa::kScalar);
    const u64 w = q.value() - 1;
    const u64 w_shoup = shoup_precompute(w, q);
    for (k::Isa isa : supported_isas()) {
        if (isa == k::Isa::kScalar) continue;
        const k::KernelTable& vec = k::table(isa);
        for (u64 n : kSizes) {
            const std::vector<u64> a0 = adversarial_residues(n, q, 11 + n);
            const std::vector<u64> b = adversarial_residues(n, q, 23 + n);
            const std::vector<u64> c = adversarial_residues(n, q, 37 + n);

            std::vector<u64> s = a0, v = a0;
            ref.add_mod_n(s.data(), b.data(), n, q);
            vec.add_mod_n(v.data(), b.data(), n, q);
            EXPECT_EQ(s, v) << k::isa_name(isa) << " add_mod_n n=" << n;

            s = a0; v = a0;
            ref.sub_mod_n(s.data(), b.data(), n, q);
            vec.sub_mod_n(v.data(), b.data(), n, q);
            EXPECT_EQ(s, v) << k::isa_name(isa) << " sub_mod_n n=" << n;

            s = a0; v = a0;
            ref.mul_mod_n(s.data(), b.data(), n, q);
            vec.mul_mod_n(v.data(), b.data(), n, q);
            EXPECT_EQ(s, v) << k::isa_name(isa) << " mul_mod_n n=" << n;

            s = a0; v = a0;
            ref.add_product_n(s.data(), b.data(), c.data(), n, q);
            vec.add_product_n(v.data(), b.data(), c.data(), n, q);
            EXPECT_EQ(s, v) << k::isa_name(isa) << " add_product_n n=" << n;

            // Both the out-of-place and the aliased (a == src) forms.
            s.assign(n, 0); v.assign(n, 0);
            ref.mul_scalar_shoup_n(s.data(), a0.data(), n, w, w_shoup, q);
            vec.mul_scalar_shoup_n(v.data(), a0.data(), n, w, w_shoup, q);
            EXPECT_EQ(s, v)
                << k::isa_name(isa) << " mul_scalar_shoup_n n=" << n;
            s = a0; v = a0;
            ref.mul_scalar_shoup_n(s.data(), s.data(), n, w, w_shoup, q);
            vec.mul_scalar_shoup_n(v.data(), v.data(), n, w, w_shoup, q);
            EXPECT_EQ(s, v)
                << k::isa_name(isa) << " mul_scalar_shoup_n aliased n=" << n;

            const std::vector<u64> lazy = adversarial_lazy(n, q, 53 + n);
            s = lazy; v = lazy;
            ref.normalize_lazy_n(s.data(), n, q);
            vec.normalize_lazy_n(v.data(), n, q);
            EXPECT_EQ(s, v) << k::isa_name(isa) << " normalize_lazy_n n=" << n;
        }
    }
}

TEST(KernelsSimd, KsInnerProductBitIdenticalToScalar)
{
    const Modulus q = big_modulus();
    const k::KernelTable& ref = k::table(k::Isa::kScalar);
    // 17 and 40 digits cross the 16-term chunk boundary, exercising the
    // mid-accumulation Barrett reduction in the lane (lo, hi) pairs.
    const std::vector<u64> kDigits = {1, 2, 3, 16, 17, 40};
    for (k::Isa isa : supported_isas()) {
        if (isa == k::Isa::kScalar) continue;
        const k::KernelTable& vec = k::table(isa);
        for (u64 n : kSizes) {
            for (u64 nd : kDigits) {
                std::vector<std::vector<u64>> xs_s(nd), bs_s(nd), as_s(nd);
                std::vector<const u64*> xs(nd), bs(nd), as(nd);
                for (u64 d = 0; d < nd; ++d) {
                    xs_s[d] = adversarial_residues(n, q, 100 + 3 * d);
                    bs_s[d] = adversarial_residues(n, q, 101 + 3 * d);
                    as_s[d] = adversarial_residues(n, q, 102 + 3 * d);
                    xs[d] = xs_s[d].data();
                    bs[d] = bs_s[d].data();
                    as[d] = as_s[d].data();
                }
                // Carried-in partial sums at their maximum (q - 1).
                const std::vector<u64> carry0 =
                    adversarial_residues(n, q, 7 + n);
                const std::vector<u64> carry1 =
                    adversarial_residues(n, q, 9 + n);
                std::vector<u64> s0 = carry0, s1 = carry1;
                std::vector<u64> v0 = carry0, v1 = carry1;
                ref.ks_inner_product(s0.data(), s1.data(), xs.data(),
                                     bs.data(), as.data(), nd, n, q);
                vec.ks_inner_product(v0.data(), v1.data(), xs.data(),
                                     bs.data(), as.data(), nd, n, q);
                EXPECT_EQ(s0, v0) << k::isa_name(isa) << " ks o0 n=" << n
                                  << " digits=" << nd;
                EXPECT_EQ(s1, v1) << k::isa_name(isa) << " ks o1 n=" << n
                                  << " digits=" << nd;
            }
        }
    }
}

TEST(KernelsSimd, BaseConvAccBitIdenticalToScalar)
{
    const Modulus q = big_modulus();
    const k::KernelTable& ref = k::table(k::Isa::kScalar);
    for (k::Isa isa : supported_isas()) {
        if (isa == k::Isa::kScalar) continue;
        const k::KernelTable& vec = k::table(isa);
        for (u64 n : kSizes) {
            for (int len : {0, 1, 3, 32}) {
                std::vector<std::vector<u64>> lam_s(len);
                std::vector<const u64*> lams(len);
                std::vector<u64> hats(len);
                for (int d = 0; d < len; ++d) {
                    lam_s[d] = adversarial_residues(n, q, 200 + d);
                    lams[d] = lam_s[d].data();
                    hats[d] = q.value() - 1 - static_cast<u64>(d % 3);
                }
                std::vector<u64> s(n, 99), v(n, 99);
                ref.base_conv_acc(s.data(), lams.data(), hats.data(), len, n,
                                  q);
                vec.base_conv_acc(v.data(), lams.data(), hats.data(), len, n,
                                  q);
                EXPECT_EQ(s, v) << k::isa_name(isa) << " base_conv n=" << n
                                << " len=" << len;
            }
        }
    }
}

TEST(KernelsSimd, BaseConvAccCrossModulusRowsMatchModularSum)
{
    // RNS division feeds base_conv_acc rows that are residues of OTHER,
    // possibly larger, moduli (the dropped limbs) and 0/1 rows (the
    // centering bits). Every ISA must equal an independent mul_mod/add_mod
    // sum of the rows reduced into the target modulus.
    const std::vector<u64> primes =
        generate_ntt_primes(61, 2, u64(1) << 12);
    const Modulus big(std::max(primes[0], primes[1]));
    const Modulus q61(std::min(primes[0], primes[1]));
    const Modulus q46(generate_ntt_primes(46, 1, u64(1) << 12)[0]);
    for (const Modulus& q : {q61, q46}) {
        for (u64 n : kSizes) {
            for (int len : {1, 2, 7, 8, 32}) {
                std::vector<std::vector<u64>> lam_s(len);
                std::vector<const u64*> lams(len);
                std::vector<u64> hats(len);
                std::mt19937_64 rng(500 + n + static_cast<u64>(len));
                for (int d = 0; d < len; ++d) {
                    if (d % 2 == 0) {
                        lam_s[d] = adversarial_residues(n, big, 600 + d);
                    } else {
                        lam_s[d].resize(n);
                        for (u64 x = 0; x < n; ++x) lam_s[d][x] = rng() & 1;
                    }
                    lams[d] = lam_s[d].data();
                    hats[d] = d % 3 == 0 ? q.value() - 1 : rng() % q.value();
                }
                std::vector<u64> want(n, 0);
                for (u64 x = 0; x < n; ++x) {
                    for (int d = 0; d < len; ++d) {
                        want[x] = add_mod(
                            want[x], mul_mod(q.reduce(lam_s[d][x]), hats[d], q),
                            q);
                    }
                }
                for (k::Isa isa : supported_isas()) {
                    std::vector<u64> got(n, 99);
                    k::table(isa).base_conv_acc(got.data(), lams.data(),
                                                hats.data(), len, n, q);
                    EXPECT_EQ(got, want)
                        << k::isa_name(isa) << " q=" << q.value()
                        << " n=" << n << " len=" << len;
                }
            }
        }
    }
}

TEST(KernelsSimd, NttBitIdenticalAcrossIsas)
{
    // Small n (4, 8) sit below the vector kernels' lane minimums and must
    // take their scalar fallback; larger n exercise all fused stages.
    for (u64 n : {u64(4), u64(8), u64(16), u64(32), u64(64), u64(1024),
                  u64(4096)}) {
        const Modulus q = big_modulus(n);
        const NttTables tables(n, q);
        const k::NttView view = tables.view();
        const std::vector<u64> input = adversarial_residues(n, q, 300 + n);

        std::vector<u64> fwd_ref = input;
        k::table(k::Isa::kScalar).ntt_forward(view, fwd_ref.data());
        std::vector<u64> inv_ref = fwd_ref;
        k::table(k::Isa::kScalar).ntt_inverse(view, inv_ref.data());
        EXPECT_EQ(inv_ref, input) << "scalar roundtrip n=" << n;

        for (k::Isa isa : supported_isas()) {
            if (isa == k::Isa::kScalar) continue;
            std::vector<u64> fwd = input;
            k::table(isa).ntt_forward(view, fwd.data());
            EXPECT_EQ(fwd, fwd_ref)
                << k::isa_name(isa) << " forward n=" << n;
            std::vector<u64> inv = fwd;
            k::table(isa).ntt_inverse(view, inv.data());
            EXPECT_EQ(inv, input) << k::isa_name(isa) << " roundtrip n=" << n;
        }
    }
}

TEST(KernelsSimd, ForcedDispatchMatchesDirectTables)
{
    // set_isa is the hook behind ORION_SIMD=scalar|avx2|avx512: after
    // forcing, every library entry point (here NttTables::forward) must
    // route through the forced table.
    IsaGuard guard;
    const u64 n = 256;
    const Modulus q = big_modulus(n);
    const NttTables tables(n, q);
    const std::vector<u64> input = adversarial_residues(n, q, 400);
    std::vector<u64> ref = input;
    k::table(k::Isa::kScalar).ntt_forward(tables.view(), ref.data());
    for (k::Isa isa : supported_isas()) {
        k::set_isa(isa);
        EXPECT_EQ(k::active_isa(), isa);
        std::vector<u64> a = input;
        tables.forward(a.data());
        EXPECT_EQ(a, ref) << "forced " << k::isa_name(isa);
    }
}

TEST(KernelsSimd, RotationBitIdenticalAcrossIsasAndThreads)
{
    // One fixed ciphertext, rotated under every (ISA, thread count) combo:
    // the serialized results must be byte-identical — rotation exercises
    // NTTs, the key-switch inner product, base conversion, and the whole
    // lazy modarith layer at once.
    IsaGuard guard;
    auto& env = test::CkksEnv::shared();
    const std::vector<double> values =
        test::random_vector(env.ctx.degree() / 2, 1.0, 77);
    const Ciphertext ct = test::encrypt_vector(env, values, 2);

    std::vector<u8> baseline;
    for (k::Isa isa : supported_isas()) {
        k::set_isa(isa);
        for (int threads : {1, 2, 4}) {
            core::ScopedPoolOverride pool(threads);
            Ciphertext r = env.eval.rotate(ct, 3);
            const std::vector<u8> bytes = serial::serialize(r);
            if (baseline.empty()) {
                baseline = bytes;
            } else {
                EXPECT_EQ(bytes, baseline)
                    << k::isa_name(isa) << " x " << threads << " threads";
            }
        }
    }
    EXPECT_FALSE(baseline.empty());
}

TEST(KernelsSimd, HotLoopsAllocationFreeAfterWarmup)
{
    // The acceptance bar for the arena: once the pool is warm, rotation
    // (key-switch decompose + inner product) and BSGS accumulation serve
    // every RnsPoly buffer from the pool — poly_alloc and poly_arena_hit
    // advance in lockstep, i.e. zero heap allocations per op.
    auto& env = test::CkksEnv::shared();
    const std::vector<double> values =
        test::random_vector(env.ctx.degree() / 2, 1.0, 88);
    const Ciphertext ct = test::encrypt_vector(env, values, 2);

    for (int warm = 0; warm < 3; ++warm) {
        (void)env.eval.rotate(ct, 1);
        Evaluator::Hoisted h = env.eval.hoist(ct);
        (void)env.eval.rotate_hoisted(h, 2);
    }

    const OpCounters before = env.ctx.counters();
    for (int i = 0; i < 4; ++i) {
        (void)env.eval.rotate(ct, 1);
        Evaluator::Hoisted h = env.eval.hoist(ct);
        (void)env.eval.rotate_hoisted(h, 2);
    }
    const OpCounters after = env.ctx.counters();

    const u64 allocs = after.poly_alloc - before.poly_alloc;
    const u64 hits = after.poly_arena_hit - before.poly_arena_hit;
    EXPECT_GT(allocs, u64(0)) << "rotations must acquire scratch polys";
    EXPECT_EQ(allocs, hits) << "steady-state rotations hit the heap";
}

TEST(KernelsSimd, HoistedRotationsDecomposeOnce)
{
    // The cross-stage hoisting contract: one digit decomposition per
    // hoisted input, however many rotations are served from it.
    auto& env = test::CkksEnv::shared();
    const std::vector<double> values =
        test::random_vector(env.ctx.degree() / 2, 1.0, 99);
    const Ciphertext ct = test::encrypt_vector(env, values, 2);

    const u64 before = env.ctx.counters().decompose;
    Evaluator::Hoisted h = env.eval.hoist(ct);
    (void)env.eval.rotate_hoisted(h, 1);
    (void)env.eval.rotate_hoisted(h, 2);
    (void)env.eval.rotate_hoisted(h, 3);
    const u64 after = env.ctx.counters().decompose;
    EXPECT_EQ(after - before, u64(1));
}

TEST(KernelsSimd, ArenaStatsAndReuse)
{
    core::Arena& arena = core::Arena::instance();
    const core::ArenaStats s0 = arena.stats();
    EXPECT_GE(s0.acquires, s0.pool_hits);

    {
        core::ArenaVec<u64> v;
        EXPECT_TRUE(v.empty());
        const core::ArenaAcquire first = v.acquire(1000);
        EXPECT_NE(first, core::ArenaAcquire::kReused);
        EXPECT_EQ(v.size(), 1000u);
        // Shrinking within capacity never reallocates.
        v.resize_down(10);
        EXPECT_EQ(v.acquire(500), core::ArenaAcquire::kReused);
        EXPECT_EQ(v.acquire(1000), core::ArenaAcquire::kReused);
    }
    // The block the vector released is now pooled (TLS front cache or
    // global list): an identical acquisition must be a pool hit.
    {
        core::ArenaVec<u64> v;
        EXPECT_EQ(v.acquire(1000), core::ArenaAcquire::kPool);
    }
    const core::ArenaStats s1 = arena.stats();
    EXPECT_GT(s1.acquires, s0.acquires);
    EXPECT_GT(s1.pool_hits, s0.pool_hits);
}

}  // namespace
}  // namespace orion::ckks
