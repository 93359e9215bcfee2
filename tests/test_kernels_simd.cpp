#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
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
 * The dispatch contract (kernels.h) says the vector tables are
 * bit-identical to scalar on every input, so these tests drive each
 * kernel with adversarial residues (q - 1 runs, the tops of every proven
 * range) under moduli of each width the tables branch on, and with sizes
 * that are not lane multiples, forcing the scalar-tail paths. Each vector
 * table is its own test instance: one the host cannot run is reported as
 * skipped, not passed. The forced-dispatch test exercises the override
 * the ORION_SIMD environment variable uses
 * (ORION_SIMD=scalar|avx2|avx512|avx512ifma, clamped to host support),
 * and the thread sweep pins the "bit-identical for ANY thread count"
 * guarantee per ISA.
 */

namespace orion::ckks {
namespace {

namespace k = kernels;

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

/** The largest NTT size the tests use; every prime below is
 *  NTT-friendly for it and for every smaller power-of-two ring. */
constexpr u64 kMaxNtt = u64(1) << 13;

/** The largest NTT prime of exactly `bits` bits. */
Modulus
ntt_prime(int bits)
{
    return Modulus(generate_ntt_primes(bits, 1, kMaxNtt)[0]);
}

/**
 * One modulus per width the tables branch on: 30 and 46 bits (the toy
 * and network chains) and the largest NTT prime below 2^50 take the IFMA
 * table's 52-bit path; 51 bits and 61 bits (the largest the lazy-range
 * proofs admit) take its AVX-512 fallback.
 */
const std::vector<Modulus>&
test_moduli()
{
    static const std::vector<Modulus> moduli = {
        ntt_prime(30), ntt_prime(46), ntt_prime(50), ntt_prime(51),
        ntt_prime(61)};
    return moduli;
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
    EXPECT_STREQ(k::isa_name(k::Isa::kAvx512Ifma), "avx512ifma");
    const std::vector<k::Isa> isas = k::supported_isas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), k::Isa::kScalar);
    EXPECT_EQ(isas.back(), k::best_supported_isa());
#if defined(__x86_64__)
    __builtin_cpu_init();
    const bool avx512 = __builtin_cpu_supports("avx512f") &&
                        __builtin_cpu_supports("avx512dq") &&
                        __builtin_cpu_supports("avx512vl") &&
                        __builtin_cpu_supports("avx512bw");
    const bool ifma = avx512 && __builtin_cpu_supports("avx512ifma");
    EXPECT_EQ(k::best_supported_isa() == k::Isa::kAvx512Ifma, ifma);
    EXPECT_EQ(k::isa_supported(k::Isa::kAvx512), avx512);
#endif
}

/** One vector table against the scalar reference. */
class KernelsVsScalar : public ::testing::TestWithParam<k::Isa> {
  protected:
    void
    SetUp() override
    {
        if (!k::isa_supported(GetParam())) {
            GTEST_SKIP() << k::isa_name(GetParam())
                         << " is not supported on this host";
        }
    }

    const k::KernelTable& ref() const { return k::table(k::Isa::kScalar); }
    const k::KernelTable& vec() const { return k::table(GetParam()); }
    const char* name() const { return k::isa_name(GetParam()); }
};

TEST_P(KernelsVsScalar, Elementwise)
{
    for (const Modulus& q : test_moduli()) {
        const u64 w = q.value() - 1;
        const u64 w_shoup = shoup_precompute(w, q);
        for (u64 n : kSizes) {
            const std::string at = std::string(name()) +
                                   " q=" + std::to_string(q.value()) +
                                   " n=" + std::to_string(n);
            const std::vector<u64> a0 = adversarial_residues(n, q, 11 + n);
            const std::vector<u64> b = adversarial_residues(n, q, 23 + n);
            const std::vector<u64> c = adversarial_residues(n, q, 37 + n);

            std::vector<u64> s = a0, v = a0;
            ref().add_mod_n(s.data(), b.data(), n, q);
            vec().add_mod_n(v.data(), b.data(), n, q);
            EXPECT_EQ(s, v) << "add_mod_n " << at;

            s = a0; v = a0;
            ref().sub_mod_n(s.data(), b.data(), n, q);
            vec().sub_mod_n(v.data(), b.data(), n, q);
            EXPECT_EQ(s, v) << "sub_mod_n " << at;

            s = a0; v = a0;
            ref().mul_mod_n(s.data(), b.data(), n, q);
            vec().mul_mod_n(v.data(), b.data(), n, q);
            EXPECT_EQ(s, v) << "mul_mod_n " << at;

            s = a0; v = a0;
            ref().add_product_n(s.data(), b.data(), c.data(), n, q);
            vec().add_product_n(v.data(), b.data(), c.data(), n, q);
            EXPECT_EQ(s, v) << "add_product_n " << at;

            // Both the out-of-place and the aliased (a == src) forms.
            s.assign(n, 0); v.assign(n, 0);
            ref().mul_scalar_shoup_n(s.data(), a0.data(), n, w, w_shoup, q);
            vec().mul_scalar_shoup_n(v.data(), a0.data(), n, w, w_shoup, q);
            EXPECT_EQ(s, v) << "mul_scalar_shoup_n " << at;
            s = a0; v = a0;
            ref().mul_scalar_shoup_n(s.data(), s.data(), n, w, w_shoup, q);
            vec().mul_scalar_shoup_n(v.data(), v.data(), n, w, w_shoup, q);
            EXPECT_EQ(s, v) << "mul_scalar_shoup_n aliased " << at;

            const std::vector<u64> lazy = adversarial_lazy(n, q, 53 + n);
            s = lazy; v = lazy;
            ref().normalize_lazy_n(s.data(), n, q);
            vec().normalize_lazy_n(v.data(), n, q);
            EXPECT_EQ(s, v) << "normalize_lazy_n " << at;
        }
    }
}

/**
 * Residues x, y whose product has its low 52 bits within 2^38 of 2^52:
 * near the largest term an IFMA lo accumulator can take, so 2^12 + 1
 * of them overflow a 64-bit lane that is not reduced in time.
 */
std::pair<u64, u64>
worst_lo52_pair(const Modulus& q)
{
    // A random pair qualifies with probability about 2^-14.
    const u64 mask = (u64(1) << 52) - 1;
    std::mt19937_64 rng(q.value());
    std::uniform_int_distribution<u64> dist(0, q.value() - 1);
    for (;;) {
        const u64 x = dist(rng);
        const u64 y = dist(rng);
        if ((static_cast<u64>(u128(x) * y) & mask) >= mask - (u64(1) << 38)) {
            return {x, y};
        }
    }
}

/**
 * ks_inner_product of `nd` digits with q - 1 carry-ins. The digits are
 * adversarial residues, or with `worst_lo52` every product is the
 * worst_lo52_pair one.
 */
void
expect_ks_inner_product_matches(const k::KernelTable& ref,
                                const k::KernelTable& vec, const char* name,
                                const Modulus& q, u64 n, u64 nd,
                                bool worst_lo52 = false)
{
    std::vector<std::vector<u64>> xs_s(nd), bs_s(nd), as_s(nd);
    std::vector<const u64*> xs(nd), bs(nd), as(nd);
    const std::pair<u64, u64> worst =
        worst_lo52 ? worst_lo52_pair(q) : std::pair<u64, u64>{};
    for (u64 d = 0; d < nd; ++d) {
        if (worst_lo52) {
            xs_s[d].assign(n, worst.first);
            bs_s[d].assign(n, worst.second);
            as_s[d].assign(n, worst.second);
        } else {
            xs_s[d] = adversarial_residues(n, q, 100 + 3 * d);
            bs_s[d] = adversarial_residues(n, q, 101 + 3 * d);
            as_s[d] = adversarial_residues(n, q, 102 + 3 * d);
        }
        xs[d] = xs_s[d].data();
        bs[d] = bs_s[d].data();
        as[d] = as_s[d].data();
    }
    // Carried-in partial sums at their maximum (q - 1).
    const std::vector<u64> carry0 = adversarial_residues(n, q, 7 + n);
    const std::vector<u64> carry1 = adversarial_residues(n, q, 9 + n);
    std::vector<u64> s0 = carry0, s1 = carry1;
    std::vector<u64> v0 = carry0, v1 = carry1;
    ref.ks_inner_product(s0.data(), s1.data(), xs.data(), bs.data(),
                         as.data(), nd, n, q);
    vec.ks_inner_product(v0.data(), v1.data(), xs.data(), bs.data(),
                         as.data(), nd, n, q);
    EXPECT_EQ(s0, v0) << name << " ks o0 q=" << q.value() << " n=" << n
                      << " digits=" << nd;
    EXPECT_EQ(s1, v1) << name << " ks o1 q=" << q.value() << " n=" << n
                      << " digits=" << nd;
}

TEST_P(KernelsVsScalar, KsInnerProduct)
{
    // 17 and 40 digits cross the 16-term chunk boundary of the 64-bit
    // tables, exercising the mid-accumulation Barrett reduction in the
    // lane (lo, hi) pairs.
    for (const Modulus& q : test_moduli()) {
        for (u64 n : kSizes) {
            for (u64 nd : {1, 2, 3, 16, 17, 40}) {
                expect_ks_inner_product_matches(ref(), vec(), name(), q, n,
                                                nd);
            }
        }
        // 2 * 2^11 + 1 digits cross the IFMA table's 2^11-term chunks
        // twice; with worst-case products a longer chunk would overflow.
        for (u64 n : {8, 9}) {
            for (bool worst : {false, true}) {
                expect_ks_inner_product_matches(ref(), vec(), name(), q, n,
                                                2 * 2048 + 1, worst);
            }
        }
    }
}

TEST_P(KernelsVsScalar, BaseConvAcc)
{
    for (const Modulus& q : test_moduli()) {
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
                ref().base_conv_acc(s.data(), lams.data(), hats.data(), len,
                                    n, q, q.value());
                vec().base_conv_acc(v.data(), lams.data(), hats.data(), len,
                                    n, q, q.value());
                EXPECT_EQ(s, v) << name() << " base_conv q=" << q.value()
                                << " n=" << n << " len=" << len;
            }
        }
    }
}

TEST_P(KernelsVsScalar, Ntt)
{
    // n = 4 and 8 sit below the vector kernels' lane minimums and take
    // their scalar fallback; larger n exercise every fused stage.
    for (const Modulus& q : test_moduli()) {
        for (u64 n = 4; n <= kMaxNtt; n <<= 1) {
            const NttTables tables(n, q);
            const k::NttView view = tables.view();
            const std::vector<u64> input =
                adversarial_residues(n, q, 300 + n);

            std::vector<u64> fwd_ref = input;
            ref().ntt_forward(view, fwd_ref.data());
            std::vector<u64> inv_ref = fwd_ref;
            ref().ntt_inverse(view, inv_ref.data());
            EXPECT_EQ(inv_ref, input)
                << "scalar roundtrip q=" << q.value() << " n=" << n;

            std::vector<u64> fwd = input;
            vec().ntt_forward(view, fwd.data());
            EXPECT_EQ(fwd, fwd_ref)
                << name() << " forward q=" << q.value() << " n=" << n;
            std::vector<u64> inv = fwd;
            vec().ntt_inverse(view, inv.data());
            EXPECT_EQ(inv, input)
                << name() << " roundtrip q=" << q.value() << " n=" << n;
        }
    }
}

/**
 * No entry writes past n. Every output buffer carries sentinel words
 * behind its n residues, at sizes around both lane widths W = 4 and 8
 * (W - 1, W, W + 1, 2W + 3) and at the NTT sizes that first reach each
 * fused span (8 for AVX2's spans 2 and 1, 16 for AVX-512's 4, 2 and 1).
 * Other tests size their buffers exactly, so a loop-bound slip would
 * otherwise show only under a sanitizer.
 */
TEST_P(KernelsVsScalar, NeverWritesPastN)
{
    static constexpr u64 kPad = 16;
    static constexpr u64 kSentinel = 0x5eadbeefcafef00dULL;
    const auto padded = [](std::vector<u64> v) {
        v.insert(v.end(), kPad, kSentinel);
        return v;
    };
    const auto intact = [](const std::vector<u64>& v, u64 n) {
        return std::all_of(v.begin() + static_cast<std::ptrdiff_t>(n),
                           v.end(), [](u64 x) { return x == kSentinel; });
    };
    for (const k::KernelTable* t : {&ref(), &vec()}) {
        const std::string table = t == &ref() ? "scalar" : name();
        for (const Modulus& q : test_moduli()) {
            const u64 w = q.value() - 1;
            const u64 w_shoup = shoup_precompute(w, q);
            for (u64 n : {3, 4, 5, 11, 7, 8, 9, 19}) {
                const std::string at = table + " q=" +
                                       std::to_string(q.value()) +
                                       " n=" + std::to_string(n);
                const std::vector<u64> a0 = adversarial_residues(n, q, 5 + n);
                const std::vector<u64> b = adversarial_residues(n, q, 6 + n);
                const std::vector<u64> c = adversarial_residues(n, q, 7 + n);

                std::vector<u64> v = padded(a0);
                t->add_mod_n(v.data(), b.data(), n, q);
                EXPECT_TRUE(intact(v, n)) << "add_mod_n " << at;
                v = padded(a0);
                t->sub_mod_n(v.data(), b.data(), n, q);
                EXPECT_TRUE(intact(v, n)) << "sub_mod_n " << at;
                v = padded(a0);
                t->mul_mod_n(v.data(), b.data(), n, q);
                EXPECT_TRUE(intact(v, n)) << "mul_mod_n " << at;
                v = padded(a0);
                t->add_product_n(v.data(), b.data(), c.data(), n, q);
                EXPECT_TRUE(intact(v, n)) << "add_product_n " << at;
                v = padded(std::vector<u64>(n, 0));
                t->mul_scalar_shoup_n(v.data(), a0.data(), n, w, w_shoup, q);
                EXPECT_TRUE(intact(v, n)) << "mul_scalar_shoup_n " << at;
                v = padded(adversarial_lazy(n, q, 8 + n));
                t->normalize_lazy_n(v.data(), n, q);
                EXPECT_TRUE(intact(v, n)) << "normalize_lazy_n " << at;

                // 17 digits cross the 64-bit tables' 16-term chunks.
                const std::vector<const u64*> xs(17, a0.data());
                const std::vector<const u64*> ys(17, b.data());
                std::vector<u64> o0 = padded(a0), o1 = padded(c);
                t->ks_inner_product(o0.data(), o1.data(), xs.data(),
                                    ys.data(), ys.data(), 17, n, q);
                EXPECT_TRUE(intact(o0, n) && intact(o1, n))
                    << "ks_inner_product " << at;
                const u64 hats[3] = {q.value() - 1, 1, q.value() - 2};
                v = padded(std::vector<u64>(n, 0));
                t->base_conv_acc(v.data(), xs.data(), hats, 3, n, q,
                                 q.value());
                EXPECT_TRUE(intact(v, n)) << "base_conv_acc " << at;
            }
            for (u64 n : {8, 16, 32}) {
                const NttTables tables(n, q);
                const std::string at = table + " q=" +
                                       std::to_string(q.value()) +
                                       " ntt n=" + std::to_string(n);
                std::vector<u64> v = padded(adversarial_residues(n, q, n));
                t->ntt_forward(tables.view(), v.data());
                EXPECT_TRUE(intact(v, n)) << "ntt_forward " << at;
                t->ntt_inverse(tables.view(), v.data());
                EXPECT_TRUE(intact(v, n)) << "ntt_inverse " << at;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(, KernelsVsScalar,
                         ::testing::Values(k::Isa::kAvx2, k::Isa::kAvx512,
                                           k::Isa::kAvx512Ifma),
                         [](const ::testing::TestParamInfo<k::Isa>& info) {
                             return std::string(k::isa_name(info.param));
                         });

TEST(KernelsSimd, BaseConvAccCrossModulusRowsMatchModularSum)
{
    // RNS division feeds base_conv_acc rows that are residues of OTHER,
    // possibly larger, moduli (the dropped limbs) and 0/1 rows (the
    // centering bits). Every ISA must equal an independent mul_mod/add_mod
    // sum of the rows reduced into the target modulus. Row/target pairs:
    // 61-bit rows into 61- and 46-bit targets, network's 46-bit special
    // rows into a 35-bit target (the IFMA table's 52-bit path), and the
    // bootstrap chain's 60-bit special rows into a 50-bit target (its
    // AVX-512 fallback).
    const std::vector<u64> p61 = generate_ntt_primes(61, 2, u64(1) << 12);
    const Modulus big(std::max(p61[0], p61[1]));
    const Modulus q61(std::min(p61[0], p61[1]));
    const struct {
        Modulus rows;
        Modulus target;
    } pairs[] = {{big, q61},
                 {big, ntt_prime(46)},
                 {ntt_prime(46), ntt_prime(35)},
                 {ntt_prime(60), ntt_prime(50)}};
    for (const auto& [rows, q] : pairs) {
        for (u64 n : kSizes) {
            for (int len : {1, 2, 7, 8, 32}) {
                std::vector<std::vector<u64>> lam_s(len);
                std::vector<const u64*> lams(len);
                std::vector<u64> hats(len);
                std::mt19937_64 rng(500 + n + static_cast<u64>(len));
                for (int d = 0; d < len; ++d) {
                    if (d % 2 == 0) {
                        lam_s[d] = adversarial_residues(n, rows, 600 + d);
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
                for (k::Isa isa : k::supported_isas()) {
                    std::vector<u64> got(n, 99);
                    k::table(isa).base_conv_acc(got.data(), lams.data(),
                                                hats.data(), len, n, q,
                                                rows.value());
                    EXPECT_EQ(got, want)
                        << k::isa_name(isa) << " rows=" << rows.value()
                        << " q=" << q.value() << " n=" << n
                        << " len=" << len;
                }
            }
        }
    }
}

TEST(KernelsSimd, ForcedDispatchMatchesDirectTables)
{
    // set_isa is the hook behind ORION_SIMD: after forcing, every library
    // entry point (here NttTables::forward) must route through the forced
    // table. The outputs of all tables are equal by contract, so the
    // routing itself is checked on the function pointers: on an IFMA host
    // forcing avx512 must select the table without IFMA. The 46-bit
    // modulus is one the IFMA table runs on its 52-bit path.
    const test::IsaGuard guard;
    const u64 n = 256;
    const Modulus q = ntt_prime(46);
    const NttTables tables(n, q);
    const std::vector<u64> input = adversarial_residues(n, q, 400);
    std::vector<u64> ref = input;
    k::table(k::Isa::kScalar).ntt_forward(tables.view(), ref.data());
    for (k::Isa isa : k::supported_isas()) {
        k::set_isa(isa);
        EXPECT_EQ(k::active_isa(), isa);
        EXPECT_EQ(&k::active(), &k::table(isa)) << k::isa_name(isa);
        std::vector<u64> a = input;
        tables.forward(a.data());
        EXPECT_EQ(a, ref) << "forced " << k::isa_name(isa);
    }
    if (k::isa_supported(k::Isa::kAvx512Ifma)) {
        k::set_isa(k::Isa::kAvx512);
        EXPECT_EQ(k::active().ntt_forward,
                  k::table(k::Isa::kAvx512).ntt_forward);
        EXPECT_NE(k::active().ntt_forward,
                  k::table(k::Isa::kAvx512Ifma).ntt_forward);
    }
}

TEST(KernelsSimd, RotationBitIdenticalAcrossIsasAndThreads)
{
    // One fixed ciphertext, rotated under every (ISA, thread count) combo:
    // the serialized results must be byte-identical — rotation exercises
    // NTTs, the key-switch inner product, base conversion, and the whole
    // lazy modarith layer at once.
    const test::IsaGuard guard;
    auto& env = test::CkksEnv::shared();
    const std::vector<double> values =
        test::random_vector(env.ctx.degree() / 2, 1.0, 77);
    const Ciphertext ct = test::encrypt_vector(env, values, 2);

    std::vector<u8> baseline;
    for (k::Isa isa : k::supported_isas()) {
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
