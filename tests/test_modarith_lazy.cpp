/**
 * @file
 * Lazy (deferred-reduction) kernel validation: every lazy primitive in
 * modarith.h is cross-checked against the plain mul_mod/add_mod reference
 * on random and adversarial inputs, the Harvey NTT is cross-checked
 * against the eager per-op-reduction formulation it replaced, the fused
 * u128 key-switch inner product is cross-checked against the per-term
 * mul_mod/add_mod loop, and the end-to-end kernels are swept across
 * 1/2/4 threads for bit-identity.
 */

#include <gtest/gtest.h>

#include <random>

#include "src/ckks/ckks.h"
#include "src/core/thread_pool.h"

namespace orion::ckks {
namespace {

/** Moduli spanning the supported range, including q just below 2^61. */
std::vector<u64>
test_moduli()
{
    std::vector<u64> moduli;
    for (int bits : {30, 45, 55, 61}) {
        moduli.push_back(generate_ntt_primes(bits, 1, 1 << 10)[0]);
    }
    return moduli;
}

/** Residues at the edges of every lazy range for modulus q. */
std::vector<u64>
adversarial_residues(u64 q)
{
    return {0, 1, q - 1, q, 2 * q - 1, 2 * q, 4 * q - 2, 4 * q - 1};
}

TEST(ModArithLazy, MulShoupLazyMatchesReference)
{
    std::mt19937_64 rng(11);
    for (u64 q_val : test_moduli()) {
        const Modulus q(q_val);
        std::uniform_int_distribution<u64> any(0, 4 * q_val - 1);
        std::uniform_int_distribution<u64> reduced(0, q_val - 1);
        std::vector<u64> lhs = adversarial_residues(q_val);
        for (int i = 0; i < 200; ++i) lhs.push_back(any(rng));
        for (u64 a : lhs) {
            const u64 w = reduced(rng);
            const u64 ws = shoup_precompute(w, q);
            const u64 lazy = mul_mod_shoup_lazy(a, w, ws, q);
            EXPECT_LT(lazy, 2 * q_val);
            // Same residue as the plain reference on the reduced input.
            EXPECT_EQ(lazy % q_val, mul_mod(q.reduce(a), w, q));
            // And normalizing recovers the canonical eager result.
            EXPECT_EQ(normalize_lazy(lazy, q),
                      mul_mod_shoup(q.reduce(a), w, ws, q));
        }
    }
}

TEST(ModArithLazy, AddSubLazyMatchReference)
{
    std::mt19937_64 rng(12);
    for (u64 q_val : test_moduli()) {
        const Modulus q(q_val);
        std::uniform_int_distribution<u64> any(0, 4 * q_val - 1);
        std::vector<u64> edge = adversarial_residues(q_val);
        for (int i = 0; i < 200; ++i) {
            edge.push_back(any(rng));
        }
        for (u64 a : edge) {
            for (u64 b : adversarial_residues(q_val)) {
                const u64 s = add_lazy(a, b, q);
                const u64 d = sub_lazy(a, b, q);
                EXPECT_LT(s, 4 * q_val);
                EXPECT_LT(d, 4 * q_val);
                EXPECT_EQ(s % q_val, add_mod(q.reduce(a), q.reduce(b), q));
                EXPECT_EQ(d % q_val, sub_mod(q.reduce(a), q.reduce(b), q));
            }
        }
    }
}

TEST(ModArithLazy, NormalizePass)
{
    std::mt19937_64 rng(13);
    for (u64 q_val : test_moduli()) {
        const Modulus q(q_val);
        std::uniform_int_distribution<u64> any(0, 4 * q_val - 1);
        std::vector<u64> vals = adversarial_residues(q_val);
        for (int i = 0; i < 500; ++i) vals.push_back(any(rng));
        std::vector<u64> expected(vals.size());
        for (std::size_t i = 0; i < vals.size(); ++i) {
            expected[i] = vals[i] % q_val;
        }
        normalize_lazy(vals.data(), vals.size(), q);
        EXPECT_EQ(vals, expected);
    }
}

TEST(ModArithLazy, ModulusRejectsLazyOverflowRange)
{
    // The [0, 4q) arithmetic needs q < 2^61; anything at or above must be
    // rejected at construction (the old bound was 2^62).
    EXPECT_THROW(Modulus(u64(1) << 61), Error);
    EXPECT_THROW(Modulus((u64(1) << 61) + 1), Error);
    EXPECT_NO_THROW(Modulus((u64(1) << 61) - 1));
}

/** The eager pre-lazy NTT kernels, kept verbatim as the reference. */
void
reference_forward(const NttTables& t, const std::vector<u64>& roots,
                  const std::vector<u64>& roots_shoup, u64* a)
{
    const Modulus& q = t.modulus();
    const u64 n = t.degree();
    u64 span = n;
    for (u64 m = 1; m < n; m <<= 1) {
        span >>= 1;
        for (u64 i = 0; i < m; ++i) {
            const u64 w = roots[m + i];
            const u64 ws = roots_shoup[m + i];
            u64* x = a + 2 * i * span;
            u64* y = x + span;
            for (u64 j = 0; j < span; ++j) {
                const u64 u = x[j];
                const u64 v = mul_mod_shoup(y[j], w, ws, q);
                x[j] = add_mod(u, v, q);
                y[j] = sub_mod(u, v, q);
            }
        }
    }
}

TEST(ModArithLazy, HarveyNttBitIdenticalToEagerReference)
{
    for (u64 n : {u64(8), u64(256), u64(2048)}) {
        const Modulus q(generate_ntt_primes(59, 1, n)[0]);
        const NttTables tables(n, q);

        // Rebuild the twiddle tables exactly as NttTables does.
        const u64 psi = find_primitive_root(n, q);
        std::vector<u64> roots(n), roots_shoup(n);
        u64 power = 1;
        const int log_n = log2_exact(n);
        for (u64 i = 0; i < n; ++i) {
            const u32 rev = reverse_bits(static_cast<u32>(i), log_n);
            roots[rev] = power;
            roots_shoup[rev] = shoup_precompute(power, q);
            power = mul_mod(power, psi, q);
        }

        std::mt19937_64 rng(100 + n);
        std::uniform_int_distribution<u64> dist(0, q.value() - 1);
        std::vector<u64> a(n);
        for (u64& x : a) x = dist(rng);

        std::vector<u64> lazy = a;
        std::vector<u64> eager = a;
        tables.forward(lazy.data());
        reference_forward(tables, roots, roots_shoup, eager.data());
        EXPECT_EQ(lazy, eager) << "forward NTT diverged at n=" << n;

        // Inverse: the lazy kernel (with the fused 1/N last stage) must
        // invert the forward transform exactly.
        tables.inverse(lazy.data());
        EXPECT_EQ(lazy, a) << "inverse NTT roundtrip failed at n=" << n;
    }
}

TEST(ModArithLazy, InnerProductMatchesPerTermReference)
{
    CkksParams params = CkksParams::toy();
    const Context ctx(params);
    Encoder enc(ctx);
    KeyGenerator keygen(ctx, 7);
    const PublicKey pk = keygen.make_public_key();
    const KswitchKey relin = keygen.make_relin_key();
    Encryptor encryptor(ctx, pk);
    const KeySwitcher switcher(ctx);

    const int level = ctx.max_level();
    const Plaintext pt = enc.encode(
        std::vector<double>(ctx.slot_count(), 0.25), level, ctx.scale());
    const Ciphertext ct = encryptor.encrypt(pt);
    const std::vector<RnsPoly> digits = switcher.decompose(ct.c1);

    // Start from a nonzero carried-in accumulator (the double-hoisting
    // case) to cover the partial-sum path.
    RnsPoly acc0(ctx, level, /*extended=*/true, /*ntt_form=*/true);
    RnsPoly acc1(ctx, level, /*extended=*/true, /*ntt_form=*/true);
    switcher.inner_product(digits, relin, &acc0, &acc1);
    RnsPoly ref0 = acc0;
    RnsPoly ref1 = acc1;
    switcher.inner_product(digits, relin, &acc0, &acc1);

    // Per-term mul_mod + add_mod reference on top of the first result.
    const u64 n = ctx.degree();
    for (int t = 0; t < ref0.num_limbs(); ++t) {
        const int key_t = ref0.limb_global_index(t);
        const Modulus& q = ref0.limb_modulus(t);
        u64* o0 = ref0.limb(t);
        u64* o1 = ref1.limb(t);
        for (std::size_t d = 0; d < digits.size(); ++d) {
            const u64* x = digits[d].limb(t);
            const u64* b = relin.b[d].limb(key_t);
            const u64* a = relin.a[d].limb(key_t);
            for (u64 j = 0; j < n; ++j) {
                o0[j] = add_mod(o0[j], mul_mod(x[j], b[j], q), q);
                o1[j] = add_mod(o1[j], mul_mod(x[j], a[j], q), q);
            }
        }
    }
    for (int t = 0; t < ref0.num_limbs(); ++t) {
        for (u64 j = 0; j < n; ++j) {
            ASSERT_EQ(acc0.limb(t)[j], ref0.limb(t)[j])
                << "acc0 limb " << t << " coeff " << j;
            ASSERT_EQ(acc1.limb(t)[j], ref1.limb(t)[j])
                << "acc1 limb " << t << " coeff " << j;
        }
    }
}

/** Flattens a ciphertext's raw RNS words for exact comparison. */
std::vector<u64>
raw_words(const Ciphertext& ct)
{
    std::vector<u64> words;
    for (const RnsPoly* p : {&ct.c0, &ct.c1}) {
        for (int i = 0; i < p->num_limbs(); ++i) {
            words.insert(words.end(), p->limb(i),
                         p->limb(i) + p->degree());
        }
    }
    return words;
}

TEST(ModArithLazy, KernelsBitIdenticalAcrossThreadCounts)
{
    CkksParams params = CkksParams::toy();
    const Context ctx(params);
    Encoder enc(ctx);
    KeyGenerator keygen(ctx, 7);
    const PublicKey pk = keygen.make_public_key();
    GaloisKeys galois =
        keygen.make_galois_keys(std::vector<int>{1, 2, 5, 8});
    Encryptor encryptor(ctx, pk);
    Evaluator eval(ctx, enc);
    eval.set_galois_keys(&galois);

    std::vector<double> msg(ctx.slot_count());
    for (std::size_t i = 0; i < msg.size(); ++i) {
        msg[i] = 0.001 * static_cast<double>(i % 97) - 0.05;
    }

    // Encrypt ONCE (encryption draws from a stateful RNG stream, so it is
    // deliberately outside the sweep), then push the same ciphertext
    // through every overhauled deterministic kernel at each thread count:
    // encode (parallel FFT + limb reduction), NTT, rotation accumulation
    // with per-thread partial accumulators (4 giant steps), and the fused
    // key-switch inner product underneath each rotation.
    const int level = ctx.max_level();
    const Ciphertext ct =
        encryptor.encrypt(enc.encode(msg, level, ctx.scale()));

    auto run_pipeline = [&]() {
        const Plaintext pt = enc.encode(msg, level, ctx.scale());
        Ciphertext sum = ct;
        eval.add_plain_inplace(sum, pt);
        auto acc = eval.make_accumulator(level, sum.scale);
        for (int step : {1, 2, 5, 8}) {
            eval.accumulate_rotation(acc, sum, step);
        }
        return eval.finalize_accumulator(acc);
    };

    std::vector<u64> reference;
    for (int threads : {1, 2, 4}) {
        const core::ScopedPoolOverride scoped(threads);
        const std::vector<u64> words = raw_words(run_pipeline());
        if (threads == 1) {
            reference = words;
        } else {
            ASSERT_EQ(words, reference)
                << "pipeline diverged at " << threads << " threads";
        }
    }
}

}  // namespace
}  // namespace orion::ckks
