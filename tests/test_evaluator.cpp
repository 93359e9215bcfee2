#include <gtest/gtest.h>

#include <random>

#include "src/ckks/kernels.h"
#include "src/core/thread_pool.h"
#include "tests/test_util.h"

namespace orion::test {
namespace {

using ckks::Ciphertext;
using ckks::Plaintext;

TEST(Encrypt, PublicKeyRoundTrip)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> m = random_vector(env.ctx.slot_count(), 1.0, 1);
    const Ciphertext ct = encrypt_vector(env, m, env.ctx.max_level());
    const std::vector<double> back = decrypt_vector(env, ct);
    EXPECT_LT(max_abs_diff(m, back), 1e-4);
}

TEST(Encrypt, SymmetricRoundTrip)
{
    CkksEnv& env = CkksEnv::shared();
    ckks::Encryptor sym(env.ctx, env.keygen.secret_key());
    const std::vector<double> m = random_vector(env.ctx.slot_count(), 1.0, 2);
    const Plaintext pt = env.encoder.encode(m, 3, env.ctx.scale());
    const Ciphertext ct = sym.encrypt(pt);
    const std::vector<double> back = decrypt_vector(env, ct);
    EXPECT_LT(max_abs_diff(m, back), 1e-5);
}

TEST(Encrypt, LowerLevelEncryption)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> m = random_vector(env.ctx.slot_count(), 1.0, 3);
    for (int level : {0, 1, 2}) {
        const Ciphertext ct = encrypt_vector(env, m, level);
        EXPECT_EQ(ct.level(), level);
        EXPECT_LT(max_abs_diff(m, decrypt_vector(env, ct)), 1e-4);
    }
}

TEST(Evaluator, AddAndSub)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 4);
    const std::vector<double> b = random_vector(n, 1.0, 5);
    Ciphertext ca = encrypt_vector(env, a, 3);
    const Ciphertext cb = encrypt_vector(env, b, 3);
    env.eval.add_inplace(ca, cb);
    std::vector<double> sum = decrypt_vector(env, ca);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(sum[i], a[i] + b[i], 1e-4);
    env.eval.sub_inplace(ca, cb);
    std::vector<double> diff = decrypt_vector(env, ca);
    EXPECT_LT(max_abs_diff(diff, a), 1e-4);
}

TEST(Evaluator, AddPlainAndConstant)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 6);
    const std::vector<double> b = random_vector(n, 1.0, 7);
    Ciphertext ca = encrypt_vector(env, a, 2);
    const Plaintext pb = env.encoder.encode(b, 2, ca.scale);
    env.eval.add_plain_inplace(ca, pb);
    env.eval.add_constant_inplace(ca, 0.25);
    const std::vector<double> out = decrypt_vector(env, ca);
    for (u64 i = 0; i < n; ++i) {
        EXPECT_NEAR(out[i], a[i] + b[i] + 0.25, 1e-4);
    }
}

TEST(Evaluator, MulPlainWithRescale)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 8);
    const std::vector<double> w = random_vector(n, 1.0, 9);
    Ciphertext ca = encrypt_vector(env, a, 3);
    const Plaintext pw = env.encoder.encode(w, 3, env.ctx.scale());
    env.eval.mul_plain_inplace(ca, pw);
    env.eval.rescale_inplace(ca);
    EXPECT_EQ(ca.level(), 2);
    const std::vector<double> out = decrypt_vector(env, ca);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] * w[i], 1e-4);
}

TEST(Evaluator, ErrorlessScaleTrick)
{
    // Encoding the weight at scale q_l makes the post-rescale scale exactly
    // Delta again (the paper's Figure 7 invariant).
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 10);
    const std::vector<double> w = random_vector(n, 1.0, 11);
    Ciphertext ca = encrypt_vector(env, a, 3);
    const double qj = static_cast<double>(env.ctx.q(3).value());
    const Plaintext pw = env.encoder.encode(w, 3, qj);
    env.eval.mul_plain_inplace(ca, pw);
    env.eval.rescale_inplace(ca);
    EXPECT_DOUBLE_EQ(ca.scale, env.ctx.scale());  // exact, not approximate
    const std::vector<double> out = decrypt_vector(env, ca);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] * w[i], 1e-4);
}

TEST(Evaluator, CiphertextMultiply)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 12);
    const std::vector<double> b = random_vector(n, 1.0, 13);
    const Ciphertext ca = encrypt_vector(env, a, 3);
    const Ciphertext cb = encrypt_vector(env, b, 3);
    Ciphertext cc = env.eval.mul(ca, cb);
    env.eval.rescale_inplace(cc);
    const std::vector<double> out = decrypt_vector(env, cc);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] * b[i], 1e-3);
}

TEST(Evaluator, SquareChain)
{
    // Consume several levels: ((a^2)^2) with rescaling after each square.
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 0.9, 14);
    Ciphertext ct = encrypt_vector(env, a, 4);
    ct = env.eval.square(ct);
    env.eval.rescale_inplace(ct);
    ct = env.eval.square(ct);
    env.eval.rescale_inplace(ct);
    EXPECT_EQ(ct.level(), 2);
    const std::vector<double> out = decrypt_vector(env, ct);
    for (u64 i = 0; i < n; ++i) {
        EXPECT_NEAR(out[i], std::pow(a[i], 4.0), 5e-3);
    }
}

TEST(Evaluator, RotationMatchesCleartext)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 15);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    for (int step : {1, 5, 16, -3}) {
        const Ciphertext rot = env.eval.rotate(ct, step);
        const std::vector<double> out = decrypt_vector(env, rot);
        for (u64 i = 0; i < n; ++i) {
            const u64 src =
                (i + static_cast<u64>(((step % static_cast<i64>(n)) +
                                       static_cast<i64>(n))) ) % n;
            ASSERT_NEAR(out[i], a[src], 1e-4) << "step " << step;
        }
    }
}

TEST(Evaluator, RotationByZeroIsIdentity)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 16);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    const Ciphertext rot = env.eval.rotate(ct, 0);
    EXPECT_EQ(max_abs_diff(decrypt_vector(env, rot),
                           decrypt_vector(env, ct)),
              0.0);
}

TEST(Evaluator, HoistedRotationMatchesPlainRotation)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 17);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    const ckks::Evaluator::Hoisted h = env.eval.hoist(ct);
    for (int step : {1, 4, 8, -1}) {
        const Ciphertext hr = env.eval.rotate_hoisted(h, step);
        const Ciphertext pr = env.eval.rotate(ct, step);
        EXPECT_LT(max_abs_diff(decrypt_vector(env, hr),
                               decrypt_vector(env, pr)),
                  1e-4)
            << "step " << step;
    }
}

TEST(Evaluator, RotationAccumulatorMatchesSumOfRotations)
{
    // The double-hoisting accumulator must equal sum_i Rot_{k_i}(ct_i).
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<int> steps = {0, 1, 5, 16, -3};
    std::vector<std::vector<double>> msgs;
    std::vector<Ciphertext> cts;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        msgs.push_back(random_vector(n, 1.0, 100 + i));
        cts.push_back(encrypt_vector(env, msgs.back(), 2));
    }

    auto acc = env.eval.make_accumulator(2, env.ctx.scale());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        env.eval.accumulate_rotation(acc, cts[i], steps[i]);
    }
    const Ciphertext combined = env.eval.finalize_accumulator(acc);

    Ciphertext expected = env.eval.rotate(cts[0], steps[0]);
    for (std::size_t i = 1; i < steps.size(); ++i) {
        env.eval.add_inplace(expected, env.eval.rotate(cts[i], steps[i]));
    }
    EXPECT_LT(max_abs_diff(decrypt_vector(env, combined),
                           decrypt_vector(env, expected)),
              1e-4);
}

TEST(Evaluator, Conjugate)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    std::vector<std::complex<double>> m(n);
    for (u64 i = 0; i < n; ++i) {
        m[i] = {0.3 * std::cos(static_cast<double>(i)),
                0.2 * std::sin(static_cast<double>(i))};
    }
    const Plaintext pt = env.encoder.encode_complex(m, 2, env.ctx.scale());
    ckks::Encryptor sym(env.ctx, env.keygen.secret_key());
    const Ciphertext ct = sym.encrypt(pt);
    const Ciphertext conj = env.eval.conjugate(ct);
    const std::vector<std::complex<double>> out =
        env.encoder.decode_complex(env.decryptor.decrypt(conj));
    double err = 0;
    for (u64 i = 0; i < n; ++i) {
        err = std::max(err, std::abs(out[i] - std::conj(m[i])));
    }
    EXPECT_LT(err, 1e-4);
}

TEST(Evaluator, DropToLevelPreservesMessage)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 18);
    Ciphertext ct = encrypt_vector(env, a, 5);
    env.eval.drop_to_level_inplace(ct, 1);
    EXPECT_EQ(ct.level(), 1);
    EXPECT_DOUBLE_EQ(ct.scale, env.ctx.scale());
    EXPECT_LT(max_abs_diff(decrypt_vector(env, ct), a), 1e-4);
}

TEST(Evaluator, MulAtLowLevelAfterDrop)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 19);
    Ciphertext ct = encrypt_vector(env, a, 5);
    env.eval.drop_to_level_inplace(ct, 2);
    Ciphertext sq = env.eval.square(ct);
    env.eval.rescale_inplace(sq);
    const std::vector<double> out = decrypt_vector(env, sq);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] * a[i], 1e-3);
}

TEST(Evaluator, MismatchedLevelsRejected)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 20);
    const Ciphertext c3 = encrypt_vector(env, a, 3);
    const Ciphertext c2 = encrypt_vector(env, a, 2);
    Ciphertext c3m = c3;
    EXPECT_THROW(env.eval.add_inplace(c3m, c2), Error);
}

TEST(Evaluator, MismatchedScalesRejected)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 21);
    Ciphertext c1 = encrypt_vector(env, a, 3);
    Ciphertext c2 = encrypt_vector(env, a, 3);
    c2.scale *= 2.0;
    EXPECT_THROW(env.eval.add_inplace(c1, c2), Error);
}

TEST(Evaluator, MissingGaloisKeyRejected)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 22);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    EXPECT_THROW(env.eval.rotate(ct, 123), Error);  // no key for step 123
}

TEST(Evaluator, HoistedRotationMatchesPlainRotationAllSharedSteps)
{
    // Full sweep: one hoisted decomposition must serve every step the
    // shared environment owns keys for, matching the un-hoisted rotation
    // both in the decrypted slots and in scale/level metadata.
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 24);
    const Ciphertext ct = encrypt_vector(env, a, 3);
    const ckks::Evaluator::Hoisted h = env.eval.hoist(ct);
    for (int step : kSharedSteps) {
        const Ciphertext hr = env.eval.rotate_hoisted(h, step);
        const Ciphertext pr = env.eval.rotate(ct, step);
        EXPECT_EQ(hr.level(), pr.level()) << "step " << step;
        EXPECT_EQ(hr.scale, pr.scale) << "step " << step;
        EXPECT_LT(max_abs_diff(decrypt_vector(env, hr),
                               decrypt_vector(env, pr)),
                  1e-4)
            << "step " << step;
        // And both match the cleartext rotation.
        std::vector<double> want(n);
        for (u64 i = 0; i < n; ++i) {
            const u64 src =
                (i + static_cast<u64>(((step % static_cast<i64>(n)) +
                                       static_cast<i64>(n))) ) % n;
            want[i] = a[src];
        }
        EXPECT_LT(max_abs_diff(decrypt_vector(env, hr), want), 1e-4)
            << "step " << step;
    }
}

TEST(Evaluator, HoistedRotationByZeroIsIdentity)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 25);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    const ckks::Evaluator::Hoisted h = env.eval.hoist(ct);
    const Ciphertext r = env.eval.rotate_hoisted(h, 0);
    EXPECT_LT(max_abs_diff(decrypt_vector(env, r), a), 1e-4);
    // Full-slot rotations are also trivial.
    const Ciphertext full = env.eval.rotate_hoisted(
        h, static_cast<int>(env.ctx.slot_count()));
    EXPECT_LT(max_abs_diff(decrypt_vector(env, full), a), 1e-4);
}

TEST(Evaluator, MissingGaloisKeyRejectedForHoistedRotation)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 26);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    const ckks::Evaluator::Hoisted h = env.eval.hoist(ct);
    EXPECT_THROW((void)env.eval.rotate_hoisted(h, 123), Error);
    EXPECT_THROW((void)env.eval.galois_key_for_step(123), Error);
    // A trivial step never needs a key, even when none would exist.
    EXPECT_NO_THROW((void)env.eval.rotate_hoisted(h, 0));
}

TEST(Evaluator, RotationsRejectedWhenNoGaloisKeysSet)
{
    // A fresh evaluator with no key registry must fail loudly on every
    // rotation entry point, not crash on a null lookup.
    CkksEnv& env = CkksEnv::shared();
    ckks::Evaluator bare(env.ctx, env.encoder);
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 27);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    EXPECT_THROW((void)bare.rotate(ct, 1), Error);
    EXPECT_THROW((void)bare.conjugate(ct), Error);
    const ckks::Evaluator::Hoisted h = bare.hoist(ct);
    EXPECT_THROW((void)bare.rotate_hoisted(h, 1), Error);
    auto acc = bare.make_accumulator(2, env.ctx.scale());
    EXPECT_THROW(bare.accumulate_rotation(acc, ct, 1), Error);
    // Step 0 accumulates without keys (it is a plain addition).
    EXPECT_NO_THROW(bare.accumulate_rotation(acc, ct, 0));
}

TEST(Evaluator, MissingGaloisKeyRejectedInAccumulator)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 28);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    auto acc = env.eval.make_accumulator(2, env.ctx.scale());
    EXPECT_THROW(env.eval.accumulate_rotation(acc, ct, 123), Error);
}

TEST(Evaluator, OpCountersTrackRotationsAndMults)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 23);
    const Ciphertext ct = encrypt_vector(env, a, 2);
    env.ctx.counters().reset();
    (void)env.eval.rotate(ct, 1);
    const auto h = env.eval.hoist(ct);
    (void)env.eval.rotate_hoisted(h, 2);
    (void)env.eval.mul(ct, ct);
    const auto& c = env.ctx.counters();
    EXPECT_EQ(c.hrot, 1u);
    EXPECT_EQ(c.hrot_hoisted, 1u);
    EXPECT_EQ(c.hmult, 1u);
    EXPECT_EQ(c.total_rotations(), 2u);
    EXPECT_EQ(c.keyswitch, 3u);
}

TEST(Evaluator, HoistedRotationAndRescaleNttCounts)
{
    // A hoisted rotation at level l runs two mod-downs, each one inverse
    // NTT per special prime plus one forward NTT per surviving limb:
    // 2 * (alpha + l + 1). A rescale runs l + 1 per polynomial.
    CkksEnv& env = CkksEnv::shared();
    const u64 alpha = static_cast<u64>(env.ctx.special_count());
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 24);
    for (int level = 1; level <= env.ctx.max_level(); ++level) {
        const u64 l = static_cast<u64>(level);
        Ciphertext ct = encrypt_vector(env, a, level);
        const auto h = env.eval.hoist(ct);
        env.ctx.counters().reset();
        (void)env.eval.rotate_hoisted(h, 2);
        EXPECT_EQ(env.ctx.counters().ntt, 2 * (alpha + l + 1))
            << "rotate_hoisted at level " << level;

        env.ctx.counters().reset();
        ckks::RnsPoly c0 = ct.c0;
        c0.rescale_drop_last();
        EXPECT_EQ(env.ctx.counters().ntt, l + 1) << "rescale at " << level;
        env.ctx.counters().reset();
        env.eval.rescale_inplace(ct);
        EXPECT_EQ(env.ctx.counters().ntt, 2 * (l + 1))
            << "rescale_inplace at level " << level;
    }
}

// ---------------------------------------------------------------------
// PMult-accumulate (mul_plain_sum) against the eager reference
// ---------------------------------------------------------------------

/**
 * 61-bit primes (the largest the lazy-reduction bounds admit), so q - 1
 * residues put every u128 partial sum of a 16-term slice at its ceiling.
 */
const ckks::Context&
wide_prime_context()
{
    static const ckks::Context ctx([] {
        ckks::CkksParams p;
        p.poly_degree = u64(1) << 10;
        p.log_scale = 61;
        p.first_prime_bits = 61;
        p.num_scale_primes = 2;
        p.special_prime_bits = 61;
        p.digit_size = 1;
        return p;
    }());
    return ctx;
}

/**
 * Uniform canonical residues, except that limb 0 and every fourth
 * coefficient of the other limbs are q - 1.
 */
ckks::RnsPoly
edge_poly(const ckks::Context& ctx, int level, std::mt19937_64& rng)
{
    ckks::RnsPoly p(ctx, level, /*extended=*/false, /*ntt_form=*/true);
    for (int i = 0; i < p.num_limbs(); ++i) {
        const u64 q = p.limb_modulus(i).value();
        std::uniform_int_distribution<u64> dist(0, q - 1);
        u64* limb = p.limb(i);
        for (u64 j = 0; j < ctx.degree(); ++j) {
            limb[j] = (i == 0 || j % 4 == 0) ? q - 1 : dist(rng);
        }
    }
    return p;
}

struct SumOperands {
    std::vector<Ciphertext> cts;
    std::vector<Plaintext> pts;
    std::vector<const Ciphertext*> ct_ptrs;
    std::vector<const Plaintext*> pt_ptrs;
};

SumOperands
make_sum_operands(const ckks::Context& ctx, std::size_t terms, int level,
                  u64 seed)
{
    std::mt19937_64 rng(seed);
    SumOperands ops;
    ops.cts.resize(terms);
    ops.pts.resize(terms);
    for (std::size_t t = 0; t < terms; ++t) {
        ops.cts[t].c0 = edge_poly(ctx, level, rng);
        ops.cts[t].c1 = edge_poly(ctx, level, rng);
        ops.cts[t].scale = ctx.scale();
        ops.pts[t].poly = edge_poly(ctx, level, rng);
        ops.pts[t].scale = 1024.0;
    }
    for (std::size_t t = 0; t < terms; ++t) {
        ops.ct_ptrs.push_back(&ops.cts[t]);
        ops.pt_ptrs.push_back(&ops.pts[t]);
    }
    return ops;
}

/** The eager loop mul_plain_sum replaced: one PMult and HAdd per term. */
Ciphertext
eager_sum(const ckks::Evaluator& eval, const SumOperands& ops)
{
    Ciphertext sum = eval.mul_plain(ops.cts[0], ops.pts[0]);
    for (std::size_t t = 1; t < ops.cts.size(); ++t) {
        eval.add_inplace(sum, eval.mul_plain(ops.cts[t], ops.pts[t]));
    }
    return sum;
}

bool
same_residues(const ckks::RnsPoly& a, const ckks::RnsPoly& b)
{
    if (a.num_limbs() != b.num_limbs() || a.is_ntt() != b.is_ntt()) {
        return false;
    }
    const std::size_t words =
        static_cast<std::size_t>(a.num_limbs()) * a.degree();
    return std::equal(a.limb(0), a.limb(0) + words, b.limb(0));
}

TEST(MulPlainSum, ByteIdenticalToEagerLoopAcrossIsasAndThreads)
{
    // 61-bit primes take every table's 64-bit products; the toy chain's
    // 30-41-bit primes take the IFMA table's 52-bit ones.
    namespace k = ckks::kernels;
    const IsaGuard guard;
    const ckks::Context& toy = CkksEnv::shared().ctx;
    for (const ckks::Context* ctx : {&wide_prime_context(), &toy}) {
        const ckks::Encoder encoder(*ctx);
        const ckks::Evaluator eval(*ctx, encoder);
        const int level = ctx->max_level();
        for (const std::size_t terms : {1, 2, 15, 16, 17, 32, 33, 64}) {
            const SumOperands ops =
                make_sum_operands(*ctx, terms, level, terms);
            k::set_isa(k::Isa::kScalar);
            const Ciphertext want = [&] {
                const core::ScopedPoolOverride serial(1);
                return eager_sum(eval, ops);
            }();
            for (const k::Isa isa : k::supported_isas()) {
                k::set_isa(isa);
                for (const int threads : {1, 2, 4}) {
                    const core::ScopedPoolOverride scoped(threads);
                    const Ciphertext got =
                        eval.mul_plain_sum(ops.ct_ptrs, ops.pt_ptrs);
                    EXPECT_TRUE(same_residues(got.c0, want.c0) &&
                                same_residues(got.c1, want.c1))
                        << ctx->q(0).bit_count() << "-bit q0, " << terms
                        << " terms, " << k::isa_name(isa) << ", " << threads
                        << " threads";
                    EXPECT_EQ(got.level(), want.level());
                    EXPECT_EQ(got.scale, want.scale);
                }
            }
        }
    }
}

TEST(MulPlainSum, CountsOnePmultPerTermAndOneHaddPerJoin)
{
    const ckks::Context& ctx = wide_prime_context();
    const ckks::Encoder encoder(ctx);
    const ckks::Evaluator eval(ctx, encoder);
    for (const std::size_t terms : {1, 17}) {
        const SumOperands ops = make_sum_operands(ctx, terms, 1, 3);
        ctx.counters().reset();
        (void)eval.mul_plain_sum(ops.ct_ptrs, ops.pt_ptrs);
        EXPECT_EQ(ctx.counters().pmult, terms);
        EXPECT_EQ(ctx.counters().hadd, terms - 1);
    }
}

TEST(MulPlainSum, RejectsMismatchedTermsNamingTheTerm)
{
    const ckks::Context& ctx = wide_prime_context();
    const ckks::Encoder encoder(ctx);
    const ckks::Evaluator eval(ctx, encoder);
    SumOperands ops = make_sum_operands(ctx, 6, 2, 5);

    ops.cts[4].c0.drop_to_level(1);
    ops.cts[4].c1.drop_to_level(1);
    expect_throw_contains<Error>(
        [&] { (void)eval.mul_plain_sum(ops.ct_ptrs, ops.pt_ptrs); },
        "level mismatch in mul_plain_sum term 4");

    ops = make_sum_operands(ctx, 6, 2, 5);
    ops.pts[2].poly.drop_to_level(1);
    expect_throw_contains<Error>(
        [&] { (void)eval.mul_plain_sum(ops.ct_ptrs, ops.pt_ptrs); },
        "level mismatch in mul_plain_sum term 2");

    ops = make_sum_operands(ctx, 6, 2, 5);
    ops.cts[3].scale *= 2.0;
    expect_throw_contains<Error>(
        [&] { (void)eval.mul_plain_sum(ops.ct_ptrs, ops.pt_ptrs); },
        "scale mismatch in mul_plain_sum term 3");

    ops.cts[3].scale /= 2.0;
    ops.pt_ptrs.pop_back();
    expect_throw_contains<Error>(
        [&] { (void)eval.mul_plain_sum(ops.ct_ptrs, ops.pt_ptrs); },
        "6 ciphertexts vs 5 plaintexts");
    expect_throw_contains<Error>(
        [&] { (void)eval.mul_plain_sum({}, {}); }, "at least one term");
}

}  // namespace
}  // namespace orion::test
