#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace orion::test {
namespace {

using ckks::Plaintext;

TEST(Encoder, RealRoundTrip)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> m = random_vector(env.ctx.slot_count(), 1.0, 1);
    const Plaintext pt = env.encoder.encode(m, env.ctx.max_level(),
                                            env.ctx.scale());
    const std::vector<double> back = env.encoder.decode(pt);
    EXPECT_LT(max_abs_diff(m, back), 1e-6);
}

TEST(Encoder, ComplexRoundTrip)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    std::vector<std::complex<double>> m(n);
    const std::vector<double> re = random_vector(n, 1.0, 2);
    const std::vector<double> im = random_vector(n, 1.0, 3);
    for (u64 i = 0; i < n; ++i) m[i] = {re[i], im[i]};
    const Plaintext pt =
        env.encoder.encode_complex(m, env.ctx.max_level(), env.ctx.scale());
    const std::vector<std::complex<double>> back =
        env.encoder.decode_complex(pt);
    double err = 0;
    for (u64 i = 0; i < n; ++i) err = std::max(err, std::abs(back[i] - m[i]));
    EXPECT_LT(err, 1e-6);
}

TEST(Encoder, ShortInputIsZeroPadded)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> m = {1.0, -2.0, 3.0};
    const Plaintext pt = env.encoder.encode(m, 2, env.ctx.scale());
    const std::vector<double> back = env.encoder.decode(pt);
    EXPECT_NEAR(back[0], 1.0, 1e-6);
    EXPECT_NEAR(back[1], -2.0, 1e-6);
    EXPECT_NEAR(back[2], 3.0, 1e-6);
    for (std::size_t i = 3; i < back.size(); ++i) {
        EXPECT_NEAR(back[i], 0.0, 1e-6);
    }
}

TEST(Encoder, AdditiveHomomorphism)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 4);
    const std::vector<double> b = random_vector(n, 1.0, 5);
    Plaintext pa = env.encoder.encode(a, 3, env.ctx.scale());
    const Plaintext pb = env.encoder.encode(b, 3, env.ctx.scale());
    pa.poly.add_inplace(pb.poly);
    const std::vector<double> sum = env.encoder.decode(pa);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(sum[i], a[i] + b[i], 1e-5);
}

TEST(Encoder, PolynomialProductIsSlotwiseProduct)
{
    // Multiplying the underlying ring elements must multiply slots (the
    // SIMD property of Section 2.1).
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 6);
    const std::vector<double> b = random_vector(n, 1.0, 7);
    Plaintext pa = env.encoder.encode(a, 3, env.ctx.scale());
    const Plaintext pb = env.encoder.encode(b, 3, env.ctx.scale());
    pa.poly.mul_pointwise_inplace(pb.poly);
    pa.scale *= pb.scale;
    const std::vector<double> prod = env.encoder.decode(pa);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(prod[i], a[i] * b[i], 1e-4);
}

TEST(Encoder, GaloisElementRotatesSlots)
{
    // The automorphism X -> X^{5^k} must rotate slots by k (Section 2.5.3):
    // slot i of the result holds slot i+k of the input.
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 8);
    for (int step : {1, 3, 7}) {
        Plaintext pa = env.encoder.encode(a, 2, env.ctx.scale());
        pa.poly = pa.poly.galois(env.ctx.galois_elt(step));
        const std::vector<double> rot = env.encoder.decode(pa);
        for (u64 i = 0; i < n; ++i) {
            EXPECT_NEAR(rot[i], a[(i + static_cast<u64>(step)) % n], 1e-5)
                << "step " << step << " slot " << i;
        }
    }
}

TEST(Encoder, ConjugationElementConjugatesSlots)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.slot_count();
    std::vector<std::complex<double>> m(n);
    for (u64 i = 0; i < n; ++i) {
        m[i] = {std::sin(0.1 * static_cast<double>(i)),
                std::cos(0.3 * static_cast<double>(i))};
    }
    Plaintext pt = env.encoder.encode_complex(m, 2, env.ctx.scale());
    pt.poly = pt.poly.galois(env.ctx.galois_elt_conj());
    const std::vector<std::complex<double>> back =
        env.encoder.decode_complex(pt);
    double err = 0;
    for (u64 i = 0; i < n; ++i) {
        err = std::max(err, std::abs(back[i] - std::conj(m[i])));
    }
    EXPECT_LT(err, 1e-5);
}

TEST(Encoder, GaloisNttMatchesCoeffForm)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 9);
    const Plaintext pt = env.encoder.encode(a, 3, env.ctx.scale());
    for (int step : {1, 5, -3}) {
        const u64 elt = env.ctx.galois_elt(step);
        const ckks::RnsPoly via_ntt = pt.poly.galois(elt);  // NTT path
        ckks::RnsPoly coeff = pt.poly;
        coeff.to_coeff();
        ckks::RnsPoly via_coeff = coeff.galois(elt);
        via_coeff.to_ntt();
        for (int i = 0; i < via_ntt.num_limbs(); ++i) {
            for (u64 j = 0; j < env.ctx.degree(); ++j) {
                ASSERT_EQ(via_ntt.limb(i)[j], via_coeff.limb(i)[j])
                    << "step " << step << " limb " << i << " coeff " << j;
            }
        }
    }
}

TEST(Encoder, ConstantEncodeMatchesVectorEncode)
{
    CkksEnv& env = CkksEnv::shared();
    const Plaintext fast = env.encoder.encode_constant(0.37, 2,
                                                       env.ctx.scale());
    const std::vector<double> decoded = env.encoder.decode(fast);
    for (double v : decoded) EXPECT_NEAR(v, 0.37, 1e-6);
}

TEST(Encoder, ConstantEncodeMatchesCoefficientFormReference)
{
    // The reference is the coefficient-form construction: the constant in
    // coefficient 0 of every limb, then a forward NTT. encode_constant
    // writes the NTT form directly; the residues must agree exactly.
    CkksEnv& env = CkksEnv::shared();
    const u64 n = env.ctx.degree();
    for (const double value : {0.0, 1.0, -1.0, 0.37, -2.5e-3, 123.456}) {
        for (const double scale :
             {env.ctx.scale(), static_cast<double>(env.ctx.q(2).value()),
              std::ldexp(1.0, 70)}) {
            for (int level = 0; level <= env.ctx.max_level(); ++level) {
                const Plaintext got =
                    env.encoder.encode_constant(value, level, scale);
                ckks::RnsPoly want(env.ctx, level, /*extended=*/false,
                                   /*ntt_form=*/false);
                const long double x = static_cast<long double>(value) *
                                      static_cast<long double>(scale);
                // No value here lands on a half, so any rounding agrees.
                const i128 c = static_cast<i128>(std::floor(x + 0.5L));
                for (int i = 0; i < want.num_limbs(); ++i) {
                    want.limb(i)[0] =
                        ckks::reduce_signed_128(c, want.limb_modulus(i));
                }
                want.to_ntt();
                ASSERT_TRUE(got.poly.is_ntt());
                EXPECT_EQ(got.scale, scale);
                ASSERT_EQ(got.poly.num_limbs(), want.num_limbs());
                for (int i = 0; i < want.num_limbs(); ++i) {
                    EXPECT_TRUE(std::equal(got.poly.limb(i),
                                           got.poly.limb(i) + n,
                                           want.limb(i)))
                        << "value " << value << " scale " << scale
                        << " level " << level << " limb " << i;
                }
            }
        }
    }
}

TEST(Encoder, EncodeAtPrimeScale)
{
    // The errorless scale trick encodes weights at scale q_j; the encoder
    // must round-trip at non-power-of-two scales too.
    CkksEnv& env = CkksEnv::shared();
    const double qj = static_cast<double>(env.ctx.q(2).value());
    const std::vector<double> a = random_vector(env.ctx.slot_count(), 1.0, 10);
    const Plaintext pt = env.encoder.encode(a, 3, qj);
    const std::vector<double> back = env.encoder.decode(pt);
    EXPECT_LT(max_abs_diff(a, back), 1e-6);
}

TEST(Encoder, RejectsOversizedInput)
{
    CkksEnv& env = CkksEnv::shared();
    const std::vector<double> big(env.ctx.slot_count() + 1, 1.0);
    EXPECT_THROW(env.encoder.encode(big, 2, env.ctx.scale()), Error);
}

}  // namespace
}  // namespace orion::test
