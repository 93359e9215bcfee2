#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <utility>

#include "src/approx/approx.h"
#include "tests/test_util.h"

namespace orion::test {
namespace {

using approx::ChebyshevPoly;
using approx::CompositeSign;
using approx::HePolyEvaluator;

double
silu(double x)
{
    return x / (1.0 + std::exp(-x));
}

TEST(Chebyshev, FitReproducesPolynomials)
{
    // Interpolation at degree+1 nodes is exact for polynomials.
    auto f = [](double x) { return 3.0 * x * x * x - 0.25 * x + 0.125; };
    const ChebyshevPoly p = ChebyshevPoly::fit(f, -1.0, 1.0, 3);
    for (double x = -1.0; x <= 1.0; x += 0.05) {
        EXPECT_NEAR(p.eval(x), f(x), 1e-12);
    }
}

TEST(Chebyshev, ClenshawMatchesDirectBasis)
{
    const ChebyshevPoly p({0.5, -1.0, 0.25, 0.125}, -1.0, 1.0);
    for (double x = -1.0; x <= 1.0; x += 0.1) {
        const double t0 = 1.0;
        const double t1 = x;
        const double t2 = 2 * x * x - 1;
        const double t3 = 4 * x * x * x - 3 * x;
        EXPECT_NEAR(p.eval(x), 0.5 * t0 - t1 + 0.25 * t2 + 0.125 * t3, 1e-12);
    }
}

TEST(Chebyshev, NonCanonicalDomain)
{
    auto f = [](double x) { return std::exp(0.3 * x); };
    const ChebyshevPoly p = ChebyshevPoly::fit(f, -4.0, 4.0, 15);
    EXPECT_LT(p.max_error(f), 1e-8);
}

TEST(Chebyshev, SpanEvalIsBitIdenticalToScalar)
{
    // The simulator evaluates whole tensors through the span overload; it
    // must return exactly the scalar Clenshaw bits, on the canonical
    // domain and on a non-canonical [a, b], at every length's block tail.
    std::mt19937_64 rng(2027);
    std::uniform_real_distribution<double> coeff(-1.0, 1.0);
    for (const auto& [a, b] : {std::pair{-1.0, 1.0}, std::pair{-3.5, 0.75}}) {
        for (int d = 2; d <= 27; ++d) {
            std::vector<double> c(static_cast<std::size_t>(d) + 1);
            for (double& v : c) v = coeff(rng);
            const ChebyshevPoly p(c, a, b);
            const std::size_t n = 100 + 37 * static_cast<std::size_t>(d);
            std::uniform_real_distribution<double> in(a - 0.25, b + 0.25);
            std::vector<double> xs(n);
            for (double& x : xs) x = in(rng);
            xs[0] = a;
            xs[1] = b;
            xs[2] = -0.0;
            std::vector<double> want(n);
            for (std::size_t i = 0; i < n; ++i) want[i] = p.eval(xs[i]);
            std::vector<double> got(n);
            p.eval(xs, got);
            ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)),
                      0)
                << "degree " << d << " on [" << a << ", " << b << "]";
            p.eval(xs, xs);  // in place
            ASSERT_EQ(std::memcmp(xs.data(), want.data(), n * sizeof(double)),
                      0)
                << "in place, degree " << d;
        }
    }
}

TEST(Chebyshev, ErrorDecreasesWithDegree)
{
    // On a wide domain the SiLU fit converges slowly enough to observe.
    auto f = [](double x) { return silu(5.0 * x); };
    double prev = 1e9;
    for (int d : {7, 15, 31, 63}) {
        const ChebyshevPoly p = ChebyshevPoly::fit(f, -1.0, 1.0, d);
        const double err = p.max_error(f);
        EXPECT_LT(err, prev);
        prev = err;
    }
    EXPECT_LT(prev, 1e-6);
}

TEST(Remez, MatchesKnownMinimaxForAbs)
{
    // The degree-2 minimax error for |x| on [-1,1] is 1/8 (classic result).
    const approx::RemezResult r =
        approx::remez_fit([](double x) { return std::abs(x); }, -1, 1, 2);
    EXPECT_NEAR(r.minimax_error, 0.125, 5e-3);
}

TEST(Remez, BeatsInterpolationForSilu)
{
    const int degree = 15;
    const ChebyshevPoly interp =
        ChebyshevPoly::fit(silu, -3.0, 3.0, degree);
    const approx::RemezResult r = approx::remez_fit(silu, -3.0, 3.0, degree);
    EXPECT_LE(r.minimax_error, interp.max_error(silu) * 1.001);
}

TEST(Sign, StagePolyIsOddAndSquashing)
{
    const ChebyshevPoly f7 = approx::sign_stage_poly(7);
    EXPECT_EQ(f7.degree(), 15);
    for (double x = 0.05; x <= 1.0; x += 0.05) {
        EXPECT_NEAR(f7.eval(x), -f7.eval(-x), 1e-9);        // odd
        EXPECT_GT(f7.eval(x), x - 1e-12);                    // moves toward 1
        EXPECT_LE(std::abs(f7.eval(x)), 1.0 + 1e-9);         // stays bounded
    }
}

TEST(Sign, CompositeApproachesSign)
{
    // The paper's composite degrees [15, 15, 27]. Our rescale-eager
    // evaluator consumes 5 + 5 + 5 levels (the paper's lazy-rescale
    // accounting reports 4 + 4 + 5 = 13; see DESIGN.md, "Composite-sign
    // depth").
    const CompositeSign sign({15, 15, 27});
    EXPECT_EQ(sign.depth(), 15);
    for (double x : {0.05, 0.1, 0.3, 0.7, 1.0}) {
        EXPECT_NEAR(sign.eval(x), 1.0, 1e-2) << x;
        EXPECT_NEAR(sign.eval(-x), -1.0, 1e-2) << x;
    }
}

TEST(Sign, ReluStagesComputeRelu)
{
    const auto stages = approx::make_relu_stages({15, 15, 27});
    for (double x = -1.0; x <= 1.0; x += 0.04) {
        if (std::abs(x) < 0.04) continue;  // sign transition region
        const double want = x > 0 ? x : 0.0;
        EXPECT_NEAR(approx::composite_relu_reference(stages, x), want, 2e-2)
            << x;
    }
}

TEST(PolyDepth, BoundedByCeilLog2PlusOne)
{
    // Our exactly-scaled evaluator consumes at most ceil(log2(d+1)) + 1
    // levels (the +1 is the price of eager rescaling; the paper's
    // accounting assumes the fused variant). Build polynomials with
    // slowly-decaying coefficients so no pruning shrinks the degree.
    int prev = 0;
    for (int d : {3, 7, 15, 27, 31, 63, 127}) {
        std::vector<double> coeffs(static_cast<std::size_t>(d) + 1);
        for (int k = 0; k <= d; ++k) {
            coeffs[static_cast<std::size_t>(k)] = 1.0 / (k + 1.0);
        }
        const ChebyshevPoly p(coeffs);
        const int depth = HePolyEvaluator::poly_depth(p);
        const int ceil_log = static_cast<int>(std::ceil(std::log2(d + 1.0)));
        EXPECT_GE(depth, ceil_log) << "degree " << d;
        EXPECT_LE(depth, ceil_log + 1) << "degree " << d;
        EXPECT_GE(depth, prev) << "monotone in degree, degree " << d;
        prev = depth;
    }
    // ReLU [15,15,27]: 5 + 5 + 5 + 1 (paper's lazy-rescale count: 14).
    const auto relu = approx::make_relu_stages({15, 15, 27});
    EXPECT_EQ(HePolyEvaluator::relu_depth(relu), 16);
}

class HePolyEvalTest : public ::testing::TestWithParam<int> {};

TEST_P(HePolyEvalTest, EvaluatesChebyshevOnCiphertext)
{
    const int degree = GetParam();
    CkksEnv& env = CkksEnv::shared();
    auto f = [](double x) { return std::sin(2.0 * x) * 0.5; };
    const ChebyshevPoly p = ChebyshevPoly::fit(f, -1.0, 1.0, degree);
    const HePolyEvaluator he(env.eval);
    const int depth = HePolyEvaluator::poly_depth(p);
    ASSERT_LE(depth, env.ctx.max_level());

    const std::vector<double> x =
        random_vector(env.ctx.slot_count(), 1.0, 200 + degree);
    const ckks::Ciphertext ct = encrypt_vector(env, x, env.ctx.max_level());
    const ckks::Ciphertext out = he.evaluate(p, ct);

    EXPECT_EQ(out.level(), env.ctx.max_level() - depth);
    EXPECT_DOUBLE_EQ(out.scale, env.ctx.scale());  // errorless
    const std::vector<double> got = decrypt_vector(env, out);
    double err = 0;
    for (u64 i = 0; i < x.size(); ++i) {
        err = std::max(err, std::abs(got[i] - p.eval(x[i])));
    }
    EXPECT_LT(err, 1e-2) << "degree " << degree;
}

INSTANTIATE_TEST_SUITE_P(Degrees, HePolyEvalTest,
                         ::testing::Values(3, 7, 15, 27, 31));

TEST(HePolyEval, NonCanonicalDomainConsumesOneExtraLevel)
{
    CkksEnv& env = CkksEnv::shared();
    auto f = [](double x) { return 0.25 * x * x - 0.1; };
    const ChebyshevPoly p = ChebyshevPoly::fit(f, -2.0, 2.0, 7);
    const ChebyshevPoly p_canonical = ChebyshevPoly::fit(
        [&f](double u) { return f(2.0 * u); }, -1.0, 1.0, 7);
    const HePolyEvaluator he(env.eval);
    const int depth = HePolyEvaluator::poly_depth(p);
    EXPECT_EQ(depth, HePolyEvaluator::poly_depth(p_canonical) + 1);

    const std::vector<double> x =
        random_vector(env.ctx.slot_count(), 2.0, 300);
    const ckks::Ciphertext ct = encrypt_vector(env, x, env.ctx.max_level());
    const ckks::Ciphertext out = he.evaluate(p, ct);
    EXPECT_EQ(out.level(), env.ctx.max_level() - depth);
    const std::vector<double> got = decrypt_vector(env, out);
    double err = 0;
    for (u64 i = 0; i < x.size(); ++i) {
        err = std::max(err, std::abs(got[i] - f(x[i])));
    }
    EXPECT_LT(err, 1e-2);
}

TEST(HePolyEval, CustomTargetScale)
{
    CkksEnv& env = CkksEnv::shared();
    const ChebyshevPoly p = ChebyshevPoly::fit(
        [](double x) { return x * x; }, -1.0, 1.0, 2);
    const HePolyEvaluator he(env.eval);
    const double target = static_cast<double>(env.ctx.q(2).value());
    const ckks::Ciphertext ct =
        encrypt_vector(env, random_vector(env.ctx.slot_count(), 1.0, 301), 4);
    const ckks::Ciphertext out = he.evaluate(p, ct, target);
    EXPECT_DOUBLE_EQ(out.scale, target);
}

TEST(HePolyEval, SquareActivationViaComposite)
{
    CkksEnv& env = CkksEnv::shared();
    const HePolyEvaluator he(env.eval);
    const std::vector<double> x =
        random_vector(env.ctx.slot_count(), 1.0, 302);
    const ckks::Ciphertext ct = encrypt_vector(env, x, 3);
    const ChebyshevPoly sq = ChebyshevPoly::fit(
        [](double v) { return v * v; }, -1.0, 1.0, 2);
    const ckks::Ciphertext out = he.evaluate(sq, ct);
    const std::vector<double> got = decrypt_vector(env, out);
    double err = 0;
    for (u64 i = 0; i < x.size(); ++i) {
        err = std::max(err, std::abs(got[i] - x[i] * x[i]));
    }
    EXPECT_LT(err, 1e-2);
}

TEST(HePolyEval, CompositeReluUnderEncryption)
{
    // The flagship activation: composite minimax ReLU, depth 14 total.
    CkksEnv& env = CkksEnv::shared();
    // Toy params have few levels; use a small composite [3, 3]:
    // depth = 2 + 2 + 1 = 5, within the toy budget when starting at L.
    const auto stages = approx::make_relu_stages({3, 3});
    const HePolyEvaluator he(env.eval);
    const int depth = HePolyEvaluator::relu_depth(stages);
    EXPECT_EQ(depth, 5);
    ASSERT_GE(env.ctx.max_level(), depth);

    std::vector<double> x = random_vector(env.ctx.slot_count(), 1.0, 303);
    const ckks::Ciphertext ct = encrypt_vector(env, x, env.ctx.max_level());
    const ckks::Ciphertext out = he.evaluate_times_input(stages, ct);
    EXPECT_EQ(out.level(), env.ctx.max_level() - depth);
    EXPECT_DOUBLE_EQ(out.scale, env.ctx.scale());

    const std::vector<double> got = decrypt_vector(env, out);
    double err = 0;
    for (u64 i = 0; i < x.size(); ++i) {
        const double expect =
            approx::composite_relu_reference(stages, x[i]);
        err = std::max(err, std::abs(got[i] - expect));
    }
    EXPECT_LT(err, 5e-2);
}

TEST(HePolyEval, RejectsInsufficientLevels)
{
    CkksEnv& env = CkksEnv::shared();
    const ChebyshevPoly p = ChebyshevPoly::fit(
        [](double x) { return x * x * x; }, -1.0, 1.0, 3);
    const HePolyEvaluator he(env.eval);
    const ckks::Ciphertext ct =
        encrypt_vector(env, random_vector(env.ctx.slot_count(), 1.0, 304), 1);
    EXPECT_THROW(he.evaluate(p, ct), Error);
}

}  // namespace
}  // namespace orion::test
