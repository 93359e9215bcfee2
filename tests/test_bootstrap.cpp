/**
 * @file
 * Bootstrap tests: the real public-key CoeffToSlot -> EvalMod ->
 * SlotToCoeff circuit on a bootstrap-capable parameter point
 * (CkksParams::bootstrap_toy, l_boot = 13 — the paper's Table-1 shape),
 * evaluated under Galois/relinearization keys only. Includes the
 * >= 15-bit mean-precision assertion and 1/2/4-thread bit identity.
 */

#include <gtest/gtest.h>

#include <complex>

#include "src/core/telemetry.h"
#include "src/core/thread_pool.h"
#include "tests/test_util.h"

namespace orion::test {
namespace {

using ckks::Ciphertext;

// ---------------------------------------------------------------------
// Shared special-FFT stage machinery
// ---------------------------------------------------------------------

std::vector<std::complex<double>>
random_complex(u64 n, u64 seed)
{
    const std::vector<double> re = random_vector(n, 1.0, seed);
    const std::vector<double> im = random_vector(n, 1.0, seed + 1);
    std::vector<std::complex<double>> out(n);
    for (u64 i = 0; i < n; ++i) out[i] = {re[i], im[i]};
    return out;
}

void
bit_reverse_vec(std::vector<std::complex<double>>& v)
{
    const int bits = log2_exact(v.size());
    for (u64 i = 0; i < v.size(); ++i) {
        const u64 j = reverse_bits(static_cast<u32>(i), bits);
        if (i < j) std::swap(v[i], v[j]);
    }
}

TEST(SpecialFftStages, ForwardStageMatricesReproduceTheTransform)
{
    // FFT = (forward stage product) o bit_reverse: the matrices the
    // bootstrap encodes must be exactly the butterflies the encoder runs.
    const u64 degree = 64;
    const ckks::SpecialFft fft(degree);
    std::vector<std::complex<double>> x = random_complex(degree / 2, 11);

    std::vector<std::complex<double>> via_matrices = x;
    bit_reverse_vec(via_matrices);
    for (int s = 0; s < fft.num_stages(); ++s) {
        via_matrices = fft.forward_stage_matrix(s).apply(via_matrices);
    }
    std::vector<std::complex<double>> direct = x;
    fft.forward(direct.data());
    for (u64 i = 0; i < direct.size(); ++i) {
        EXPECT_NEAR(std::abs(direct[i] - via_matrices[i]), 0.0, 1e-9);
    }
}

TEST(SpecialFftStages, InverseStageMatricesInvertTheForward)
{
    // (inverse stage product) o FFT = n * bit_reverse — the identity the
    // CoeffToSlot/SlotToCoeff cancellation rests on.
    const u64 degree = 64;
    const u64 n = degree / 2;
    const ckks::SpecialFft fft(degree);
    const std::vector<std::complex<double>> x = random_complex(n, 13);

    std::vector<std::complex<double>> y = x;
    fft.forward(y.data());
    for (int s = 0; s < fft.num_stages(); ++s) {
        y = fft.inverse_stage_matrix(s).apply(y);
    }
    std::vector<std::complex<double>> expect = x;
    bit_reverse_vec(expect);
    for (u64 i = 0; i < n; ++i) {
        EXPECT_NEAR(std::abs(y[i] - static_cast<double>(n) * expect[i]),
                    0.0, 1e-8);
    }
}

TEST(SpecialFftStages, CollapsedPlanStagesMatchSingleStages)
{
    // Collapsing stages into per-level products must not change the map.
    ckks::CkksParams params = ckks::CkksParams::bootstrap_toy();
    params.poly_degree = 64;
    const ckks::BootstrapPlan plan = ckks::BootstrapPlan::build(params);
    const ckks::SpecialFft fft(params.poly_degree);
    const u64 n = params.poly_degree / 2;
    const std::vector<std::complex<double>> x = random_complex(n, 17);

    std::vector<std::complex<double>> via_plan = x;
    for (const ckks::ComplexDiagMatrix& m : plan.cts_stages) {
        via_plan = m.apply(via_plan);
    }
    std::vector<std::complex<double>> via_stages = x;
    for (int s = 0; s < fft.num_stages(); ++s) {
        via_stages = fft.inverse_stage_matrix(s).apply(via_stages);
    }
    for (u64 i = 0; i < n; ++i) {
        EXPECT_NEAR(std::abs(via_plan[i] - via_stages[i]), 0.0, 1e-8);
    }
}

// ---------------------------------------------------------------------
// The real public-key bootstrap circuit
// ---------------------------------------------------------------------

/**
 * A bootstrap-capable environment: 16-prime chain, sparse secret, and a
 * Galois bundle holding exactly the circuit's level-pruned requests.
 * Built once (keygen at these levels is the expensive part).
 */
struct BootEnv {
    ckks::CkksParams params;
    ckks::Context ctx;
    ckks::Encoder encoder;
    ckks::KeyGenerator keygen;
    ckks::PublicKey pk;
    ckks::KswitchKey relin;
    ckks::BootstrapCircuit boot;
    ckks::GaloisKeys galois;
    ckks::Encryptor encryptor;
    ckks::Decryptor decryptor;
    ckks::Evaluator eval;

    static constexpr int kLeff = 3;

    BootEnv()
        : params(ckks::CkksParams::bootstrap_toy(kLeff)), ctx(params),
          encoder(ctx), keygen(ctx, /*seed=*/7),
          pk(keygen.make_public_key()), relin(keygen.make_relin_key()),
          boot(ctx, encoder, ckks::BootstrapPlan::cached(params), kLeff),
          galois(make_circuit_galois(keygen, boot)), encryptor(ctx, pk),
          decryptor(ctx, keygen.secret_key()), eval(ctx, encoder)
    {
        eval.set_relin_key(&relin);
        eval.set_galois_keys(&galois);
    }

    static ckks::GaloisKeys
    make_circuit_galois(ckks::KeyGenerator& kg,
                        const ckks::BootstrapCircuit& b)
    {
        const std::vector<ckks::GaloisKeyRequest> requests =
            b.plan().galois_requests(b.l_eff());
        return kg.make_galois_keys(
            std::span<const ckks::GaloisKeyRequest>(requests),
            /*include_conjugation=*/true,
            b.plan().conjugation_level(b.l_eff()));
    }

    static BootEnv&
    shared()
    {
        static BootEnv env;
        return env;
    }

    Ciphertext
    encrypt_at(const std::vector<double>& values, int level)
    {
        return encryptor.encrypt(
            encoder.encode(values, level, ctx.scale()));
    }

    std::vector<double>
    decrypt(const Ciphertext& ct)
    {
        return encoder.decode(decryptor.decrypt(ct));
    }
};

double
mean_abs_diff(const std::vector<double>& a, const std::vector<double>& b)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sum += std::abs(a[i] - b[i]);
    }
    return sum / static_cast<double>(a.size());
}

TEST(Bootstrap, PlanShapeMatchesThePaper)
{
    BootEnv& env = BootEnv::shared();
    const ckks::BootstrapPlan& plan = env.boot.plan();
    // l_boot = 2 (CtS) + EvalMod + 2 (StC); paper Table 1 reports 13-15.
    EXPECT_EQ(plan.depth, env.boot.l_boot());
    EXPECT_GE(plan.depth, 12);
    EXPECT_LE(plan.depth, 15);
    EXPECT_EQ(plan.params.cts_levels, 2);
    EXPECT_EQ(plan.params.stc_levels, 2);
    EXPECT_GE(plan.eval_degree, 20);
    // The circuit must fit the chain above l_eff.
    EXPECT_LE(BootEnv::kLeff + plan.depth, env.ctx.max_level());
}

TEST(Bootstrap, PublicKeyRoundTripRaisesLevelWithin15Bits)
{
    BootEnv& env = BootEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 1.0, 21);
    const Ciphertext ct = env.encrypt_at(a, 0);

    const Ciphertext out = env.boot.bootstrap(env.eval, ct);
    EXPECT_EQ(out.level(), BootEnv::kLeff);
    EXPECT_DOUBLE_EQ(out.scale, env.ctx.scale());

    // >= 15 bits of mean slot precision across the full CtS -> EvalMod ->
    // StC round trip (the ISSUE's acceptance bar), and it must not be a
    // perfect identity (a real bootstrap adds approximation noise).
    const std::vector<double> got = env.decrypt(out);
    const double mean_err = mean_abs_diff(got, a);
    EXPECT_GT(mean_err, 0.0);
    const double precision_bits = -std::log2(mean_err);
    EXPECT_GE(precision_bits, 15.0)
        << "mean slot error " << mean_err << " (" << precision_bits
        << " bits)";
}

TEST(Bootstrap, SupportsFurtherComputation)
{
    BootEnv& env = BootEnv::shared();
    const u64 n = env.ctx.slot_count();
    const std::vector<double> a = random_vector(n, 0.9, 23);
    Ciphertext ct = env.encrypt_at(a, 0);
    ct = env.boot.bootstrap(env.eval, ct);
    ct = env.eval.square(ct);
    env.eval.rescale_inplace(ct);
    const std::vector<double> out = env.decrypt(ct);
    for (u64 i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] * a[i], 1e-3);
}

TEST(Bootstrap, AcceptsHigherLevelInputsAndCountsOps)
{
    BootEnv& env = BootEnv::shared();
    const std::vector<double> a =
        random_vector(env.ctx.slot_count(), 1.0, 25);
    const Ciphertext ct = env.encrypt_at(a, 2);
    // The stage histograms are the only record of the time split.
    telemetry::Registry& reg = telemetry::Registry::global();
    const char* stages[] = {"boot.cts.seconds", "boot.eval_mod.seconds",
                            "boot.stc.seconds"};
    std::vector<std::pair<u64, double>> before;
    for (const char* h : stages) {
        before.emplace_back(reg.histogram(h).count(),
                            reg.histogram(h).sum());
    }
    env.ctx.counters().reset();
    const Ciphertext out = env.boot.bootstrap(env.eval, ct);
    EXPECT_EQ(env.ctx.counters().bootstrap, 1u);
    EXPECT_EQ(out.level(), BootEnv::kLeff);
    EXPECT_LT(mean_abs_diff(env.decrypt(out), a), 1e-4);
    // The split must attribute time to all three homomorphic stages.
    for (std::size_t i = 0; i < before.size(); ++i) {
        const telemetry::Histogram& h = reg.histogram(stages[i]);
        EXPECT_EQ(h.count(), before[i].first + 1) << stages[i];
        EXPECT_GT(h.sum(), before[i].second) << stages[i];
    }
}

bool
polys_equal(const ckks::RnsPoly& a, const ckks::RnsPoly& b)
{
    if (a.level() != b.level() || a.num_limbs() != b.num_limbs()) {
        return false;
    }
    const u64 n = a.degree();
    for (int i = 0; i < a.num_limbs(); ++i) {
        const u64* la = a.limb(i);
        const u64* lb = b.limb(i);
        for (u64 j = 0; j < n; ++j) {
            if (la[j] != lb[j]) return false;
        }
    }
    return true;
}

TEST(Bootstrap, BitIdenticalAcrossThreadCounts)
{
    BootEnv& env = BootEnv::shared();
    const std::vector<double> a =
        random_vector(env.ctx.slot_count(), 1.0, 27);
    const Ciphertext ct = env.encrypt_at(a, 0);

    std::vector<Ciphertext> outs;
    for (int threads : {1, 2, 4}) {
        core::ScopedPoolOverride scoped(threads);
        outs.push_back(env.boot.bootstrap(env.eval, ct));
    }
    for (std::size_t i = 1; i < outs.size(); ++i) {
        EXPECT_TRUE(polys_equal(outs[0].c0, outs[i].c0))
            << "c0 differs at thread variant " << i;
        EXPECT_TRUE(polys_equal(outs[0].c1, outs[i].c1))
            << "c1 differs at thread variant " << i;
        EXPECT_EQ(outs[0].scale, outs[i].scale);
    }
}

TEST(Bootstrap, ComplexStageMatrixMatchesCleartextMatvec)
{
    // One collapsed CoeffToSlot stage applied on its own: the encoded
    // complex matrix (with a non-unit pre-factor folded in) must agree
    // with the cleartext complex matvec, byte-identically at 1 and 4
    // threads.
    BootEnv& env = BootEnv::shared();
    const ckks::BootstrapPlan& plan = env.boot.plan();
    const ckks::ComplexDiagMatrix& m = plan.cts_stages.front();
    const int level = env.boot.top_level();
    const double pre_factor = 0.375;
    const double scale = static_cast<double>(env.ctx.q(level).value());
    const std::vector<std::complex<double>> x =
        random_complex(env.ctx.slot_count(), 29);
    const Ciphertext ct = env.encryptor.encrypt(
        env.encoder.encode_complex(x, level, env.ctx.scale()));

    std::vector<Ciphertext> outs;
    for (int threads : {1, 4}) {
        core::ScopedPoolOverride scoped(threads);
        const lin::HeBlockedMatrix stage(env.ctx, env.encoder, m,
                                         plan.cts_bsgs.front(), level,
                                         scale, pre_factor);
        EXPECT_EQ(stage.plan().rotation_count(),
                  plan.cts_bsgs.front().rotation_count());
        outs.push_back(std::move(stage.apply(env.eval, {&ct, 1}).front()));
    }
    EXPECT_TRUE(polys_equal(outs[0].c0, outs[1].c0));
    EXPECT_TRUE(polys_equal(outs[0].c1, outs[1].c1));
    EXPECT_EQ(outs[0].level(), level - 1);
    EXPECT_DOUBLE_EQ(outs[0].scale, env.ctx.scale());

    const std::vector<std::complex<double>> expected = m.apply(x);
    const std::vector<std::complex<double>> got =
        env.encoder.decode_complex(env.decryptor.decrypt(outs[0]));
    double max_ref = 0.0, max_err = 0.0;
    for (u64 i = 0; i < expected.size(); ++i) {
        const std::complex<double> want = pre_factor * expected[i];
        max_ref = std::max(max_ref, std::abs(want));
        max_err = std::max(max_err, std::abs(got[i] - want));
    }
    EXPECT_GT(max_ref, 1.0);
    EXPECT_LT(max_err, 1e-8 * max_ref) << "max error " << max_err;
}

TEST(Bootstrap, RejectsChainsTooShortForTheCircuit)
{
    CkksEnv& toy = CkksEnv::shared();  // 6-level toy chain
    expect_throw_contains<Error>(
        [&] {
            ckks::BootstrapCircuit(toy.ctx, toy.encoder,
                                   ckks::BootstrapPlan::cached(
                                       toy.ctx.params()),
                                   /*l_eff=*/4);
        },
        "levels");
}

TEST(Bootstrap, RejectsMismatchedInputScale)
{
    BootEnv& env = BootEnv::shared();
    std::vector<double> a(env.ctx.slot_count(), 0.1);
    Ciphertext ct = env.encrypt_at(a, 0);
    ct.scale *= 1.01;  // outside the scales_match tolerance
    expect_throw_contains<Error>(
        [&] { (void)env.boot.bootstrap(env.eval, ct); },
        "input scale");
}

// ---------------------------------------------------------------------
// Level-pruned Galois keys
// ---------------------------------------------------------------------

TEST(PrunedGaloisKeys, RotationWorksAtOrBelowTheKeyLevel)
{
    BootEnv& env = BootEnv::shared();
    ckks::GaloisKeys pruned;
    pruned.keys.emplace(env.ctx.galois_elt(3),
                        env.keygen.make_galois_key(
                            env.ctx.galois_elt(3), /*level=*/5));
    ckks::Evaluator eval(env.ctx, env.encoder);
    eval.set_galois_keys(&pruned);

    const std::vector<double> a =
        random_vector(env.ctx.slot_count(), 1.0, 31);
    const Ciphertext ct = env.encrypt_at(a, 5);
    const Ciphertext rot = eval.rotate(ct, 3);
    const std::vector<double> got =
        env.encoder.decode(env.decryptor.decrypt(rot));
    for (u64 i = 0; i + 16 < env.ctx.slot_count(); ++i) {
        EXPECT_NEAR(got[i], a[(i + 3) % env.ctx.slot_count()], 1e-4);
    }

    // Above the key's level the switch must refuse, not corrupt.
    const Ciphertext high = env.encrypt_at(a, 9);
    expect_throw_contains<Error>([&] { (void)eval.rotate(high, 3); },
                                 "pruned to level");
}

TEST(PrunedGaloisKeys, PruningShrinksTheBundle)
{
    BootEnv& env = BootEnv::shared();
    const std::vector<int> steps = {1, 2, 5, 8};
    ckks::GaloisKeys full = env.keygen.make_galois_keys(
        std::span<const int>(steps), /*include_conjugation=*/false);
    std::vector<ckks::GaloisKeyRequest> requests;
    for (int s : steps) requests.push_back({s, /*level=*/4});
    ckks::GaloisKeys pruned = env.keygen.make_galois_keys(
        std::span<const ckks::GaloisKeyRequest>(requests),
        /*include_conjugation=*/false);

    EXPECT_EQ(full.keys.size(), pruned.keys.size());
    // level 4 of a 19-limb chain: roughly (5 + 3) / (17 + 3) the limbs,
    // and fewer digits on top. Just assert a substantive shrink.
    EXPECT_LT(pruned.byte_size(), full.byte_size() / 2);
}

TEST(PrunedGaloisKeys, RequestMergeKeepsTheHighestLevel)
{
    BootEnv& env = BootEnv::shared();
    const std::vector<ckks::GaloisKeyRequest> requests = {
        {1, 3}, {1, 7}, {1, 5}};
    ckks::GaloisKeys keys = env.keygen.make_galois_keys(
        std::span<const ckks::GaloisKeyRequest>(requests), false);
    ASSERT_EQ(keys.keys.size(), 1u);
    EXPECT_EQ(keys.keys.begin()->second.level(), 7);
    // A full-chain request (-1) dominates any pruned one.
    const std::vector<ckks::GaloisKeyRequest> with_full = {
        {2, 3}, {2, -1}};
    ckks::GaloisKeys keys2 = env.keygen.make_galois_keys(
        std::span<const ckks::GaloisKeyRequest>(with_full), false);
    EXPECT_EQ(keys2.keys.begin()->second.level(), env.ctx.max_level());
}

}  // namespace
}  // namespace orion::test
