#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>

#include "src/linalg/linalg.h"
#include "tests/test_util.h"

namespace orion::test {
namespace {

using lin::BlockedMatrix;
using lin::BlockedPlan;
using lin::BsgsPlan;
using lin::DiagonalMatrix;

DiagonalMatrix
random_dense(u64 dim, u64 seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    DiagonalMatrix m(dim);
    for (u64 r = 0; r < dim; ++r) {
        for (u64 c = 0; c < dim; ++c) m.set(r, c, dist(rng));
    }
    return m;
}

std::vector<double>
dense_matvec(const DiagonalMatrix& m, const std::vector<double>& x)
{
    std::vector<double> y(m.dim(), 0.0);
    for (u64 r = 0; r < m.dim(); ++r) {
        for (u64 c = 0; c < m.dim(); ++c) y[r] += m.get(r, c) * x[c];
    }
    return y;
}

TEST(DiagonalMatrix, ApplyMatchesDenseMatvec)
{
    const u64 dim = 32;
    const DiagonalMatrix m = random_dense(dim, 1);
    const std::vector<double> x = random_vector(dim, 1.0, 2);
    EXPECT_LT(max_abs_diff(m.apply(x), dense_matvec(m, x)), 1e-12);
}

TEST(DiagonalMatrix, DiagonalExtraction)
{
    // Figure 2a: the 6x6 example; diag_k[i] = M[i, (i+k) mod 6].
    DiagonalMatrix m(6);
    for (u64 r = 0; r < 6; ++r) {
        for (u64 c = 0; c < 6; ++c) {
            m.set(r, c, static_cast<double>(10 * r + c));
        }
    }
    const std::vector<double>* d2 = m.diagonal(2);
    ASSERT_NE(d2, nullptr);
    for (u64 i = 0; i < 6; ++i) {
        EXPECT_EQ((*d2)[i], static_cast<double>(10 * i + (i + 2) % 6));
    }
}

TEST(DiagonalMatrix, SparseStoresOnlyNonzeroDiagonals)
{
    DiagonalMatrix m(64);
    for (u64 r = 0; r < 64; ++r) {
        m.set(r, (r + 3) % 64, 1.0);
        m.set(r, (r + 10) % 64, 2.0);
    }
    EXPECT_EQ(m.num_diagonals(), 2u);
    EXPECT_EQ(m.diagonal_indices(), (std::vector<u64>{3, 10}));
}

TEST(DiagonalMatrix, PruneDropsZeroedDiagonals)
{
    DiagonalMatrix m(8);
    m.set(0, 1, 5.0);
    m.set(0, 1, 0.0);
    EXPECT_EQ(m.num_diagonals(), 1u);
    m.prune();
    EXPECT_EQ(m.num_diagonals(), 0u);
}

TEST(BsgsPlan, DiagonalMethodWhenN1IsOne)
{
    // n1 = 1 degenerates to the plain diagonal method: one rotation per
    // nonzero diagonal (Figure 2a: n = 6 rotations minus the trivial one).
    const DiagonalMatrix m = random_dense(64, 3);
    const BsgsPlan plan = BsgsPlan::build(m, 1);
    EXPECT_EQ(plan.rotation_count(), 63u);  // rotation by 0 is free
    EXPECT_EQ(plan.pmult_count(), 64u);
}

TEST(BsgsPlan, BsgsReducesRotationsToSqrt)
{
    // Figure 2b: n1 + n2 rotations instead of n.
    const u64 dim = 64;
    const DiagonalMatrix m = random_dense(dim, 4);
    const BsgsPlan plan = BsgsPlan::build(m, 8);
    EXPECT_EQ(plan.n1, 8u);
    // 7 nontrivial baby steps + 7 nontrivial giant steps.
    EXPECT_EQ(plan.rotation_count(), 14u);
    const BsgsPlan best = BsgsPlan::build(m);  // automatic n1
    EXPECT_LE(best.rotation_count(), 14u);
}

TEST(BsgsPlan, PaperExampleFigure2)
{
    // The paper's Figure 2b: n = 6, n1 = 3, n2 = 2 with all diagonals
    // nonzero needs n1 + n2 = 5 rotations minus the two trivial ones = 3;
    // the figure counts rot0 among its "n1 = 3 rotations", so compare
    // nontrivial counts: babies {1, 2} and giants {3} -> 3 rotations.
    const DiagonalMatrix m = random_dense(6, 5);
    const BsgsPlan plan = BsgsPlan::build(m, 3);
    EXPECT_EQ(plan.baby_rotation_count(), 2u);
    EXPECT_EQ(plan.giant_rotation_count(), 1u);
}

TEST(BsgsPlan, SparseDiagonalsShrinkThePlan)
{
    DiagonalMatrix m(1024);
    for (u64 r = 0; r < 1024; ++r) {
        for (u64 k : {0ull, 1ull, 2ull, 32ull, 33ull, 34ull}) {
            m.set(r, (r + k) % 1024, 1.0);
        }
    }
    const BsgsPlan plan = BsgsPlan::build(m, 32);
    EXPECT_EQ(plan.baby_rotation_count(), 2u);   // babies {1, 2}
    EXPECT_EQ(plan.giant_rotation_count(), 1u);  // giants {32}
    EXPECT_EQ(plan.pmult_count(), 6u);
}

TEST(BsgsPlan, RequiredStepsCoverBabiesAndGiants)
{
    DiagonalMatrix m(256);
    for (u64 r = 0; r < 256; ++r) {
        m.set(r, (r + 5) % 256, 1.0);
        m.set(r, (r + 49) % 256, 1.0);
    }
    const BsgsPlan plan = BsgsPlan::build(m, 16);
    const std::vector<int> steps = plan.required_steps();
    // diag 5 -> baby 5 group 0; diag 49 -> baby 1 group 48.
    EXPECT_EQ(steps, (std::vector<int>{1, 5, 48}));
}

/**
 * The group-size search as it was before candidates were scored by
 * counting: build every candidate's full plan and keep the first one
 * with the fewest rotations.
 */
BsgsPlan
build_every_candidate(u64 dim, const std::vector<u64>& indices)
{
    std::set<u64> candidates = {1};
    for (u64 p = 2; p <= dim; p <<= 1) candidates.insert(p);
    const u64 root = static_cast<u64>(
        std::llround(std::sqrt(static_cast<double>(dim))));
    for (u64 c : {root / 2, root, root * 2}) {
        if (c >= 1 && c <= dim) candidates.insert(c);
    }
    const u64 d_root = static_cast<u64>(std::llround(std::sqrt(
        static_cast<double>(std::max<std::size_t>(indices.size(), 1)))));
    for (u64 c : {d_root, d_root * 2}) {
        if (c >= 1 && c <= dim) candidates.insert(c);
    }
    BsgsPlan best;
    u64 best_cost = ~u64(0);
    for (u64 c : candidates) {
        const BsgsPlan plan = BsgsPlan::build_from_indices(dim, indices, c);
        if (plan.rotation_count() < best_cost) {
            best_cost = plan.rotation_count();
            best = plan;
        }
    }
    return best;
}

TEST(BsgsPlan, CountedSearchMatchesBuildingEveryCandidate)
{
    std::mt19937_64 rng(4242);
    for (int trial = 0; trial < 300; ++trial) {
        const u64 dim = trial % 3 == 0
                            ? 1 + rng() % 3000
                            : u64(1) << (1 + rng() % 13);
        std::vector<u64> indices;
        switch (trial % 4) {
        case 0:  // sparse random
            for (u64 k = 0; k < dim; ++k) {
                if (rng() % 16 == 0) indices.push_back(k);
            }
            break;
        case 1:  // a few runs of consecutive diagonals (convolution-like)
            for (int r = 0; r < 1 + static_cast<int>(rng() % 5); ++r) {
                const u64 start = rng() % dim;
                const u64 len = 1 + rng() % 9;
                for (u64 k = start; k < std::min(dim, start + len); ++k) {
                    indices.push_back(k);
                }
            }
            std::sort(indices.begin(), indices.end());
            indices.erase(std::unique(indices.begin(), indices.end()),
                          indices.end());
            break;
        case 2:  // dense
            for (u64 k = 0; k < dim; ++k) indices.push_back(k);
            break;
        default:  // unsorted, with a repeat
            for (int i = 0; i < 1 + static_cast<int>(rng() % 40); ++i) {
                indices.push_back(rng() % dim);
            }
            indices.push_back(indices.front());
            break;
        }
        const BsgsPlan want = build_every_candidate(dim, indices);
        const BsgsPlan got = BsgsPlan::build_from_indices(dim, indices);
        ASSERT_EQ(got.n1, want.n1) << "trial " << trial << ", dim " << dim;
        ASSERT_EQ(got.baby_steps, want.baby_steps) << "trial " << trial;
        ASSERT_EQ(got.groups.size(), want.groups.size()) << "trial " << trial;
        for (const auto& [g, terms] : want.groups) {
            const auto it = got.groups.find(g);
            ASSERT_NE(it, got.groups.end()) << "trial " << trial;
            ASSERT_EQ(it->second.size(), terms.size()) << "trial " << trial;
            for (std::size_t t = 0; t < terms.size(); ++t) {
                EXPECT_EQ(it->second[t].baby, terms[t].baby);
                EXPECT_EQ(it->second[t].diag, terms[t].diag);
            }
        }
    }
    // No diagonals: every candidate ties at zero and the first one wins.
    EXPECT_EQ(BsgsPlan::build_from_indices(64, {}).n1, 1u);
}

TEST(HeMatvec, DenseMatrixMatchesCleartext)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 dim = env.ctx.slot_count();
    DiagonalMatrix m(dim);
    // A banded matrix (20 diagonals) keeps the test fast but nontrivial.
    std::mt19937_64 rng(6);
    std::uniform_real_distribution<double> dist(-0.5, 0.5);
    for (u64 k = 0; k < 20; ++k) {
        for (u64 r = 0; r < dim; ++r) m.set(r, (r + 7 * k) % dim, dist(rng));
    }
    const BsgsPlan plan = BsgsPlan::build(m);

    ckks::GaloisKeys keys =
        env.keygen.make_galois_keys(plan.required_steps());
    ckks::Evaluator eval(env.ctx, env.encoder);
    eval.set_galois_keys(&keys);

    const int level = 3;
    const lin::HeBlockedMatrix he(env.ctx, env.encoder, m, plan, level,
                                  static_cast<double>(
                                      env.ctx.q(level).value()));
    const std::vector<double> x = random_vector(dim, 1.0, 7);
    const ckks::Ciphertext ct = encrypt_vector(env, x, level);
    const ckks::Ciphertext out = he.apply(eval, {&ct, 1}).front();

    EXPECT_EQ(out.level(), level - 1);                 // exactly one level
    EXPECT_DOUBLE_EQ(out.scale, env.ctx.scale());      // errorless scale
    const std::vector<double> expected = m.apply(x);
    EXPECT_LT(max_abs_diff(decrypt_vector(env, out), expected), 1e-2);
}

TEST(HeMatvec, RotationCountMatchesPlan)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 dim = env.ctx.slot_count();
    DiagonalMatrix m(dim);
    for (u64 k : {1ull, 3ull, 65ull, 130ull}) {
        for (u64 r = 0; r < dim; ++r) m.set(r, (r + k) % dim, 0.01);
    }
    const BsgsPlan plan = BsgsPlan::build(m, 64);
    ckks::GaloisKeys keys =
        env.keygen.make_galois_keys(plan.required_steps());
    ckks::Evaluator eval(env.ctx, env.encoder);
    eval.set_galois_keys(&keys);
    const lin::HeBlockedMatrix he(env.ctx, env.encoder, m, plan, 2,
                                  env.ctx.scale());
    const ckks::Ciphertext ct =
        encrypt_vector(env, random_vector(dim, 1.0, 8), 2);
    env.ctx.counters().reset();
    (void)he.apply(eval, {&ct, 1});
    EXPECT_EQ(env.ctx.counters().total_rotations(), plan.rotation_count());
    EXPECT_EQ(env.ctx.counters().pmult, plan.pmult_count());
    EXPECT_EQ(env.ctx.counters().rescale, 1u);
}

TEST(BlockedMatrix, CleartextApplyMatchesDense)
{
    const u64 dim = 16;
    BlockedMatrix m(40, 24, dim);  // 3x2 blocks, ragged edges
    std::mt19937_64 rng(9);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<std::vector<double>> dense(40, std::vector<double>(24, 0.0));
    for (u64 r = 0; r < 40; ++r) {
        for (u64 c = 0; c < 24; ++c) {
            const double v = dist(rng);
            dense[r][c] = v;
            m.add(r, c, v);
        }
    }
    const std::vector<double> x = random_vector(24, 1.0, 10);
    const std::vector<double> y = m.apply(x);
    for (u64 r = 0; r < 40; ++r) {
        double expect = 0;
        for (u64 c = 0; c < 24; ++c) expect += dense[r][c] * x[c];
        EXPECT_NEAR(y[r], expect, 1e-9);
    }
}

TEST(BlockedMatrix, HomomorphicBlockedMatvec)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 dim = env.ctx.slot_count();
    // 2x2 blocks of banded structure.
    BlockedMatrix m(2 * dim, 2 * dim, dim);
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> dist(-0.3, 0.3);
    for (u64 r = 0; r < 2 * dim; ++r) {
        for (u64 k : {0ull, 5ull, 17ull}) {
            m.add(r, (r + k) % (2 * dim), dist(rng));
        }
    }
    const BlockedPlan plan = BlockedPlan::build(m);
    ckks::GaloisKeys keys =
        env.keygen.make_galois_keys(plan.required_steps());
    ckks::Evaluator eval(env.ctx, env.encoder);
    eval.set_galois_keys(&keys);

    const int level = 2;
    const lin::HeBlockedMatrix he(env.ctx, env.encoder, m, plan, level,
                                  static_cast<double>(
                                      env.ctx.q(level).value()));
    const std::vector<double> x = random_vector(2 * dim, 1.0, 12);
    std::vector<ckks::Ciphertext> in;
    in.push_back(encrypt_vector(
        env, std::vector<double>(x.begin(), x.begin() + dim), level));
    in.push_back(encrypt_vector(
        env, std::vector<double>(x.begin() + dim, x.end()), level));

    env.ctx.counters().reset();
    const std::vector<ckks::Ciphertext> out = he.apply(eval, in);
    EXPECT_EQ(env.ctx.counters().total_rotations(), plan.rotation_count());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0].scale, env.ctx.scale());

    const std::vector<double> expected = m.apply(x);
    const std::vector<double> y0 = decrypt_vector(env, out[0]);
    const std::vector<double> y1 = decrypt_vector(env, out[1]);
    for (u64 i = 0; i < dim; ++i) {
        ASSERT_NEAR(y0[i], expected[i], 1e-2) << i;
        ASSERT_NEAR(y1[i], expected[dim + i], 1e-2) << i;
    }
}

TEST(BlockedPlan, SharesBabyStepsAcrossColumn)
{
    const u64 dim = 64;
    BlockedMatrix m(2 * dim, dim, dim);  // two blocks in one column
    for (u64 r = 0; r < dim; ++r) {
        m.add(r, (r + 3) % dim, 1.0);            // block (0,0): diag 3
        m.add(dim + r, (r + 5) % dim, 1.0);      // block (1,0): diag 5
    }
    const BlockedPlan plan = BlockedPlan::build(m, 8);
    // Babies {3, 5} shared once; no nontrivial giants.
    EXPECT_EQ(plan.rotation_count(), 2u);
}

u64
next_pow2(u64 v)
{
    u64 p = 1;
    while (p < v) p <<= 1;
    return p;
}

TEST(BatchedLayout, PackUnpackRoundTripAdversarialCombos)
{
    // Sweep gap (plain and multiplexed grids), batch count, and lane
    // stride (tight power of two vs padded) against sample spans that do
    // and do not divide the slot count evenly.
    struct Combo {
        int c, h, w, gap, batch;
        u64 extra_stride;  ///< added on top of next_pow2(base span)
    };
    const std::vector<Combo> combos = {
        {1, 8, 8, 1, 1, 0},   {1, 8, 8, 1, 4, 0},  {3, 5, 5, 1, 3, 0},
        {4, 4, 4, 2, 2, 0},   {4, 4, 4, 2, 2, 32}, {5, 3, 3, 2, 4, 0},
        {2, 7, 7, 1, 8, 16},  {16, 2, 2, 4, 2, 0},
    };
    for (const Combo& k : combos) {
        const lin::TensorLayout base(k.c, k.h, k.w, k.gap);
        const u64 stride = next_pow2(base.base_slots()) + k.extra_stride;
        const lin::TensorLayout l = base.with_batch(k.batch, stride);

        std::vector<std::vector<double>> samples;
        for (int b = 0; b < k.batch; ++b) {
            samples.push_back(random_vector(
                l.logical_size(), 1.0, 100 + static_cast<u64>(b)));
        }
        const std::vector<double> slots = l.pack_batch(samples);
        ASSERT_EQ(slots.size(), l.total_slots());

        // Full round trip, plus lane 0 via the single-sample unpack.
        const auto back = l.unpack_batch(slots, k.batch);
        ASSERT_EQ(back.size(), samples.size());
        for (int b = 0; b < k.batch; ++b) {
            EXPECT_EQ(back[static_cast<std::size_t>(b)],
                      samples[static_cast<std::size_t>(b)])
                << "lane " << b << " (c=" << k.c << " gap=" << k.gap
                << " batch=" << k.batch << ")";
        }
        EXPECT_EQ(l.unpack(slots), samples[0]);

        // Under-filled pack: remaining lanes must stay zero.
        if (k.batch > 1) {
            const std::vector<std::vector<double>> some(samples.begin(),
                                                        samples.begin() + 1);
            const std::vector<double> partial = l.pack_batch(some);
            const auto lanes = l.unpack_batch(partial, k.batch);
            EXPECT_EQ(lanes[0], samples[0]);
            for (std::size_t b = 1; b < lanes.size(); ++b) {
                for (const double v : lanes[b]) EXPECT_EQ(v, 0.0);
            }
        }
    }
}

TEST(BatchedLayout, UnpackRejectsShortSlotVector)
{
    const lin::TensorLayout l =
        lin::TensorLayout(2, 4, 4, 1).with_batch(4, 64);
    const std::vector<double> short_slots(l.total_slots() - 1, 0.0);
    expect_throw_contains<Error>([&] { (void)l.unpack(short_slots); },
                                 "slot vector too short");
    expect_throw_contains<Error>(
        [&] { (void)l.unpack_batch(short_slots, 4); },
        "slot vector too short");
}

TEST(BatchedLayout, WithBatchValidatesStride)
{
    const lin::TensorLayout l(2, 4, 4, 1);  // span 32
    expect_throw_contains<Error>([&] { (void)l.with_batch(2, 16); },
                                 "smaller than sample span");
    // batch = 1 normalizes the stride away (bit-identity with legacy).
    const lin::TensorLayout one = l.with_batch(1, 999);
    EXPECT_EQ(one.batch, 1);
    EXPECT_EQ(one.batch_stride, 0u);
    EXPECT_TRUE(one == l);
}

TEST(BatchedToeplitz, StructureInvariantUnderBatching)
{
    // The heart of slot batching: with one power-of-two lane stride and
    // all lanes inside one block, the batched matrices are block-diagonal
    // shifts of the single-sample matrix, so the nonzero diagonal sets
    // (and hence the rotation plan) are IDENTICAL to B = 1.
    const u64 block_dim = 1024;

    lin::Conv2dSpec spec;
    spec.in_channels = 2;
    spec.out_channels = 2;
    spec.kernel_h = 3;
    spec.kernel_w = 3;
    spec.pad = 1;
    const lin::TensorLayout cin(2, 8, 8, 1);  // span 128
    const lin::TensorLayout cout = lin::conv_output_layout(spec, cin);
    const lin::TensorLayout bin = cin.with_batch(4, 128);
    const lin::TensorLayout bout = lin::conv_output_layout(spec, bin);
    EXPECT_EQ(bout.batch, 4);
    EXPECT_EQ(bout.batch_stride, 128u);

    const lin::BlockedStructure s1 =
        lin::build_conv_structure(spec, cin, cout, block_dim);
    const lin::BlockedStructure sB =
        lin::build_conv_structure(spec, bin, bout, block_dim);
    EXPECT_EQ(sB.blocks, s1.blocks);

    const lin::BlockedStructure l1 =
        lin::build_linear_structure(10, cin, block_dim);
    const lin::BlockedStructure lB =
        lin::build_linear_structure(10, bin, block_dim);
    EXPECT_EQ(lB.blocks, l1.blocks);
}

TEST(BatchedToeplitz, BatchedLinearMatchesPerSampleApply)
{
    const int out_features = 12;
    const lin::TensorLayout in(3, 4, 4, 1);  // span 48
    const u64 stride = 64;
    const int batch = 4;
    const lin::TensorLayout bin = in.with_batch(batch, stride);
    const int in_features = static_cast<int>(in.logical_size());
    const std::vector<double> weights = random_vector(
        static_cast<std::size_t>(out_features) * in.logical_size(), 1.0, 7);

    const lin::BlockedMatrix m1 = lin::build_linear_matrix(
        out_features, in_features, weights, in, 1024);
    const lin::BlockedMatrix mB = lin::build_linear_matrix(
        out_features, in_features, weights, bin, 1024);

    std::vector<std::vector<double>> samples;
    for (int b = 0; b < batch; ++b) {
        samples.push_back(
            random_vector(in.logical_size(), 1.0, 50 + static_cast<u64>(b)));
    }
    std::vector<double> packed = bin.pack_batch(samples);
    packed.resize(mB.cols(), 0.0);
    const std::vector<double> y = mB.apply(packed);
    for (int b = 0; b < batch; ++b) {
        std::vector<double> x = in.pack(samples[static_cast<std::size_t>(b)]);
        x.resize(m1.cols(), 0.0);
        const std::vector<double> yb = m1.apply(x);
        for (int r = 0; r < out_features; ++r) {
            EXPECT_NEAR(y[static_cast<u64>(b) * stride +
                          static_cast<u64>(r)],
                        yb[static_cast<std::size_t>(r)], 1e-12)
                << "lane " << b << " row " << r;
        }
    }
}

}  // namespace
}  // namespace orion::test
