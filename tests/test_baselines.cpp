#include <gtest/gtest.h>

#include "src/baselines/lee_packing.h"
#include "src/baselines/unhoisted.h"
#include "src/core/compiler.h"
#include "src/nn/models.h"
#include "tests/test_util.h"

namespace orion::test {
namespace {

TEST(LeeBaseline, StridedConvCostsTwoLevels)
{
    lin::Conv2dSpec spec;
    spec.in_channels = 4;
    spec.out_channels = 8;
    spec.kernel_h = spec.kernel_w = 3;
    spec.stride = 2;
    spec.pad = 1;
    const lin::TensorLayout in(4, 16, 16, 1);
    const auto counts = baselines::lee_conv_counts(spec, in, 1u << 14);
    EXPECT_EQ(counts.depth, 2);  // conv + mask-and-collect

    spec.stride = 1;
    const auto counts1 = baselines::lee_conv_counts(spec, in, 1u << 14);
    EXPECT_EQ(counts1.depth, 1);
}

TEST(LeeBaseline, OrionNeedsFewerRotations)
{
    // The Table 3 property on a mid-size CIFAR-style conv stack.
    const nn::Network net =
        nn::make_resnet_cifar(8, nn::Act::kRelu);  // smallest 6n+2
    const u64 slots = 1u << 14;
    const auto lee = baselines::lee_network_counts(net, slots);

    core::CompileOptions opt;
    opt.slots = slots;
    opt.l_eff = 10;
    opt.structural_only = true;
    opt.calibration_samples = 1;
    const core::CompiledNetwork cn = core::compile(net, opt);

    EXPECT_GT(lee.rotations, cn.total_rotations)
        << "single-shot multiplexing must reduce rotations";
    const double improvement = static_cast<double>(lee.rotations) /
                               static_cast<double>(cn.total_rotations);
    // Paper Table 3 reports 1.64x - 6.41x across networks.
    EXPECT_GT(improvement, 1.2);
    EXPECT_LT(improvement, 20.0);
}

TEST(LeeBaseline, StridedDepthPenaltyShowsInNetworkTotals)
{
    // ResNet-8 has strided convs; Lee's linear-layer depth must exceed
    // Orion's (which is exactly one level per linear layer).
    const nn::Network net = nn::make_resnet_cifar(8, nn::Act::kRelu);
    const auto lee = baselines::lee_network_counts(net, 1u << 14);
    int orion_linear_layers = 0;
    for (int id = 0; id < net.num_layers(); ++id) {
        const nn::LayerKind k = net.layer(id).kind;
        if (k == nn::LayerKind::kConv2d || k == nn::LayerKind::kLinear ||
            k == nn::LayerKind::kAvgPool2d) {
            ++orion_linear_layers;
        }
    }
    EXPECT_GT(lee.mult_depth_linear, orion_linear_layers);
}

TEST(UnhoistedBaseline, MatchesHoistedResult)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 dim = env.ctx.slot_count();
    lin::DiagonalMatrix m(dim);
    std::mt19937_64 rng(55);
    std::uniform_real_distribution<double> dist(-0.4, 0.4);
    for (u64 k = 0; k < 12; ++k) {
        for (u64 r = 0; r < dim; ++r) m.set(r, (r + 5 * k) % dim, dist(rng));
    }
    const lin::BsgsPlan plan = lin::BsgsPlan::build(m);
    ckks::GaloisKeys keys = env.keygen.make_galois_keys(plan.required_steps());
    ckks::Evaluator eval(env.ctx, env.encoder);
    eval.set_galois_keys(&keys);

    const int level = 3;
    const double scale = static_cast<double>(env.ctx.q(level).value());
    const std::vector<double> x = random_vector(dim, 1.0, 56);
    const ckks::Ciphertext ct = encrypt_vector(env, x, level);

    const lin::HeBlockedMatrix hoisted(env.ctx, env.encoder, m, plan, level,
                                       scale);
    const ckks::Ciphertext ya = hoisted.apply(eval, {&ct, 1}).front();
    const ckks::Ciphertext yb = baselines::apply_unhoisted(
        eval, env.encoder, m, plan, level, scale, ct);
    EXPECT_LT(max_abs_diff(decrypt_vector(env, ya), decrypt_vector(env, yb)),
              1e-3);
}

TEST(UnhoistedBaseline, CountsFullRotations)
{
    CkksEnv& env = CkksEnv::shared();
    const u64 dim = env.ctx.slot_count();
    lin::DiagonalMatrix m(dim);
    for (u64 k : {1ull, 2ull, 33ull}) {
        for (u64 r = 0; r < dim; ++r) m.set(r, (r + k) % dim, 0.01);
    }
    const lin::BsgsPlan plan = lin::BsgsPlan::build(m, 32);
    ckks::GaloisKeys keys = env.keygen.make_galois_keys(plan.required_steps());
    ckks::Evaluator eval(env.ctx, env.encoder);
    eval.set_galois_keys(&keys);
    const ckks::Ciphertext ct =
        encrypt_vector(env, random_vector(dim, 1.0, 57), 2);

    env.ctx.counters().reset();
    (void)baselines::apply_unhoisted(eval, env.encoder, m, plan, 2,
                                     env.ctx.scale(), ct);
    // All rotations are full (un-hoisted): hrot, not hrot_hoisted.
    EXPECT_EQ(env.ctx.counters().hrot, plan.rotation_count());
    EXPECT_EQ(env.ctx.counters().hrot_hoisted, 0u);

    env.ctx.counters().reset();
    const lin::HeBlockedMatrix hoisted(env.ctx, env.encoder, m, plan, 2,
                                       env.ctx.scale());
    (void)hoisted.apply(eval, {&ct, 1});
    EXPECT_EQ(env.ctx.counters().hrot, 0u);
    EXPECT_EQ(env.ctx.counters().hrot_hoisted, plan.rotation_count());
}

TEST(UnhoistedBaseline, HoistedIsFasterAtScale)
{
    // The cost model's account of Table 4: hoisted rotations are cheaper
    // than full rotations at every level.
    const core::CostModel cost = core::CostModel::paper_scale();
    for (int lvl : {2, 5, 10, 15}) {
        EXPECT_LT(cost.rotation_hoisted(lvl), cost.rotation(lvl)) << lvl;
    }
}

}  // namespace
}  // namespace orion::test
