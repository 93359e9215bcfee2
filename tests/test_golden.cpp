/**
 * @file
 * Cross-commit golden fingerprints: FNV-1a over the serialized output
 * ciphertexts of fixed-seed real-CKKS runs.
 *
 * Other suites check that outputs are byte-identical across thread counts
 * and kernel ISAs within one build. The pinned values here extend that
 * check across commits: a kernel, evaluator, or encoder change that moves
 * a single output residue fails this suite. A change that is meant to
 * alter outputs must re-record the constants and say why.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/ckks/kernels.h"
#include "src/ckks/serial.h"
#include "src/core/thread_pool.h"
#include "tests/serve_env.h"

namespace orion::test {
namespace {

namespace k = ckks::kernels;

/** FNV-1a (64-bit) over the concatenated serializations. */
u64
fingerprint(const std::vector<ckks::Ciphertext>& cts)
{
    u64 h = 1469598103934665603ull;
    for (const ckks::Ciphertext& ct : cts) {
        for (const u8 b : ckks::serial::serialize(ct)) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/**
 * Runs `cn` on one fixed input under a seed-7 client's keys and checks the
 * output fingerprint at every supported ISA and each of `threads`.
 */
void
expect_fingerprint(const core::CompiledNetwork& cn, const ckks::Context& ctx,
                   const std::vector<double>& x,
                   const std::vector<int>& threads, u64 want)
{
    DirectRun direct(cn, ctx,
                     std::make_shared<const core::PreparedProgram>(cn, ctx));
    const std::vector<ckks::Ciphertext> in = direct.client.encrypt({x});

    const IsaGuard guard;
    for (const k::Isa isa : k::supported_isas()) {
        k::set_isa(isa);
        for (const int t : threads) {
            const core::ScopedPoolOverride scoped(t);
            const u64 got =
                fingerprint(direct.exec.run_encrypted(in).outputs);
            EXPECT_EQ(got, want) << std::hex << "0x" << got << " at "
                                 << k::isa_name(isa) << ", " << std::dec
                                 << t << " threads";
        }
    }
}

/** The micro MLP compiled for `ctx` at l_eff, on a fixed input. */
void
expect_golden(const ckks::Context& ctx, int l_eff, int l_boot,
              u64 bootstraps, const std::vector<int>& threads, u64 want)
{
    const nn::Network net = nn::make_micro_mlp();
    core::CompileOptions opt;
    opt.slots = ctx.slot_count();
    opt.l_eff = l_eff;
    opt.cost = core::CostModel::for_params(ctx.degree(), 3, 3, l_boot);
    opt.calibration_samples = 3;
    opt.structural_only = false;
    const core::CompiledNetwork cn = core::compile(net, opt);
    ASSERT_EQ(cn.num_bootstraps, bootstraps);
    expect_fingerprint(cn, ctx, random_vector(64, 1.0, 1201), threads, want);
}

TEST(Golden, MicroMlpToyOutputsArePinned)
{
    const ckks::Context ctx(ckks::CkksParams::toy());
    expect_golden(ctx, /*l_eff=*/4, /*l_boot=*/3, /*bootstraps=*/0, {1, 2, 4},
                  0xd28f5ac506ecf2a2ull);
}

TEST(Golden, BootstrappedMicroMlpOutputsArePinned)
{
    // l_eff = 2 is one level short of the micro MLP's depth, so placement
    // must insert a bootstrap: the real CtS -> EvalMod -> StC circuit.
    const ckks::Context ctx(ckks::CkksParams::bootstrap_toy(2));
    expect_golden(ctx, /*l_eff=*/2, /*l_boot=*/13, /*bootstraps=*/1, {1, 2, 4},
                  0xfdcda9f352186a67ull);
}

TEST(Golden, ReluResnetOutputsArePinned)
{
    // The composite ReLU residual net runs every opcode under CKKS: conv
    // and linear layers with bias, sign stages joined by kMul, an explicit
    // kScale on the shortcut, a residual kAdd, and two circuit bootstraps.
    const ckks::Context ctx(ckks::CkksParams::bootstrap_toy(6));
    const int l_boot = ckks::BootstrapPlan::cached(ctx.params())->depth;
    core::CompileOptions opt = toy_options(ctx.slot_count(), 6);
    opt.cost = core::CostModel::for_params(2 * ctx.slot_count() * 2, 3, 3,
                                           l_boot);
    opt.structural_only = false;
    const core::CompiledNetwork cn =
        core::compile(tiny_resnet(nn::ActivationSpec::Kind::kRelu), opt);
    ASSERT_EQ(cn.num_bootstraps, 2u);
    std::set<core::Instruction::Op> ops;
    for (const core::Instruction& ins : cn.program) ops.insert(ins.op);
    EXPECT_EQ(ops.size(), 8u);  // all eight opcodes
    expect_fingerprint(cn, ctx, random_vector(128, 1.0, 42), {1, 4},
                       0x93bb3cc1289c0c9dull);
}

}  // namespace
}  // namespace orion::test
