#include <gtest/gtest.h>

#include <tuple>

#include "src/core/executor.h"
#include "src/nn/models.h"
#include "tests/serve_env.h"

namespace orion::test {
namespace {

using core::CompileOptions;
using core::CompiledNetwork;
using core::Instruction;
using nn::ActivationSpec;
using nn::Network;

double
rel_err(const std::vector<double>& got, const std::vector<double>& want)
{
    double num = 0.0, den = 1e-12;
    for (std::size_t i = 0; i < want.size(); ++i) {
        num = std::max(num, std::abs(got[i] - want[i]));
        den = std::max(den, std::abs(want[i]));
    }
    return num / den;
}

TEST(Compiler, MlpCompilesAndSimulatesExactly)
{
    // x^2 activations are exact polynomials, so simulation must match the
    // cleartext network almost perfectly.
    const Network net = nn::make_mlp();
    const CompiledNetwork cn = core::compile(net, toy_options(4096, 6));
    EXPECT_EQ(cn.num_bootstraps, 0u);  // depth 5 fits in l_eff 6
    EXPECT_GT(cn.total_rotations, 0u);

    core::SimExecutor sim(cn, /*bootstrap_noise_std=*/0.0);
    const std::vector<double> x = random_vector(784, 1.0, 31);
    const core::ExecutionResult r = sim.run(x);
    const std::vector<double> expected = net.forward(x);
    EXPECT_LT(rel_err(r.output, expected), 1e-9);
    EXPECT_EQ(r.rotations, cn.total_rotations);
}

TEST(Compiler, ActivationDepthMatchesPaperAccounting)
{
    const Network net = nn::make_mlp();
    const CompiledNetwork cn = core::compile(net, toy_options(4096, 6));
    // Two x^2 activations, depth 1 each.
    EXPECT_EQ(cn.activation_depth, 2);
}

TEST(Compiler, TinyResnetWithSquareActs)
{
    const Network net = tiny_resnet(ActivationSpec::Kind::kSquare);
    const CompiledNetwork cn = core::compile(net, toy_options(1024, 5));
    core::SimExecutor sim(cn, 0.0);
    const std::vector<double> x = random_vector(2 * 8 * 8, 1.0, 32);
    const core::ExecutionResult r = sim.run(x);
    EXPECT_LT(rel_err(r.output, net.forward(x)), 1e-9);
}

TEST(Compiler, TinyResnetWithComposteReluRegions)
{
    const Network net = tiny_resnet(ActivationSpec::Kind::kRelu);
    const CompiledNetwork cn = core::compile(net, toy_options(1024, 6));
    core::SimExecutor sim(cn, 0.0);
    const std::vector<double> x = random_vector(2 * 8 * 8, 1.0, 33);
    const core::ExecutionResult r = sim.run(x);
    // The [3,3] composite ReLU is a crude sign approximation; compare
    // against the cleartext net loosely, and require the right argmax.
    const std::vector<double> expected = net.forward(x);
    EXPECT_LT(rel_err(r.output, expected), 0.7);
    // kMul instructions exist (the x * sign(x) joins).
    int muls = 0;
    for (const Instruction& ins : cn.program) {
        if (ins.op == Instruction::Op::kMul) ++muls;
    }
    EXPECT_EQ(muls, 2);
}

TEST(Compiler, SiluActivationAccuracy)
{
    const Network net = tiny_resnet(ActivationSpec::Kind::kSilu);
    const CompiledNetwork cn = core::compile(net, toy_options(1024, 6));
    core::SimExecutor sim(cn, 0.0);
    const std::vector<double> x = random_vector(2 * 8 * 8, 1.0, 34);
    const core::ExecutionResult r = sim.run(x);
    EXPECT_LT(rel_err(r.output, net.forward(x)), 0.05);
}

TEST(Compiler, DeepNetGetsBootstraps)
{
    // Chain enough activations that l_eff forces bootstrapping; the sim
    // must still match the cleartext model.
    std::mt19937_64 rng(35);
    std::normal_distribution<double> dist(0.0, 0.4);
    Network net("deep");
    int id = net.add_input(1, 4, 4);
    id = net.add_flatten(id);
    for (int i = 0; i < 6; ++i) {
        std::vector<double> w(16 * 16);
        for (double& v : w) v = dist(rng);
        id = net.add_linear(id, 16, w);
        id = net.add_activation(id, ActivationSpec::square());
    }
    std::vector<double> w(4 * 16);
    for (double& v : w) v = dist(rng);
    id = net.add_linear(id, 4, w);
    net.set_output(id);

    const CompiledNetwork cn = core::compile(net, toy_options(1024, 4));
    EXPECT_GE(cn.num_bootstraps, 2u);
    core::SimExecutor sim(cn, 0.0);
    const std::vector<double> x = random_vector(16, 1.0, 36);
    EXPECT_LT(rel_err(sim.run(x).output, net.forward(x)), 1e-9);
}

TEST(Compiler, SimLatencyMatchesPlacementModel)
{
    const Network net = tiny_resnet(ActivationSpec::Kind::kSquare);
    const CompiledNetwork cn = core::compile(net, toy_options(1024, 5));
    core::SimExecutor sim(cn, 0.0);
    const core::ExecutionResult r =
        sim.run(random_vector(2 * 8 * 8, 1.0, 37));
    // The walk and the compile totals are the same program-order sum of
    // instruction_cost, so they agree exactly.
    EXPECT_EQ(r.modeled_latency, cn.modeled_latency);
    EXPECT_EQ(r.pmults, cn.total_pmults);
    EXPECT_EQ(r.bootstraps, cn.num_bootstraps);
}

TEST(Compiler, LazyPlacementEmitsWhatItPrices)
{
    // Linear -> ReLU -> Linear: the ReLU's sign backbone uses up the
    // levels, so the lazy baseline bootstraps both inputs of the x *
    // sign(x) join. The emitted program must carry those bootstraps,
    // run the join where it was priced, and execute.
    Network net("lazy-relu");
    int id = net.add_flatten(net.add_input(1, 1, 16));
    id = net.add_linear(id, 16, random_vector(16 * 16, 0.3, 1),
                        random_vector(16, 0.1, 2));
    id = net.add_activation(id, ActivationSpec::relu());
    id = net.add_linear(id, 4, random_vector(4 * 16, 0.3, 3),
                        random_vector(4, 0.1, 4));
    net.set_output(id);
    for (int l_eff : {5, 10, 16}) {
        CompileOptions opt = toy_options(1024, l_eff);
        opt.lazy_placement = true;
        const CompiledNetwork cn = core::compile(net, opt);
        EXPECT_EQ(cn.num_bootstraps, cn.placement.num_bootstraps) << l_eff;
        EXPECT_NEAR(cn.modeled_latency, cn.placement.latency,
                    1e-9 * cn.placement.latency)
            << l_eff;
        core::SimExecutor sim(cn, 0.0);
        const core::ExecutionResult r = sim.run(random_vector(16, 1.0, 5));
        EXPECT_EQ(r.bootstraps, cn.num_bootstraps) << l_eff;
        EXPECT_EQ(r.modeled_latency, cn.modeled_latency) << l_eff;
    }
}

TEST(Compiler, RasterPackingNeedsMoreRotationsOnStridedNets)
{
    // Figure 5: raster packing of strided convs produces more diagonals
    // and thus more rotations than single-shot multiplexing.
    std::mt19937_64 rng(38);
    std::normal_distribution<double> dist(0.0, 0.3);
    auto weights = [&rng, &dist](u64 n) {
        std::vector<double> w(n);
        for (double& x : w) x = dist(rng);
        return w;
    };
    Network net("strided");
    int id = net.add_input(2, 16, 16);
    lin::Conv2dSpec c1;
    c1.in_channels = 2;
    c1.out_channels = 8;
    c1.kernel_h = c1.kernel_w = 3;
    c1.stride = 2;
    c1.pad = 1;
    id = net.add_conv2d(id, c1, weights(c1.weight_count()));
    id = net.add_activation(id, ActivationSpec::square());
    id = net.add_flatten(id);
    id = net.add_linear(id, 4, weights(4 * 8 * 8 * 8));
    net.set_output(id);

    CompileOptions mux = toy_options(1024, 5);
    CompileOptions raster = toy_options(1024, 5);
    raster.packing = CompileOptions::Packing::kRaster;
    const CompiledNetwork cn_mux = core::compile(net, mux);
    const CompiledNetwork cn_raster = core::compile(net, raster);
    EXPECT_LT(cn_mux.total_rotations, cn_raster.total_rotations);

    // Both compile to correct programs.
    core::SimExecutor sim_mux(cn_mux, 0.0);
    core::SimExecutor sim_raster(cn_raster, 0.0);
    const std::vector<double> x = random_vector(2 * 16 * 16, 1.0, 39);
    EXPECT_LT(rel_err(sim_mux.run(x).output, net.forward(x)), 1e-9);
    EXPECT_LT(rel_err(sim_raster.run(x).output, net.forward(x)), 1e-9);
}

TEST(Compiler, DiagonalMethodNeedsMoreRotationsThanBsgs)
{
    const Network net = nn::make_mlp();
    CompileOptions with_bsgs = toy_options(4096, 6);
    CompileOptions without = toy_options(4096, 6);
    without.use_bsgs = false;
    const u64 bsgs_rots = core::compile(net, with_bsgs).total_rotations;
    const u64 diag_rots = core::compile(net, without).total_rotations;
    EXPECT_LT(bsgs_rots, diag_rots / 3);  // O(sqrt n) vs O(n)
}

TEST(Compiler, MultiCiphertextTensors)
{
    // An input bigger than one ciphertext: blocked matvec path.
    std::mt19937_64 rng(40);
    std::normal_distribution<double> dist(0.0, 0.2);
    Network net("wide");
    int id = net.add_input(4, 16, 16);  // 1024 slots at 512-slot blocks
    lin::Conv2dSpec c1;
    c1.in_channels = 4;
    c1.out_channels = 2;
    c1.kernel_h = c1.kernel_w = 3;
    c1.pad = 1;
    std::vector<double> w(c1.weight_count());
    for (double& v : w) v = dist(rng);
    id = net.add_conv2d(id, c1, w);
    net.set_output(id);

    const CompiledNetwork cn = core::compile(net, toy_options(512, 4));
    ASSERT_GE(cn.program.size(), 2u);
    EXPECT_EQ(cn.program.front().cts, 2u);  // input spans 2 ciphertexts
    core::SimExecutor sim(cn, 0.0);
    const std::vector<double> x = random_vector(4 * 16 * 16, 1.0, 41);
    EXPECT_LT(rel_err(sim.run(x).output, net.forward(x)), 1e-9);
}

/**
 * The flagship integration check: `net` compiled for bootstrap_toy(l_eff)
 * and executed under real RNS-CKKS encryption — bootstraps included, as
 * the real public-key circuit — agrees with the functional simulation
 * (and hence with cleartext PyTorch-style execution) to high precision,
 * and both backends report the same walk's accounting.
 */
void
expect_ckks_matches_simulation(const Network& net, int l_eff)
{
    const ckks::Context ctx(ckks::CkksParams::bootstrap_toy(l_eff));
    const int l_boot = ckks::BootstrapPlan::cached(ctx.params())->depth;
    CompileOptions opt = toy_options(ctx.slot_count(), l_eff);
    opt.cost = core::CostModel::for_params(2 * ctx.slot_count() * 2, 3, 3,
                                           l_boot);
    opt.structural_only = false;  // need value matrices for CKKS
    const CompiledNetwork cn = core::compile(net, opt);
    ASSERT_GE(cn.num_bootstraps, 1u);

    // The client owns the keys; the executor only ever sees evaluation
    // keys.
    DirectRun fhe(cn, ctx,
                  std::make_shared<const core::PreparedProgram>(cn, ctx));

    core::SimExecutor sim(cn, 0.0);
    const std::vector<double> x = random_vector(2 * 8 * 8, 1.0, 42);
    const core::ExecutionResult rs = sim.run(x);
    const std::vector<ckks::Ciphertext> in = fhe.client.encrypt({x});
    const ckks::OpCounters before = ctx.counters();
    const core::EncryptedResult rf = fhe.exec.run_encrypted(in);
    const ckks::OpCounters after = ctx.counters();
    const std::vector<double> out =
        fhe.client.decrypt(rf.outputs, 1).front();

    // Kernel rotations of one standalone circuit bootstrap under the same
    // keys.
    const ckks::Encoder encoder(ctx);
    ckks::Evaluator eval(ctx, encoder);
    eval.set_relin_key(&fhe.client.relin_key());
    eval.set_galois_keys(&fhe.client.galois_keys());
    const ckks::BootstrapCircuit boot(
        ctx, encoder, ckks::BootstrapPlan::cached(ctx.params()), cn.l_eff);
    const ckks::OpCounters boot_before = ctx.counters();
    (void)boot.bootstrap(eval, in.front());
    const u64 circuit_rotations =
        ctx.counters().total_rotations() - boot_before.total_rotations();
    EXPECT_GT(circuit_rotations, 0u);

    ASSERT_EQ(out.size(), rs.output.size());
    const double err = rel_err(out, rs.output);
    EXPECT_LT(err, 1e-2);
    // Precision in bits, as reported in Table 2.
    double abs_err = 1e-12;
    for (std::size_t i = 0; i < out.size(); ++i) {
        abs_err = std::max(abs_err, std::abs(out[i] - rs.output[i]));
    }
    const double precision_bits = -std::log2(abs_err);
    EXPECT_GT(precision_bits, 4.0);
    // The measured kernel rotation count (Context counter delta) must
    // equal the compiler's static count plus the circuit's per
    // bootstrap, and the executor must report the program's count.
    EXPECT_EQ(after.total_rotations() - before.total_rotations(),
              cn.total_rotations + cn.num_bootstraps * circuit_rotations);
    EXPECT_EQ(rf.rotations, cn.total_rotations);
    EXPECT_EQ(rf.pmults, cn.total_pmults);
    EXPECT_EQ(rf.bootstraps, cn.num_bootstraps);

    // One program walk: both backends count and charge identically and
    // attribute time to the same layer sequence.
    EXPECT_EQ(rf.bootstraps, rs.bootstraps);
    EXPECT_EQ(rf.rotations, rs.rotations);
    EXPECT_EQ(rf.pmults, rs.pmults);
    EXPECT_EQ(rf.modeled_latency, rs.modeled_latency);
    EXPECT_GT(rf.modeled_latency, 0.0);
    ASSERT_EQ(rf.layer_times.size(), rs.layer_times.size());
    for (std::size_t i = 0; i < rf.layer_times.size(); ++i) {
        EXPECT_EQ(rf.layer_times[i].layer_id, rs.layer_times[i].layer_id)
            << "layer_times entry " << i;
    }
}

TEST(Compiler, CkksExecutionMatchesSimulation)
{
    expect_ckks_matches_simulation(tiny_resnet(ActivationSpec::Kind::kSquare),
                                   4);
    // Composite ReLU: sign stages, kMul joins and two bootstraps.
    expect_ckks_matches_simulation(tiny_resnet(ActivationSpec::Kind::kRelu),
                                   6);
}

/**
 * A zero weight that is the only entry on its generalized diagonal: the
 * encoded matrix drops that diagonal, so the plan must drop it too, and
 * the program must still prepare and run under CKKS.
 */
void
expect_zero_weight_program_runs(const Network& net)
{
    CkksEnv& env = CkksEnv::shared();
    CompileOptions opt = toy_options(env.ctx.slot_count(), 4);
    opt.structural_only = false;
    const CompiledNetwork cn = core::compile(net, opt);
    ASSERT_EQ(cn.linears.size(), 1u);
    const core::LinearLayerData& data = cn.linears.front();
    ASSERT_NE(data.matrix, nullptr);
    ASSERT_EQ(data.plan.pmult_count(), data.matrix->num_diagonals());
    opt.structural_only = true;
    EXPECT_EQ(core::compile(net, opt).linears.front().plan.pmult_count(),
              data.plan.pmult_count() + 1);

    DirectRun fhe(cn, env.ctx,
                  std::make_shared<const core::PreparedProgram>(cn, env.ctx));
    const std::vector<double> x = random_vector(64, 1.0, 43);
    const std::vector<double> out = fhe.run(x);
    const std::vector<double> sim = core::SimExecutor(cn, 0.0).run(x).output;
    ASSERT_EQ(out.size(), sim.size());
    EXPECT_LT(rel_err(out, sim), 1e-2);
    double abs_err = 1e-12;
    for (std::size_t i = 0; i < out.size(); ++i) {
        abs_err = std::max(abs_err, std::abs(out[i] - sim[i]));
    }
    EXPECT_GT(-std::log2(abs_err), 4.0);
}

TEST(Compiler, ZeroWeightDiagonalsRunUnderCkks)
{
    std::mt19937_64 rng(44);
    std::normal_distribution<double> dist(0.0, 0.2);
    auto weights = [&](u64 n) {
        std::vector<double> w(n);
        for (double& v : w) v = dist(rng);
        return w;
    };
    {
        // 1x8x8 -> 128 keeps the diagonal form (128 rows exceed the
        // 64-slot input period): W[0][63] alone sits on diagonal 63.
        Network net("zero-linear");
        int id = net.add_flatten(net.add_input(1, 8, 8));
        std::vector<double> w = weights(128 * 64);
        w[63] = 0.0;
        id = net.add_linear(id, 128, std::move(w));
        net.set_output(id);
        SCOPED_TRACE("linear");
        expect_zero_weight_program_runs(net);
    }
    {
        // 1x8x8 -> 16 is hybrid (n_i = 64, n_o = 16): diagonal 5 holds
        // W[r][(r + 5 + 16 j) mod 64] for r < 16, j < 4. All zero, it
        // drops out of the plan.
        Network net("zero-hybrid");
        int id = net.add_flatten(net.add_input(1, 8, 8));
        std::vector<double> w = weights(16 * 64);
        for (int r = 0; r < 16; ++r) {
            for (int j = 0; j < 4; ++j) {
                w[static_cast<std::size_t>(r * 64 + (r + 5 + 16 * j) % 64)] =
                    0.0;
            }
        }
        id = net.add_linear(id, 16, std::move(w));
        net.set_output(id);
        SCOPED_TRACE("hybrid");
        expect_zero_weight_program_runs(net);
    }
    {
        // 3x3 pad-1 conv: tap (0, 0) alone sits on diagonal -(8 + 1).
        Network net("zero-conv");
        lin::Conv2dSpec spec;
        spec.kernel_h = spec.kernel_w = 3;
        spec.pad = 1;
        std::vector<double> w = weights(spec.weight_count());
        w[0] = 0.0;
        const int id = net.add_conv2d(net.add_input(1, 8, 8), spec,
                                      std::move(w));
        net.set_output(id);
        SCOPED_TRACE("conv");
        expect_zero_weight_program_runs(net);
    }
}

/**
 * A structural-only compile describes the runnable program: with nonzero
 * weights it plans the same diagonals as the compile that materializes
 * values.
 */
TEST(Compiler, StructuralCompileMatchesValueCompile)
{
    struct Case {
        const char* name;
        Network net;
        u64 slots;
    };
    const Case cases[] = {
        {"micro", nn::make_micro_mlp(), 4096},
        {"mlp", nn::make_mlp(), 4096},
        {"lola", nn::make_lola(), 4096},
        {"tiny_resnet", tiny_resnet(ActivationSpec::Kind::kRelu), 1024},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        CompileOptions opt = toy_options(c.slots, 6);
        const CompiledNetwork structural = core::compile(c.net, opt);
        opt.structural_only = false;
        const CompiledNetwork valued = core::compile(c.net, opt);
        EXPECT_EQ(structural.total_rotations, valued.total_rotations);
        EXPECT_EQ(structural.total_pmults, valued.total_pmults);
        EXPECT_EQ(structural.num_bootstraps, valued.num_bootstraps);
        ASSERT_EQ(structural.linears.size(), valued.linears.size());
        for (std::size_t i = 0; i < valued.linears.size(); ++i) {
            const lin::BlockedPlan& ps = structural.linears[i].plan;
            const lin::BlockedPlan& pv = valued.linears[i].plan;
            EXPECT_EQ(ps.pmult_count(), pv.pmult_count()) << "layer " << i;
            EXPECT_EQ(ps.rotation_count(), pv.rotation_count()) << i;
            EXPECT_EQ(ps.fold_steps, pv.fold_steps) << "layer " << i;
            EXPECT_EQ(ps.replicate_steps, pv.replicate_steps) << i;
            EXPECT_EQ(structural.linears[i].out_layout,
                      valued.linears[i].out_layout)
                << "layer " << i;
        }
        const auto a = structural.required_rotations();
        const auto b = valued.required_rotations();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].step, b[i].step) << i;
            EXPECT_EQ(a[i].level, b[i].level) << i;
        }
    }
}

// ---------------------------------------------------------------------
// Hybrid fully connected layers (DESIGN.md "Hybrid diagonals and
// replicated layouts")
// ---------------------------------------------------------------------

/** Gaussian weights of a fixed seed. */
std::vector<double>
gaussian(u64 n, u64 seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> dist(0.0, 0.3);
    std::vector<double> w(n);
    for (double& v : w) v = dist(rng);
    return w;
}

/**
 * A c x h x w input, optionally a 3x3 stride-2 conv to 4 channels and a
 * square, then flatten and fully connected layers of the given widths
 * with squares between them; every layer has a bias.
 */
Network
fc_net(const char* name, int c, int h, int w, bool strided_conv,
       const std::vector<int>& widths)
{
    Network net(name);
    int id = net.add_input(c, h, w);
    u64 seed = 300;
    if (strided_conv) {
        lin::Conv2dSpec spec;
        spec.in_channels = c;
        spec.out_channels = 4;
        spec.kernel_h = spec.kernel_w = 3;
        spec.stride = 2;
        spec.pad = 1;
        id = net.add_conv2d(id, spec, gaussian(spec.weight_count(), seed++),
                            gaussian(4, seed++));
        id = net.add_activation(id, ActivationSpec::square());
    }
    id = net.add_flatten(id);
    for (std::size_t i = 0; i < widths.size(); ++i) {
        if (i > 0) id = net.add_activation(id, ActivationSpec::square());
        const int in = static_cast<int>(net.shape_of(id).size());
        id = net.add_linear(id, widths[i],
                            gaussian(static_cast<u64>(in) * widths[i], seed++),
                            gaussian(static_cast<u64>(widths[i]), seed++));
    }
    net.set_output(id);
    return net;
}

/** The toy-context compile of `net` at `batch` lanes, with values. */
CompiledNetwork
compile_toy(const Network& net, int batch)
{
    CkksEnv& env = CkksEnv::shared();
    CompileOptions opt = toy_options(env.ctx.slot_count(), 4);
    opt.structural_only = false;
    opt.batch = batch;
    return core::compile(net, opt);
}

/**
 * Runs `xs` (one per lane) through `cn` under real CKKS and checks every
 * lane against the cleartext backend: at least 10 bits of agreement, and
 * the walk's rotation count equal to the kernels'. Returns the outputs.
 */
std::vector<std::vector<double>>
expect_lanes_match_cleartext(const CompiledNetwork& cn,
                             const std::vector<std::vector<double>>& xs)
{
    CkksEnv& env = CkksEnv::shared();
    DirectRun fhe(cn, env.ctx,
                  std::make_shared<const core::PreparedProgram>(cn, env.ctx));
    const std::vector<ckks::Ciphertext> in = fhe.client.encrypt(xs);
    const ckks::OpCounters before = env.ctx.counters();
    const core::EncryptedResult r = fhe.exec.run_encrypted(in);
    EXPECT_EQ(env.ctx.counters().total_rotations() - before.total_rotations(),
              cn.total_rotations);
    EXPECT_EQ(r.rotations, cn.total_rotations);
    EXPECT_EQ(r.pmults, cn.total_pmults);
    const std::vector<std::vector<double>> got =
        fhe.client.decrypt(r.outputs, static_cast<int>(xs.size()));
    for (std::size_t b = 0; b < xs.size(); ++b) {
        const std::vector<double> want =
            core::SimExecutor(cn, 0.0).run(xs[b]).output;
        EXPECT_LT(rel_err(got[b], want), std::exp2(-10.0)) << "lane " << b;
    }
    return got;
}

TEST(Compiler, HybridLinearLayersMatchCleartextUnderCkks)
{
    struct Case {
        const char* name;
        Network net;
        u64 input_period;  ///< the client's replication (0 = none)
        /** Per linear layer: {n_i, fold steps, replication steps}. */
        std::vector<std::tuple<u64, std::vector<u64>, std::vector<u64>>>
            layers;
    };
    const Case cases[] = {
        // rows < cols on a network input that the client replicates.
        {"rows<cols",
         fc_net("rows<cols", 1, 8, 8, false, {16, 5}),
         64,
         {{64, {32, 16}, {}}, {16, {8}, {}}}},
        // rows == cols: no fold.
        {"rows==cols",
         fc_net("rows==cols", 1, 4, 4, false, {16, 16}),
         16,
         {{16, {}, {}}, {16, {}, {}}}},
        // Non-power-of-two rows: zero-padded to n_o = 16 and 8.
        {"rows=12",
         fc_net("rows=12", 1, 8, 8, false, {12, 5}),
         64,
         {{64, {32, 16}, {}}, {16, {8}, {}}}},
        // A stride-2 conv's gap-2 output spans 64 slots; the conv
        // replicates it before the square sees it.
        {"gapped",
         fc_net("gapped", 1, 8, 8, true, {10}),
         0,
         {{0, {}, {64, 128, 256, 512}}, {64, {32, 16}, {}}}},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const CompiledNetwork cn = compile_toy(c.net, 1);
        EXPECT_EQ(cn.input_layout.period, c.input_period);
        ASSERT_EQ(cn.linears.size(), c.layers.size());
        for (std::size_t i = 0; i < c.layers.size(); ++i) {
            const auto& [n_i, fold, replicate] = c.layers[i];
            const core::LinearLayerData& data = cn.linears[i];
            EXPECT_EQ(data.in_layout.period, n_i) << "layer " << i;
            EXPECT_EQ(data.plan.fold_steps, fold) << "layer " << i;
            EXPECT_EQ(data.plan.replicate_steps, replicate) << "layer " << i;
            if (data.kind == nn::LayerKind::kLinear) {
                // n_o diagonals, whatever the input span.
                EXPECT_EQ(data.plan.pmult_count(),
                          next_power_of_two(
                              static_cast<u64>(data.out_features)))
                    << "layer " << i;
            }
        }
        const u64 in_size = c.net.shape_of(c.net.input_id()).size();
        expect_lanes_match_cleartext(cn, {random_vector(in_size, 1.0, 77)});
    }
}

TEST(Compiler, BatchedDiagonalFormMatchesSingleSampleHybrid)
{
    // A batch lane is not cyclic, so B = 2 keeps the diagonal form; each
    // lane must still agree with the B = 1 hybrid program.
    const Network net = fc_net("batched", 1, 8, 8, false, {16, 5});
    const CompiledNetwork one = compile_toy(net, 1);
    const CompiledNetwork two = compile_toy(net, 2);
    ASSERT_EQ(two.batch, 2);
    for (const core::LinearLayerData& data : two.linears) {
        EXPECT_EQ(data.in_layout.period, 0u);
        EXPECT_TRUE(data.plan.fold_steps.empty());
    }
    EXPECT_LT(one.total_pmults, two.total_pmults);
    const std::vector<std::vector<double>> xs = {
        random_vector(64, 1.0, 81), random_vector(64, 1.0, 82)};
    const std::vector<std::vector<double>> batched =
        expect_lanes_match_cleartext(two, xs);
    for (std::size_t b = 0; b < xs.size(); ++b) {
        const std::vector<double> single =
            expect_lanes_match_cleartext(one, {xs[b]}).front();
        EXPECT_LT(rel_err(batched[b], single), std::exp2(-10.0))
            << "lane " << b;
    }
}

/** Per-layer exact counts of one linear layer. */
struct LayerCounts {
    u64 rotations, pmults, steps;
};

void
expect_counts(const CompiledNetwork& cn, u64 rotations, u64 pmults,
              u64 galois_steps, const std::vector<LayerCounts>& layers)
{
    EXPECT_EQ(cn.total_rotations, rotations);
    EXPECT_EQ(cn.total_pmults, pmults);
    EXPECT_EQ(cn.required_rotations().size(), galois_steps);
    ASSERT_EQ(cn.linears.size(), layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const core::PlanStats& s = cn.linears[i].stats;
        EXPECT_EQ(s.total_rotations(), layers[i].rotations) << "layer " << i;
        EXPECT_EQ(s.pmults, layers[i].pmults) << "layer " << i;
        EXPECT_EQ(cn.linears[i].plan.required_steps().size(),
                  layers[i].steps)
            << "layer " << i;
    }
}

TEST(Compiler, HybridCountsArePinned)
{
    {
        // LoLA at network(2^13, 14), l_eff 8: conv (replicates, period
        // 2048), FC1 100 x 1352-slot span (128 diagonals, fold 1024 ..
        // 128), FC2 10 x 100 (16 diagonals, fold 64 .. 16).
        SCOPED_TRACE("lola");
        CompileOptions opt;
        opt.slots = 4096;
        opt.l_eff = 8;
        opt.cost = core::CostModel::for_params(8192, 3, 3, 14);
        const CompiledNetwork cn = core::compile(nn::make_lola(), opt);
        expect_counts(cn, 73, 493, 52,
                      {{39, 349, 39}, {25, 128, 25}, {9, 16, 9}});
    }
    {
        SCOPED_TRACE("micro");
        CkksEnv& env = CkksEnv::shared();
        CompileOptions opt;
        opt.slots = env.ctx.slot_count();
        opt.l_eff = 4;
        opt.cost = core::CostModel::for_params(env.ctx.degree(), 3, 3, 3);
        opt.calibration_samples = 3;
        const CompiledNetwork cn = core::compile(nn::make_micro_mlp(), opt);
        expect_counts(cn, 13, 24, 9, {{8, 16, 8}, {5, 8, 5}});
    }
}

TEST(Compiler, StructuralResnet20CountsArePinned)
{
    // The paper's flagship network compiled as the resnet20-compile
    // benchmark does (2^15 slots, l_eff 10, no values). Any change to
    // packing, the diagonal structure, BSGS planning or bootstrap
    // placement that moves a count shows here.
    CompileOptions opt;
    opt.slots = u64(1) << 15;
    opt.l_eff = 10;
    opt.structural_only = true;
    opt.calibration_samples = 2;
    const CompiledNetwork cn =
        core::compile(nn::make_model("resnet20-relu"), opt);
    EXPECT_EQ(cn.total_rotations, 1154u);
    EXPECT_EQ(cn.num_bootstraps, 38u);
    EXPECT_EQ(cn.total_pmults, 16017u);
    EXPECT_EQ(cn.total_mult_depth, 334);
    EXPECT_EQ(cn.activation_depth, 304);
}

}  // namespace
}  // namespace orion::test
