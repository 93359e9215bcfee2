/**
 * @file
 * Table 4: sources of Orion's ResNet-20 improvement over Fhelipe.
 * Columns: rotation count, bootstrap count, convolution time, end-to-end
 * latency.
 *
 * Paper: 1428 -> 836 rotations (1.71x), 58 -> 37 bootstraps (1.58x),
 * conv time 334.5 -> 29.89 s (11.2x, from hoisting + precomputed
 * encodings), latency 1468 -> 618 s (2.38x). Here the baseline is
 * reconstructed from the same ingredients the paper names: diagonal-method
 * packing without BSGS, lazy bootstrap placement, un-hoisted rotations
 * with on-the-fly encoding. Conv-time ratios are *measured* on the CKKS
 * substrate; end-to-end latency uses the paper-scale cost model.
 */

#include "bench/bench_util.h"
#include "src/baselines/unhoisted.h"

using namespace orion;

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_header(
        "Table 4: ResNet-20 breakdown, Orion vs Fhelipe-style baseline");

    const nn::Network net = nn::make_resnet_cifar(20, nn::Act::kRelu);
    const u64 slots = u64(1) << 15;

    // Orion compilation.
    core::CompileOptions orion_opt;
    orion_opt.slots = slots;
    orion_opt.l_eff = 10;
    orion_opt.structural_only = true;
    orion_opt.calibration_samples = 1;
    const core::CompiledNetwork orion_cn = core::compile(net, orion_opt);

    // Baseline compilation: no BSGS (per-diagonal rotations) and the lazy
    // bootstrap-when-forced placement Section 5.1 warns about.
    core::CompileOptions base_opt = orion_opt;
    base_opt.use_bsgs = false;
    base_opt.lazy_placement = true;
    const core::CompiledNetwork base_cn = core::compile(net, base_opt);

    std::printf("%-22s %14s %14s %10s\n", "metric", "baseline", "Orion",
                "ratio");
    std::printf("%-22s %14llu %14llu %9.2fx   (paper 1.71x)\n",
                "# rotations",
                static_cast<unsigned long long>(base_cn.total_rotations),
                static_cast<unsigned long long>(orion_cn.total_rotations),
                static_cast<double>(base_cn.total_rotations) /
                    static_cast<double>(orion_cn.total_rotations));
    std::printf("%-22s %14llu %14llu %9.2fx   (paper 1.58x)\n",
                "# bootstraps",
                static_cast<unsigned long long>(base_cn.num_bootstraps),
                static_cast<unsigned long long>(orion_cn.num_bootstraps),
                static_cast<double>(std::max<u64>(base_cn.num_bootstraps, 1)) /
                    static_cast<double>(
                        std::max<u64>(orion_cn.num_bootstraps, 1)));
    std::printf("%-22s %14.1f %14.1f %9.2fx   (paper 2.38x)\n",
                "modeled latency (s)", base_cn.modeled_latency,
                orion_cn.modeled_latency,
                base_cn.modeled_latency / orion_cn.modeled_latency);

    // Measured convolution time: a representative ResNet-20 conv (16->16,
    // 3x3 on 32x32) at functional parameters, hoisted + precomputed vs
    // un-hoisted + on-the-fly encoding.
    ckks::CkksParams params = ckks::CkksParams::network(u64(1) << 13, 12);
    ckks::Context ctx(params);
    ckks::Encoder enc(ctx);
    ckks::KeyGenerator keygen(ctx, 7);
    const ckks::PublicKey pk = keygen.make_public_key();
    ckks::Encryptor encryptor(ctx, pk);
    ckks::Evaluator eval(ctx, enc);

    const u64 dim = ctx.slot_count();
    lin::Conv2dSpec spec;
    spec.in_channels = 4;
    spec.out_channels = 4;
    spec.kernel_h = spec.kernel_w = 3;
    spec.pad = 1;
    const lin::TensorLayout in(4, 16, 16, 1);
    const lin::TensorLayout out = lin::conv_output_layout(spec, in);
    const std::vector<double> w =
        bench::random_vector(spec.weight_count(), 1.0, 9);
    const lin::BlockedMatrix bm =
        lin::build_conv_matrix(spec, w, in, out, dim);
    const lin::DiagonalMatrix* block = bm.block(0, 0);
    const lin::BsgsPlan plan = lin::BsgsPlan::build(*block);
    ckks::GaloisKeys galois = keygen.make_galois_keys(plan.required_steps());
    eval.set_galois_keys(&galois);

    const int level = 10;
    const double w_scale = static_cast<double>(ctx.q(level).value());
    const ckks::Ciphertext ct = encryptor.encrypt(enc.encode(
        in.pack(bench::random_vector(4 * 16 * 16, 1.0, 10), dim), level,
        ctx.scale()));

    const lin::HeBlockedMatrix he(ctx, enc, *block, plan, level, w_scale);
    const double t_orion = bench::time_median(
        bench::reps(3), [&] { (void)he.apply(eval, {&ct, 1}); });
    const double t_base = bench::time_median(bench::reps(3), [&] {
        (void)baselines::apply_unhoisted(eval, enc, *block, plan, level,
                                         w_scale, ct);
    });
    std::printf("%-22s %14.1f %14.1f %9.2fx   (paper 11.2x)\n",
                "conv time (ms, meas.)", t_base * 1e3, t_orion * 1e3,
                t_base / t_orion);
    std::printf(
        "\nNotes: baseline = diagonal-method packing + lazy placement + "
        "un-hoisted rotations +\non-the-fly encoding (the ingredients Table "
        "4 attributes to Fhelipe). Lazy placement\nbootstraps only when a "
        "unit cannot run: each ReLU's sign stages use up the levels,\nso "
        "its x * sign(x) join bootstraps both inputs, and every op runs at "
        "the highest\nlevel available. Orion's placement instead minimizes "
        "the modeled latency of the\nemitted program. The measured conv row "
        "isolates hoisting + precomputed encodings\nonly; the paper's 11.2x "
        "also includes Fhelipe's packing overheads.\n");
    return 0;
}
