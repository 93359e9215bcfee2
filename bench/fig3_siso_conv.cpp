/**
 * @file
 * Figures 3 & 4: the packed-SISO method of Gazelle is the diagonal method
 * applied to the convolution's Toeplitz matrix; Orion's contribution is
 * recognizing this and applying BSGS + hoisting. This bench counts
 * rotations both ways for SISO (Figure 3) and MIMO (Figure 4)
 * convolutions and validates correctness under encryption.
 */

#include "bench/bench_util.h"

using namespace orion;

namespace {

void
report(const char* name, const lin::Conv2dSpec& spec,
       const lin::TensorLayout& in, u64 slots)
{
    const lin::TensorLayout out = lin::conv_output_layout(spec, in);
    const lin::BlockedStructure s =
        lin::build_conv_structure(spec, in, out, slots);
    const lin::BlockedPlan gazelle = lin::BlockedPlan::build(s, /*n1=*/1);
    const lin::BlockedPlan orion = lin::BlockedPlan::build(s);
    std::printf("%-28s %10llu %14llu %14llu\n", name,
                static_cast<unsigned long long>(s.num_diagonals()),
                static_cast<unsigned long long>(gazelle.rotation_count()),
                static_cast<unsigned long long>(orion.rotation_count()));
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_header(
        "Figures 3-4: packed SISO/MIMO conv = Toeplitz diagonal method;\n"
        "Orion adds BSGS (rotations O(f) -> O(sqrt f))");

    const u64 slots = 1u << 14;
    std::printf("%-28s %10s %14s %14s\n", "convolution", "#diags",
                "Gazelle rots", "Orion rots");

    {  // Figure 3: 3x3 SISO same-style conv on 32x32.
        lin::Conv2dSpec spec;
        spec.kernel_h = spec.kernel_w = 3;
        spec.pad = 1;
        report("SISO 3x3 (32x32)", spec, lin::TensorLayout(1, 32, 32, 1),
               slots);
    }
    {  // Figure 4: MIMO ci = co = 2.
        lin::Conv2dSpec spec;
        spec.in_channels = spec.out_channels = 2;
        spec.kernel_h = spec.kernel_w = 3;
        spec.pad = 1;
        report("MIMO 2->2 3x3 (32x32)", spec,
               lin::TensorLayout(2, 32, 32, 1), slots);
    }
    {  // Larger MIMO: the BSGS advantage grows with filter count.
        lin::Conv2dSpec spec;
        spec.in_channels = 16;
        spec.out_channels = 16;
        spec.kernel_h = spec.kernel_w = 3;
        spec.pad = 1;
        report("MIMO 16->16 3x3 (32x32)", spec,
               lin::TensorLayout(16, 32, 32, 1), slots);
    }
    {
        lin::Conv2dSpec spec;
        spec.in_channels = 32;
        spec.out_channels = 64;
        spec.kernel_h = spec.kernel_w = 5;
        spec.pad = 2;
        report("MIMO 32->64 5x5 (16x16)", spec,
               lin::TensorLayout(32, 16, 16, 1), slots);
    }

    // Correctness under encryption for the Figure 3 example.
    ckks::CkksParams params = ckks::CkksParams::toy();
    ckks::Context ctx(params);
    ckks::Encoder enc(ctx);
    ckks::KeyGenerator keygen(ctx, 7);
    const ckks::PublicKey pk = keygen.make_public_key();
    ckks::Encryptor encryptor(ctx, pk);
    ckks::Evaluator eval(ctx, enc);

    lin::Conv2dSpec spec;
    spec.kernel_h = spec.kernel_w = 3;
    spec.pad = 1;
    const lin::TensorLayout in(1, 16, 16, 1);
    const lin::TensorLayout out = lin::conv_output_layout(spec, in);
    const std::vector<double> w = bench::random_vector(9, 1.0, 7);
    const lin::BlockedMatrix m =
        lin::build_conv_matrix(spec, w, in, out, ctx.slot_count());
    const lin::BlockedPlan plan = lin::BlockedPlan::build(m);
    ckks::GaloisKeys galois = keygen.make_galois_keys(plan.required_steps());
    eval.set_galois_keys(&galois);
    const lin::HeBlockedMatrix he(ctx, enc, m, plan, 2,
                                  static_cast<double>(ctx.q(2).value()));

    const std::vector<double> img = bench::random_vector(256, 1.0, 8);
    const std::vector<ckks::Ciphertext> cts = {encryptor.encrypt(enc.encode(
        in.pack(img, ctx.slot_count()), 2, ctx.scale()))};
    const double t = bench::time_median(bench::reps(3),
                                        [&] { (void)he.apply(eval, cts); });
    const std::vector<ckks::Ciphertext> y = he.apply(eval, cts);
    ckks::Decryptor dec(ctx, keygen.secret_key());
    const std::vector<double> got =
        out.unpack(enc.decode(dec.decrypt(y[0])));
    const std::vector<double> want =
        lin::conv2d_reference(spec, w, img, 16, 16);
    std::printf("\nSISO 3x3 under encryption: %.2f ms, max err %.2e "
                "(vs cleartext conv)\n",
                t * 1e3, bench::max_abs_diff(got, want));
    return 0;
}
