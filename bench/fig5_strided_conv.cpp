/**
 * @file
 * Figure 5: strided convolutions under raster packing produce Toeplitz
 * matrices with many sparse nonzero diagonals (a); single-shot multiplexed
 * packing (gap_out = gap_in * stride) keeps them densely diagonal (b).
 * This bench sweeps strides and channel counts, reporting nonzero-diagonal
 * and rotation counts for both packings plus the Lee-et-al. two-level
 * alternative.
 */

#include "bench/bench_util.h"
#include "src/baselines/lee_packing.h"

using namespace orion;

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_header(
        "Figure 5: strided convolutions - raster Toeplitz vs single-shot "
        "multiplexed");

    const u64 slots = 1u << 14;
    std::printf("%-30s %12s %12s | %12s %12s | %10s %6s\n", "conv",
                "raster diag", "raster rot", "mux diag", "mux rot",
                "Lee rot", "depth");

    struct Case {
        int ci, co, h, w, k, stride;
    };
    const std::vector<Case> cases = {
        {1, 4, 16, 16, 2, 2},   // the paper's Figure 5 example family
        {3, 16, 32, 32, 3, 2},  // CIFAR stem-style
        {16, 32, 32, 32, 3, 2}, // ResNet-20 stage transition
        {32, 64, 16, 16, 3, 2}, // deeper transition
        {16, 16, 32, 32, 3, 1}, // non-strided control (identical packings)
    };

    for (const Case& c : cases) {
        lin::Conv2dSpec spec;
        spec.in_channels = c.ci;
        spec.out_channels = c.co;
        spec.kernel_h = spec.kernel_w = c.k;
        spec.stride = c.stride;
        spec.pad = c.k / 2;
        const lin::TensorLayout in(c.ci, c.h, c.w, 1);

        // Raster: output stays gap 1 (Figure 5a).
        const lin::TensorLayout raster_out(c.co, spec.out_h(c.h),
                                           spec.out_w(c.w), 1);
        const lin::BlockedStructure raster =
            lin::build_conv_structure(spec, in, raster_out, slots);
        const lin::BlockedPlan raster_plan = lin::BlockedPlan::build(raster);

        // Multiplexed: gap_out = stride (Figure 5b).
        const lin::TensorLayout mux_out = lin::conv_output_layout(spec, in);
        const lin::BlockedStructure mux =
            lin::build_conv_structure(spec, in, mux_out, slots);
        const lin::BlockedPlan mux_plan = lin::BlockedPlan::build(mux);

        const baselines::LeeLayerCounts lee =
            baselines::lee_conv_counts(spec, in, slots);

        char name[64];
        std::snprintf(name, sizeof(name), "%dx%d %d->%d k%d s%d", c.h, c.w,
                      c.ci, c.co, c.k, c.stride);
        std::printf("%-30s %12llu %12llu | %12llu %12llu | %10llu %6d\n",
                    name,
                    static_cast<unsigned long long>(raster.num_diagonals()),
                    static_cast<unsigned long long>(
                        raster_plan.rotation_count()),
                    static_cast<unsigned long long>(mux.num_diagonals()),
                    static_cast<unsigned long long>(
                        mux_plan.rotation_count()),
                    static_cast<unsigned long long>(lee.rotations),
                    lee.depth);
    }
    std::printf("\n(multiplexed depth is always 1; Lee et al. strided "
                "convs cost depth 2)\n");
    return 0;
}
