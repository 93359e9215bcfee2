/**
 * @file
 * ResNet-20 on CIFAR-10-sized inputs: the FHE community's standard
 * benchmark (Table 2/4 of the paper). A simulation-only orion::Session
 * compiles the full network (single-shot multiplexed packing + automatic
 * bootstrap placement) at paper-scale slots, prints the level-management
 * policy for the first residual block, and validates the functional FHE
 * execution against the cleartext network.
 */

#include <cstdio>
#include <random>

#include "src/core/orion.h"

using namespace orion;

int
main(int argc, char** argv)
{
    const bool silu = argc > 1 && std::string(argv[1]) == "--silu";
    const nn::Network net =
        nn::make_model(silu ? "resnet20-silu" : "resnet20-relu");
    std::printf("%s: %.2fM params, %.1fM multiplies\n",
                net.network_name().c_str(), net.param_count() / 1e6,
                net.flop_count() / 1e6);

    // Paper scale: N = 2^16 -> 2^15 slots, l_eff 10 (the session default).
    Session session = Session::simulation();
    core::CompileOptions opt;
    opt.structural_only = true;
    opt.calibration_samples = 2;
    const core::CompiledNetwork& cn = session.compile(net, opt);
    std::printf("compiled in %.1f s (placement %.2f s)\n",
                cn.compile_seconds, cn.placement_seconds);
    std::printf("rotations %llu | activation depth %d | bootstraps %llu | "
                "modeled latency %.0f s\n",
                static_cast<unsigned long long>(cn.total_rotations),
                cn.activation_depth,
                static_cast<unsigned long long>(cn.num_bootstraps),
                cn.modeled_latency);
    std::printf("(paper, %s: 836 rots, depth %s, %s boots, %s s)\n",
                silu ? "SiLU" : "ReLU", silu ? "154" : "287",
                silu ? "19" : "37", silu ? "301" : "618");

    std::printf("\nlevel policy (first 14 units):\n");
    int shown = 0;
    for (const core::Instruction& d : cn.placement.decisions) {
        if (shown++ >= 14) break;
        std::printf("  %-12s level %2d (layer %d)\n", core::to_string(d.op),
                    d.level, d.layer_id);
    }

    // Functional FHE inference vs cleartext.
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> image(3 * 32 * 32);
    for (double& x : image) x = dist(rng);

    const core::ExecutionResult r = session.simulate(image);
    const std::vector<double> clear = net.forward(image);
    double mean_err = 0;
    std::size_t ic = 0, ie = 0;
    for (std::size_t i = 0; i < clear.size(); ++i) {
        mean_err += std::abs(r.output[i] - clear[i]);
        if (clear[i] > clear[ic]) ic = i;
        if (r.output[i] > r.output[ie]) ie = i;
    }
    mean_err /= static_cast<double>(clear.size());
    std::printf("\nFHE output precision: %.1f bits (paper: %s b); "
                "top-1 %s; %llu bootstraps executed\n",
                -std::log2(mean_err), silu ? "13.6" : "4.8",
                ic == ie ? "matches cleartext" : "DIFFERS",
                static_cast<unsigned long long>(r.bootstraps));
    return 0;
}
