/**
 * @file
 * Table 2: the main benchmark suite. One row per network/activation:
 * parameters, FLOPs, ciphertext rotations, activation depth and total
 * depth, bootstrap count, precision (bits), and inference time. The
 * paper's MNIST rows give total depth (linear layers and activations);
 * its CIFAR and ImageNet rows give activation depth.
 *
 * Reproduction notes (see DESIGN.md, "Substitutions"):
 *  - Datasets and trained weights are unavailable offline, so the paper's
 *    accuracy columns are replaced by FHE-vs-cleartext top-1 agreement on
 *    synthetic inputs; the precision column keeps the paper's definition.
 *  - MNIST rows run under *real* RNS-CKKS end to end (they fit functional
 *    parameters); larger rows use the functional simulation backend with
 *    rotation/bootstrap counts from the compiler and latency from the
 *    paper-scale cost model (N = 2^16).
 *  - Our rescale-eager polynomial evaluator consumes ~1 extra level per
 *    activation stage vs the paper's accounting, so depth and bootstrap
 *    counts run somewhat higher at the same L_eff (see DESIGN.md,
 *    "Composite-sign depth").
 */

#include "bench/bench_util.h"

using namespace orion;

namespace {

struct Row {
    std::string model;
    bool real_fhe;  // run under real CKKS (MNIST-sized)
    const char* paper;  // "rots/actdepth/boots/prec/time" from Table 2
};

void
run_row(const Row& row)
{
    const nn::Network net = nn::make_model(row.model);
    const u64 in_size = net.shape_of(net.input_id()).size();

    // Paper-scale simulation-only session (2^15 slots, l_eff 10).
    Session session = Session::simulation();
    core::CompileOptions opt;
    opt.structural_only = true;
    opt.calibration_samples = in_size > 100000 ? 2 : 8;
    const core::CompiledNetwork& cn = session.compile(net, opt);

    // Functional run: simulation with bootstrap noise; top-1 agreement and
    // precision vs the cleartext network.
    const int trials = bench::smoke() ? 1 : (in_size > 100000 ? 1 : 4);
    int agree = 0;
    double prec = 0.0;
    for (int t = 0; t < trials; ++t) {
        const std::vector<double> x =
            bench::random_vector(in_size, 1.0, 100 + t);
        const core::ExecutionResult r = session.simulate(x);
        const std::vector<double> want = net.forward(x);
        agree += bench::same_argmax(r.output, want) ? 1 : 0;
        prec += bench::precision_bits(r.output, want);
    }
    prec /= trials;

    double real_seconds = -1.0;
    double real_prec = 0.0;
    if (row.real_fhe) {
        // Real end-to-end RNS-CKKS inference at functional parameters. A
        // program deeper than l_eff 6 would need a bootstrap the 8-level
        // chain cannot run, so it gets the 14-level chain at l_eff 10,
        // where it fits without one.
        const bool deep = cn.total_mult_depth > 6;
        Session fhe = Session::with_params(
            ckks::CkksParams::network(u64(1) << 13, deep ? 14 : 8),
            /*l_eff=*/deep ? 10 : 6);
        core::CompileOptions fopt;
        fopt.calibration_samples = opt.calibration_samples;
        fhe.compile(net, fopt);
        const std::vector<double> x =
            bench::random_vector(in_size, 1.0, 200);
        const core::ExecutionResult r = fhe.run(x);
        real_seconds = r.wall_seconds;
        real_prec = bench::precision_bits(r.output, net.forward(x));
    }

    std::printf(
        "%-14s %7.2fM %8.2fM %8llu %6d %6d %7llu %7.1fb %3d/%d %10.1f %s\n",
        row.model.c_str(), net.param_count() / 1e6, net.flop_count() / 1e6,
        static_cast<unsigned long long>(cn.total_rotations),
        cn.activation_depth, cn.total_mult_depth,
        static_cast<unsigned long long>(cn.num_bootstraps), prec, agree,
        trials, cn.modeled_latency,
        real_seconds >= 0
            ? (std::string("| real FHE: ") + std::to_string(real_seconds) +
               " s, " + std::to_string(real_prec) + " b")
                  .c_str()
            : "");
    std::printf("   paper: %s\n", row.paper);
    std::fflush(stdout);
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_header("Table 2: main results across networks/datasets");
    std::printf("%-14s %8s %9s %8s %6s %6s %7s %8s %5s %10s\n", "model",
                "params", "FLOPs", "#rots", "act.d", "depth", "#boots",
                "prec", "top1", "model t(s)");

    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick") quick = true;
    }

    std::vector<Row> rows = {
        {"mlp", true, "rots 70, depth 5, boots 0, prec 4.6b, 0.29s"},
        {"lola", true, "rots 73, depth 5, boots 0, prec 4.8b, 0.23s"},
        {"lenet5", true, "rots 282, depth 7, boots 0, prec 10.4b, 2.93s"},
        {"alexnet-relu", false,
         "rots 1470, act depth 109, boots 15, prec 4.3b, 337s"},
        {"alexnet-silu", false,
         "rots 1470, act depth 60, boots 7, prec 7.2b, 190s"},
        {"vgg16-relu", false,
         "rots 1771, act depth 227, boots 28, prec 5.1b, 589s"},
        {"vgg16-silu", false,
         "rots 1771, act depth 137, boots 14, prec 9.7b, 397s"},
        {"resnet20-relu", false,
         "rots 836, act depth 287, boots 37, prec 4.8b, 618s"},
        {"resnet20-silu", false,
         "rots 836, act depth 154, boots 19, prec 13.6b, 301s"},
    };
    if (bench::smoke()) {
        // One real-FHE MNIST row and one structural CIFAR row cover both
        // backends in seconds.
        rows = {rows[0], rows[7]};
    }
    if (!quick && !bench::smoke()) {
        rows.push_back({"mobilenet", false,
                        "rots 2508, act depth 218, boots 42, prec 8.9b, "
                        "892s"});
        rows.push_back({"resnet18", false,
                        "rots 10838, act depth 138, boots 61, prec 8.6b, "
                        "1447s"});
        rows.push_back({"resnet34", false,
                        "rots 48108, act depth 267, boots 146, prec 8.6b, "
                        "14338s"});
        rows.push_back({"resnet50", false,
                        "rots 143217, act depth 395, boots 351, prec 8.9b, "
                        "32324s"});
    }

    for (const Row& row : rows) run_row(row);

    std::printf("\nNotes: #rots/#boots are compiler-counted; 'model t' is "
                "the paper-scale (N=2^16,\nsingle-thread) cost-model "
                "latency; precision/top-1 from the functional backend\n"
                "(real CKKS for MNIST rows). Accuracy columns require the "
                "original datasets (see DESIGN.md).\n");
    return 0;
}
