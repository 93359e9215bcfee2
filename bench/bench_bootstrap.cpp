/**
 * @file
 * Microbenchmark of the public-key bootstrap circuit: the wall-clock
 * split across ModRaise / CoeffToSlot / EvalMod / SlotToCoeff, the
 * round-trip precision, key material sizes, and a cross-check of the
 * measured latency against the cost model's Figure-1c analytic schedule
 * (the same model bootstrap placement optimizes with).
 */

#include "bench/bench_util.h"
#include "src/core/telemetry.h"

using namespace orion;

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_header(
        "bench_bootstrap: public-key CtS -> EvalMod -> StC split");

    // --paper: the N = 2^16 paper-scale ring (CkksParams::bootstrap_full)
    // instead of the N = 2^11 toy — a real measured full-size bootstrap,
    // minutes of keygen + one pass rather than a microbenchmark loop.
    bool paper = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--paper") == 0) paper = true;
    }
    const int l_eff = paper ? 4 : 3;
    ckks::CkksParams params =
        paper ? ckks::CkksParams::bootstrap_full(l_eff)
              : ckks::CkksParams::bootstrap_toy(l_eff);
    ckks::BootstrapParams opts{};
    if (paper) {
        // At N = 2^16 the special-FFT depth is 15; two collapsed stages
        // would mean 2^8-diagonal matrices whose quantization noise eats
        // ~7 bits of the round-trip. Three stages keep the per-stage
        // radix at the toy point's 2^5 (l_boot 15, still the paper's
        // Table-1 shape) and need fewer BSGS rotations overall.
        opts.cts_levels = 3;
        opts.stc_levels = 3;
        params.num_scale_primes += 2;
    }
    const ckks::Context ctx(params);
    const ckks::Encoder encoder(ctx);

    std::shared_ptr<const ckks::BootstrapPlan> built;
    const double t_plan = bench::time_once([&] {
        built = std::make_shared<const ckks::BootstrapPlan>(
            ckks::BootstrapPlan::build(params, opts));
    });
    const ckks::BootstrapCircuit boot(ctx, encoder, built, l_eff);
    const ckks::BootstrapPlan& plan = boot.plan();
    ckks::KeyGenerator keygen(ctx, /*seed=*/7);
    const ckks::PublicKey pk = keygen.make_public_key();
    const ckks::KswitchKey relin = keygen.make_relin_key();
    const std::vector<ckks::GaloisKeyRequest> requests =
        plan.galois_requests(l_eff);
    ckks::GaloisKeys galois;
    const double t_keys = bench::time_once([&] {
        galois = keygen.make_galois_keys(
            std::span<const ckks::GaloisKeyRequest>(requests), true,
            plan.conjugation_level(l_eff));
    });
    ckks::Encryptor encryptor(ctx, pk);
    ckks::Decryptor decryptor(ctx, keygen.secret_key());
    ckks::Evaluator eval(ctx, encoder);
    eval.set_relin_key(&relin);
    eval.set_galois_keys(&galois);

    std::printf("\nparameters: N = 2^%d, log Delta = %d, log q0 = %d, "
                "secret weight %d\n",
                ctx.log_degree(), params.log_scale, params.first_prime_bits,
                params.secret_weight);
    std::printf("circuit: l_boot %d = CtS %d + EvalMod %d + StC %d | "
                "K = %d, sine degree %d, double angle %d\n",
                plan.depth, plan.params.cts_levels, plan.eval_depth,
                plan.params.stc_levels, plan.params.k_range,
                plan.eval_degree, plan.params.double_angle);
    std::printf("keys: %zu Galois elements (level-pruned), %.1f MB | "
                "plan %.0f ms, keygen %.0f ms\n",
                galois.keys.size(),
                static_cast<double>(galois.byte_size()) / (1024 * 1024),
                t_plan * 1e3, t_keys * 1e3);
    bench::json_metric("log_degree", ctx.log_degree());
    bench::json_metric("l_eff", l_eff);
    bench::json_metric("l_boot", plan.depth);
    bench::json_metric("eval_degree", plan.eval_degree);
    bench::json_metric("galois_mb",
                       static_cast<double>(galois.byte_size()) /
                           (1024 * 1024));

    const u64 n = ctx.slot_count();
    const std::vector<double> input = bench::random_vector(n, 1.0, 5);
    const ckks::Ciphertext ct =
        encryptor.encrypt(encoder.encode(input, 0, ctx.scale()));

    // One pass at paper scale (the single-shot wall-clock IS the result);
    // median of 5 at toy scale. The stage split is the mean over those
    // passes of the registry's always-on boot.*.seconds histograms.
    const int iters = paper ? 1 : bench::reps(5);
    telemetry::Registry& reg = telemetry::Registry::global();
    const char* const stages[] = {"mod_raise", "cts", "eval_mod", "stc"};
    std::vector<const telemetry::Histogram*> hists;
    std::vector<std::pair<u64, double>> before;
    for (const char* stage : stages) {
        hists.push_back(
            &reg.histogram(std::string("boot.") + stage + ".seconds"));
        before.emplace_back(hists.back()->count(), hists.back()->sum());
    }
    ckks::Ciphertext out;
    const double total = bench::time_median(iters, [&] {
        out = boot.bootstrap(eval, ct);
    });
    std::vector<double> stage_ms;
    for (std::size_t i = 0; i < hists.size(); ++i) {
        stage_ms.push_back(
            1e3 * (hists[i]->sum() - before[i].second) /
            static_cast<double>(hists[i]->count() - before[i].first));
    }

    const std::vector<double> got =
        encoder.decode(decryptor.decrypt(out));
    const double bits = bench::precision_bits(got, input);

    std::printf("\n%-14s %10s\n", "stage", "ms");
    std::printf("%-14s %10.2f\n", "mod raise", stage_ms[0]);
    std::printf("%-14s %10.2f\n", "coeff-to-slot", stage_ms[1]);
    std::printf("%-14s %10.2f\n", "eval-mod", stage_ms[2]);
    std::printf("%-14s %10.2f\n", "slot-to-coeff", stage_ms[3]);
    std::printf("%-14s %10.2f   (precision %.1f bits)\n", "total",
                total * 1e3, bits);

    // Figure-1c cross-check: the analytic schedule the placement solver
    // prices bootstraps with, calibrated like Session::compile does
    // (measured l_boot from the plan).
    core::CostModel cost = core::CostModel::for_params(
        ctx.degree(), params.digit_size, params.digit_size, plan.depth);
    const double modeled = cost.bootstrap(l_eff);
    std::printf("\ncost model: %.2f ms modeled vs %.2f ms measured "
                "(ratio %.2fx; calibrate() closes the constant)\n",
                modeled * 1e3, total * 1e3,
                total / std::max(modeled, 1e-12));

    for (std::size_t i = 0; i < stage_ms.size(); ++i) {
        bench::json_metric(std::string(stages[i]) + "_ms", stage_ms[i]);
    }
    bench::json_metric("total_ms", total * 1e3);
    bench::json_metric("modeled_ms", modeled * 1e3);
    bench::json_metric("precision_bits", bits);

    // Stage medians from the same histograms, the schema a live server's
    // metrics_text() scrape exposes.
    bench::json_metric("cts_p50_ms",
                       1e3 * reg.histogram("boot.cts.seconds")
                                 .percentile(50.0));
    bench::json_metric("eval_mod_p50_ms",
                       1e3 * reg.histogram("boot.eval_mod.seconds")
                                 .percentile(50.0));
    bench::json_metric("stc_p50_ms",
                       1e3 * reg.histogram("boot.stc.seconds")
                                 .percentile(50.0));

    if (bits < 15.0) {
        std::fprintf(stderr, "FAIL: bootstrap precision %.1f bits < 15\n",
                     bits);
        return 1;
    }
    return 0;
}
