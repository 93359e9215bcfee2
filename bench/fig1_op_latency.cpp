/**
 * @file
 * Figure 1: latencies of PMult (a), HRot (b), and Bootstrap (c) as a
 * function of ciphertext level.
 *
 * PMult and HRot are *measured* on the from-scratch CKKS substrate at a
 * functional ring degree; bootstrap latency comes from the analytic cost
 * model at the paper's N = 2^16 scale (bench_bootstrap --paper measures
 * the real circuit there), and the measured rotation at the top level
 * calibrates the model's single constant. The paper's qualitative shape -
 * roughly linear growth for PMult/HRot in level, superlinear growth of
 * bootstrap latency with L_eff - is the reproduction target.
 */

#include "bench/bench_util.h"

using namespace orion;

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_header(
        "Figure 1: homomorphic op latency vs ciphertext level");

    ckks::CkksParams params;
    params.poly_degree = u64(1) << 13;
    params.log_scale = 35;
    params.first_prime_bits = 45;
    params.num_scale_primes = 12;
    params.special_prime_bits = 46;
    params.digit_size = 3;
    ckks::Context ctx(params);
    ckks::Encoder enc(ctx);
    ckks::KeyGenerator keygen(ctx, 7);
    const ckks::PublicKey pk = keygen.make_public_key();
    const std::vector<int> steps = {1};
    ckks::GaloisKeys galois = keygen.make_galois_keys(steps);
    ckks::Encryptor encryptor(ctx, pk);
    ckks::Evaluator eval(ctx, enc);
    eval.set_galois_keys(&galois);

    const std::vector<double> m =
        bench::random_vector(ctx.slot_count(), 1.0, 1);

    std::printf("(measured, N = 2^13)\n");
    std::printf("%6s %14s %14s\n", "level", "PMult (ms)", "HRot (ms)");
    double top_rot = 0.0;
    for (int level = 1; level <= ctx.max_level(); ++level) {
        // Smoke: the endpoints are enough to exercise the code path.
        if (bench::smoke() && level != 1 && level != ctx.max_level()) {
            continue;
        }
        const ckks::Plaintext pt = enc.encode(m, level, ctx.scale());
        const ckks::Ciphertext ct = encryptor.encrypt(pt);
        const double t_pmult = bench::time_median(bench::reps(5), [&] {
            ckks::Ciphertext c = ct;
            eval.mul_plain_inplace(c, pt);
        });
        const double t_rot = bench::time_median(bench::reps(5), [&] {
            (void)eval.rotate(ct, 1);
        });
        if (level == ctx.max_level()) top_rot = t_rot;
        std::printf("%6d %14.3f %14.3f\n", level, t_pmult * 1e3,
                    t_rot * 1e3);
        bench::json_metric("pmult_ms_level_" + std::to_string(level),
                           t_pmult * 1e3);
        bench::json_metric("hrot_ms_level_" + std::to_string(level),
                           t_rot * 1e3);
    }

    // Calibrate the paper-scale model from the measured rotation, then
    // report the modeled bootstrap latency (Figure 1c).
    core::CostModel small =
        core::CostModel::for_params(params.poly_degree, params.digit_size,
                                    params.digit_size, 3);
    small.calibrate(top_rot, ctx.max_level());
    core::CostModel paper = core::CostModel::paper_scale();
    paper.calibrate(top_rot * 8.0 * 16.0 / 13.0, ctx.max_level());

    std::printf("\n(modeled bootstrap, N = 2^16, L_boot = 14; Figure 1c)\n");
    std::printf("%6s %18s\n", "L_eff", "Bootstrap (s)");
    double prev = 0.0;
    double prev_growth = 0.0;
    bool superlinear = true;
    for (int l_eff = 2; l_eff <= 16; l_eff += 2) {
        const double t = paper.bootstrap(l_eff);
        std::printf("%6d %18.3f\n", l_eff, t);
        if (prev > 0.0) {
            const double growth = t - prev;
            if (prev_growth > 0.0 && growth < prev_growth) {
                superlinear = false;
            }
            prev_growth = growth;
        }
        prev = t;
    }
    std::printf("\nshape check: bootstrap latency grows %s with L_eff "
                "(paper: superlinear)\n",
                superlinear ? "superlinearly" : "sublinearly");
    return 0;
}
