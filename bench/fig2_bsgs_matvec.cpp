/**
 * @file
 * Figure 2: the diagonal method (a) needs one rotation per nonzero
 * diagonal; BSGS (b) reduces an n x n matvec to ~2*sqrt(n) rotations.
 * Rotation counts are exact (from the plans); times are measured on the
 * CKKS substrate for the slot-sized case.
 */

#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/ckks/serial.h"

using namespace orion;

namespace {

/**
 * The giant-group inner sum sum_t ct_t * pt_t at N = 2^13, level 8, one
 * thread: the eager per-term loop (a ciphertext copy, a PMult, and an
 * HAdd per term) against Evaluator::mul_plain_sum's one lazy-reduction
 * pass. Returns false if the two ever differ in a single residue.
 */
bool
inner_sum_table()
{
    const core::ScopedPoolOverride serial(1);
    const ckks::Context ctx(ckks::CkksParams::network());
    const ckks::Encoder enc(ctx);
    ckks::KeyGenerator keygen(ctx, 7);
    const ckks::PublicKey pk = keygen.make_public_key();
    ckks::Encryptor encryptor(ctx, pk);
    const ckks::Evaluator eval(ctx, enc);

    const int level = 8;
    const std::vector<std::size_t> term_counts = {4, 8, 16, 32, 64};
    const std::size_t max_terms = term_counts.back();
    const double w_scale = static_cast<double>(ctx.q(level).value());
    std::vector<ckks::Ciphertext> cts;
    std::vector<ckks::Plaintext> pts;
    for (std::size_t t = 0; t < max_terms; ++t) {
        cts.push_back(encryptor.encrypt(enc.encode(
            bench::random_vector(ctx.slot_count(), 1.0, 100 + t), level,
            ctx.scale())));
        pts.push_back(enc.encode(
            bench::random_vector(ctx.slot_count(), 0.5, 300 + t), level,
            w_scale));
    }
    std::vector<const ckks::Ciphertext*> ct_ptrs;
    std::vector<const ckks::Plaintext*> pt_ptrs;
    for (std::size_t t = 0; t < max_terms; ++t) {
        ct_ptrs.push_back(&cts[t]);
        pt_ptrs.push_back(&pts[t]);
    }

    std::printf("\nGiant-group inner sum per term, eager vs fused "
                "(N = 2^13, level %d, 1 thread):\n", level);
    std::printf("%8s %14s %14s %10s %10s\n", "terms", "eager us/term",
                "fused us/term", "speedup", "output");
    bool identical = true;
    for (const std::size_t terms : term_counts) {
        const auto eager = [&] {
            ckks::Ciphertext sum = eval.mul_plain(cts[0], pts[0]);
            for (std::size_t t = 1; t < terms; ++t) {
                eval.add_inplace(sum, eval.mul_plain(cts[t], pts[t]));
            }
            return sum;
        };
        const auto fused = [&] {
            return eval.mul_plain_sum({ct_ptrs.data(), terms},
                                      {pt_ptrs.data(), terms});
        };
        const double t_eager =
            bench::time_median(bench::reps(7), [&] { (void)eager(); });
        const double t_fused =
            bench::time_median(bench::reps(7), [&] { (void)fused(); });
        const ckks::Ciphertext a = eager();
        const ckks::Ciphertext b = fused();
        const bool same = ckks::serial::serialize(a) ==
                          ckks::serial::serialize(b);
        identical = identical && same;
        const double per = 1e6 / static_cast<double>(terms);
        std::printf("%8zu %14.1f %14.1f %9.2fx %10s\n", terms, t_eager * per,
                    t_fused * per, t_eager / t_fused,
                    same ? "identical" : "DIFFERS");
        const std::string suffix = "_T" + std::to_string(terms);
        bench::json_metric("inner_sum_eager_us_per_term" + suffix,
                           t_eager * per);
        bench::json_metric("inner_sum_fused_us_per_term" + suffix,
                           t_fused * per);
    }
    if (!identical) {
        std::fprintf(stderr, "FAIL: fused inner sum differs from the eager "
                             "mul_plain + add_inplace loop\n");
    }
    return identical;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::print_header(
        "Figure 2: diagonal method vs BSGS matrix-vector products");

    std::printf("%8s %16s %14s %14s\n", "n", "diag rots O(n)",
                "BSGS rots", "BSGS n1");
    for (u64 n : {64ull, 256ull, 1024ull, 4096ull, 16384ull}) {
        std::vector<u64> all(n);
        for (u64 i = 0; i < n; ++i) all[i] = i;
        const lin::BsgsPlan diag = lin::BsgsPlan::build_from_indices(n, all, 1);
        const lin::BsgsPlan bsgs = lin::BsgsPlan::build_from_indices(n, all);
        std::printf("%8llu %16llu %14llu %14llu\n",
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(diag.rotation_count()),
                    static_cast<unsigned long long>(bsgs.rotation_count()),
                    static_cast<unsigned long long>(bsgs.n1));
    }

    // Measured: a dense slot-sized matvec under both plans.
    ckks::CkksParams params = ckks::CkksParams::toy();
    ckks::Context ctx(params);
    ckks::Encoder enc(ctx);
    ckks::KeyGenerator keygen(ctx, 7);
    const ckks::PublicKey pk = keygen.make_public_key();
    ckks::Encryptor encryptor(ctx, pk);
    ckks::Evaluator eval(ctx, enc);

    const u64 dim = ctx.slot_count();
    lin::DiagonalMatrix m(dim);
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> dist(-0.5, 0.5);
    // A 64-diagonal band keeps encode time manageable while showing the
    // rotation gap.
    for (u64 k = 0; k < 64; ++k) {
        for (u64 r = 0; r < dim; ++r) m.set(r, (r + k) % dim, dist(rng));
    }
    const lin::BsgsPlan plan_diag = lin::BsgsPlan::build(m, 1);
    const lin::BsgsPlan plan_bsgs = lin::BsgsPlan::build(m);

    std::vector<int> steps = plan_diag.required_steps();
    for (int s : plan_bsgs.required_steps()) steps.push_back(s);
    ckks::GaloisKeys galois = keygen.make_galois_keys(steps);
    eval.set_galois_keys(&galois);

    const int level = 3;
    const double w_scale = static_cast<double>(ctx.q(level).value());
    const lin::HeBlockedMatrix he_diag(ctx, enc, m, plan_diag, level,
                                       w_scale);
    const lin::HeBlockedMatrix he_bsgs(ctx, enc, m, plan_bsgs, level,
                                       w_scale);
    const ckks::Ciphertext ct = encryptor.encrypt(
        enc.encode(bench::random_vector(dim, 1.0, 6), level, ctx.scale()));

    const double t_diag = bench::time_median(
        bench::reps(3), [&] { (void)he_diag.apply(eval, {&ct, 1}); });
    const double t_bsgs = bench::time_median(
        bench::reps(3), [&] { (void)he_bsgs.apply(eval, {&ct, 1}); });
    std::printf("\n(measured, N = 2^11, 64-diagonal band, slot dim %llu)\n",
                static_cast<unsigned long long>(dim));
    std::printf("diagonal method: %4llu rots, %8.2f ms\n",
                static_cast<unsigned long long>(plan_diag.rotation_count()),
                t_diag * 1e3);
    std::printf("BSGS:            %4llu rots, %8.2f ms  (%.2fx faster)\n",
                static_cast<unsigned long long>(plan_bsgs.rotation_count()),
                t_bsgs * 1e3, t_diag / t_bsgs);
    bench::json_metric("diag_matvec_ms", t_diag * 1e3);
    bench::json_metric("bsgs_matvec_ms", t_bsgs * 1e3);

    // Thread scaling of the same BSGS matvec: the decrypted output must be
    // identical at every thread count (the runtime's determinism
    // guarantee), only the wall clock may change.
    ckks::Decryptor dec(ctx, keygen.secret_key());
    std::printf("\nBSGS matvec thread scaling (num_threads knob; "
                "%u hardware threads on this host):\n",
                std::thread::hardware_concurrency());
    std::printf("%8s %12s %10s %12s\n", "threads", "ms", "speedup",
                "output");
    double t1 = 0.0;
    std::vector<double> out1;
    bool diverged = false;
    for (int threads : {1, 2, 4, 8}) {
        const core::ScopedPoolOverride scoped(threads);
        const double t = bench::time_median(
            bench::reps(3), [&] { (void)he_bsgs.apply(eval, {&ct, 1}); });
        const std::vector<double> out = enc.decode(
            dec.decrypt(he_bsgs.apply(eval, {&ct, 1}).front()));
        if (threads == 1) {
            t1 = t;
            out1 = out;
        }
        const double diff = bench::max_abs_diff(out, out1);
        if (diff != 0.0) diverged = true;
        std::printf("%8d %12.2f %9.2fx %12s\n", threads, t * 1e3, t1 / t,
                    diff == 0.0 ? "identical" : "DIVERGED");
        bench::json_metric("bsgs_matvec_ms_threads_" + std::to_string(threads),
                           t * 1e3);
    }
    if (std::thread::hardware_concurrency() <= 1) {
        std::printf("(single-core host: speedup requires multiple cores; "
                    "outputs above still verify determinism)\n");
    }
    if (diverged) {
        std::fprintf(stderr, "FAIL: multithreaded BSGS output diverged "
                             "from num_threads=1\n");
        return 1;
    }
    return inner_sum_table() ? 0 : 1;
}
