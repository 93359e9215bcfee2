#include "src/ckks/bootstrap_circuit.h"

#include <chrono>
#include <cmath>
#include <mutex>
#include <numbers>
#include <set>

#include "src/core/telemetry.h"
#include "src/core/thread_pool.h"

namespace orion::ckks {

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Splits `total` stages into `groups` contiguous runs, front-loaded. */
std::vector<int>
group_sizes(int total, int groups)
{
    ORION_CHECK(groups >= 1 && groups <= total,
                "cannot collapse " << total << " FFT stages into " << groups
                                   << " levels");
    std::vector<int> sizes(static_cast<std::size_t>(groups), total / groups);
    for (int i = 0; i < total % groups; ++i) sizes[static_cast<size_t>(i)]++;
    return sizes;
}

/**
 * Collapses consecutive stage matrices (application order) into one
 * product per group. `stage_of` maps the application-order index to its
 * matrix.
 */
std::vector<ComplexDiagMatrix>
collapse_stages(u64 dim, int total, const std::vector<int>& sizes,
                const std::function<ComplexDiagMatrix(int)>& stage_of)
{
    std::vector<ComplexDiagMatrix> out;
    out.reserve(sizes.size());
    int next = 0;
    for (int size : sizes) {
        ComplexDiagMatrix acc = ComplexDiagMatrix::identity(dim);
        for (int k = 0; k < size; ++k) {
            // Combined map = stage ∘ acc (acc was applied first).
            acc = stage_of(next++).compose(acc);
            acc.prune(1e-9);
        }
        out.push_back(std::move(acc));
    }
    ORION_ASSERT(next == total);
    return out;
}

}  // namespace

// ---------------------------------------------------------------------
// BootstrapPlan
// ---------------------------------------------------------------------

BootstrapPlan
BootstrapPlan::build(const CkksParams& params, const BootstrapParams& opts)
{
    BootstrapPlan plan;
    plan.slots = params.poly_degree / 2;
    plan.params = opts;
    ORION_CHECK(plan.slots >= 4, "bootstrap needs at least 4 slots");
    ORION_CHECK(opts.double_angle >= 0 && opts.double_angle <= 8,
                "double_angle out of range");

    // Range bound K on the ModRaise integer part. The phase c0 + c1*s is
    // a sum of |s|_1 + 1 roughly-uniform residues, so I = round(./q_0) is
    // heuristically Gaussian with sigma = sqrt((h+1)/12); seven sigmas
    // make an overflow vanishingly unlikely per coefficient.
    plan.secret_weight =
        params.secret_weight > 0
            ? params.secret_weight
            : static_cast<int>(2 * params.poly_degree / 3);
    if (opts.k_range > 0) {
        plan.params.k_range = opts.k_range;
    } else {
        const double sigma =
            std::sqrt((static_cast<double>(plan.secret_weight) + 1.0) / 12.0);
        plan.params.k_range =
            std::max(6, static_cast<int>(std::ceil(7.0 * sigma)));
    }
    const double k_edge = static_cast<double>(plan.params.k_range) + 0.5;

    // EvalMod base function: cos(2*pi*(x - 1/4) / 2^r) on [-K-1/2, K+1/2].
    // After r double-angle steps this becomes cos(2*pi*x - pi/2) =
    // sin(2*pi*x), the scaled-sine approximation of x mod q_0.
    const double pow_r = std::pow(2.0, opts.double_angle);
    const auto base = [&](double x) {
        return std::cos(2.0 * std::numbers::pi * (x - 0.25) / pow_r);
    };
    if (opts.sine_degree > 0) {
        plan.sine = approx::ChebyshevPoly::fit(base, -k_edge, k_edge,
                                               opts.sine_degree);
    } else {
        // Grow the degree until the interpolation error clears the
        // tolerance: convergence is superexponential once the degree
        // passes the argument range (in radians), so start just above it.
        const double range_rad =
            2.0 * std::numbers::pi * k_edge / pow_r;
        int degree = static_cast<int>(std::ceil(range_rad)) + 8;
        for (;; degree += 4) {
            ORION_CHECK(degree <= 1022,
                        "EvalMod degree diverged; the secret is too dense "
                        "to bootstrap (set CkksParams::secret_weight)");
            plan.sine = approx::ChebyshevPoly::fit(base, -k_edge, k_edge,
                                                   degree);
            if (plan.sine.max_error(base) < opts.fit_tolerance) break;
        }
    }
    plan.sine.truncate(1e-13);
    plan.eval_degree = plan.sine.degree();
    plan.eval_depth = approx::HePolyEvaluator::poly_depth(plan.sine) +
                      opts.double_angle;

    // Collapse the encoder's special-FFT stages into per-level matrices:
    // inverse stages for CoeffToSlot, forward stages for SlotToCoeff.
    const SpecialFft fft(params.poly_degree);
    const int total = fft.num_stages();
    plan.cts_stages = collapse_stages(
        plan.slots, total, group_sizes(total, opts.cts_levels),
        [&](int s) { return fft.inverse_stage_matrix(s); });
    plan.stc_stages = collapse_stages(
        plan.slots, total, group_sizes(total, opts.stc_levels),
        [&](int s) { return fft.forward_stage_matrix(s); });
    for (const ComplexDiagMatrix& m : plan.cts_stages) {
        plan.cts_bsgs.push_back(
            lin::BsgsPlan::build_from_indices(plan.slots,
                                              m.diagonal_indices()));
    }
    for (const ComplexDiagMatrix& m : plan.stc_stages) {
        plan.stc_bsgs.push_back(
            lin::BsgsPlan::build_from_indices(plan.slots,
                                              m.diagonal_indices()));
    }

    plan.depth = opts.cts_levels + plan.eval_depth + opts.stc_levels;
    return plan;
}

std::shared_ptr<const BootstrapPlan>
BootstrapPlan::cached(const CkksParams& params)
{
    // The default-options plan depends only on the ring degree and the
    // secret weight; memoize on that pair (tiny: one entry per distinct
    // parameter point ever seen in the process).
    static std::mutex mu;
    static std::vector<
        std::pair<std::pair<u64, int>, std::shared_ptr<const BootstrapPlan>>>
        memo;
    const std::pair<u64, int> key = {params.poly_degree,
                                     params.secret_weight};
    {
        std::lock_guard<std::mutex> lk(mu);
        for (const auto& [k, plan] : memo) {
            if (k == key) return plan;
        }
    }
    // Build outside the lock (seconds at large N); a racing duplicate
    // build is wasteful but harmless — first registration wins.
    auto plan = std::make_shared<const BootstrapPlan>(build(params));
    std::lock_guard<std::mutex> lk(mu);
    for (const auto& [k, existing] : memo) {
        if (k == key) return existing;
    }
    memo.emplace_back(key, plan);
    return plan;
}

std::vector<GaloisKeyRequest>
BootstrapPlan::galois_requests(int l_eff) const
{
    std::vector<GaloisKeyRequest> out;
    const int l_top = l_eff + depth;
    for (std::size_t i = 0; i < cts_bsgs.size(); ++i) {
        const int level = l_top - static_cast<int>(i);
        for (int s : cts_bsgs[i].required_steps()) out.push_back({s, level});
    }
    const int l_mid = l_top - params.cts_levels - eval_depth;
    for (std::size_t j = 0; j < stc_bsgs.size(); ++j) {
        const int level = l_mid - static_cast<int>(j);
        for (int s : stc_bsgs[j].required_steps()) out.push_back({s, level});
    }
    return out;
}

// ---------------------------------------------------------------------
// BootstrapCircuit
// ---------------------------------------------------------------------

BootstrapCircuit::BootstrapCircuit(const Context& ctx, const Encoder& encoder,
                                   std::shared_ptr<const BootstrapPlan> plan,
                                   int l_eff, double input_scale)
    : ctx_(&ctx), plan_(std::move(plan)), l_eff_(l_eff),
      input_scale_(input_scale > 0.0 ? input_scale : ctx.scale())
{
    ORION_CHECK(plan_ != nullptr, "bootstrap circuit needs a plan");
    ORION_CHECK(plan_->slots == ctx.slot_count(),
                "bootstrap plan built for " << plan_->slots
                                            << " slots, context has "
                                            << ctx.slot_count());
    ORION_CHECK(l_eff_ >= 1, "l_eff must be at least 1");
    ORION_CHECK(supported(ctx, *plan_, l_eff_),
                "bootstrap circuit needs " << l_eff_ + plan_->depth
                    << " levels (l_eff " << l_eff_ << " + l_boot "
                    << plan_->depth << "), context has only "
                    << ctx.max_level());
    ORION_CHECK(scales_match(input_scale_, ctx.scale()) ||
                    (input_scale_ > 0.25 * ctx.scale() &&
                     input_scale_ < 4.0 * ctx.scale()),
                "bootstrap input scale implausible: " << input_scale_);

    const double delta = ctx.scale();
    const double q0 = static_cast<double>(ctx.q(0).value());
    const double n = static_cast<double>(plan_->slots);
    const int l_top = top_level();

    // CoeffToSlot: fold s_in / (2 n q_0) evenly across the stages (one
    // lopsided stage would either quantize tiny plaintext entries badly
    // or blow up intermediate magnitudes).
    const int g_cts = plan_->params.cts_levels;
    const double cts_factor =
        std::pow(input_scale_ / (2.0 * n * q0), 1.0 / g_cts);
    for (int i = 0; i < g_cts; ++i) {
        const int level = l_top - i;
        const double in_scale = i == 0 ? input_scale_ : delta;
        const double encode_scale =
            delta * static_cast<double>(ctx.q(level).value()) / in_scale;
        cts_.emplace_back(ctx, encoder, plan_->cts_stages[static_cast<std::size_t>(i)],
                          plan_->cts_bsgs[static_cast<std::size_t>(i)], level,
                          encode_scale, cts_factor);
    }

    // EvalMod's symbolic output scale: the Chebyshev stage lands exactly
    // at Delta, then each double-angle step squares and rescales. Mirror
    // the evaluator's double arithmetic so the StC encode scale is exact.
    const int l_eval_in = l_top - g_cts;
    int level = l_eval_in - approx::HePolyEvaluator::poly_depth(plan_->sine);
    double s = delta;
    for (int k = 0; k < plan_->params.double_angle; ++k) {
        s = (s * s) / static_cast<double>(ctx.q(level).value());
        --level;
    }
    post_eval_scale_ = s;
    ORION_ASSERT(level == l_eval_in - plan_->eval_depth);

    // SlotToCoeff: fold q_0 / (2 pi s_in) evenly across the stages. The
    // last stage lands at exactly Delta and level l_eff.
    const int g_stc = plan_->params.stc_levels;
    const double stc_factor = std::pow(
        q0 / (2.0 * std::numbers::pi * input_scale_), 1.0 / g_stc);
    for (int j = 0; j < g_stc; ++j) {
        const int stage_level = level - j;
        const double in_scale = j == 0 ? post_eval_scale_ : delta;
        const double encode_scale =
            delta * static_cast<double>(ctx.q(stage_level).value()) /
            in_scale;
        stc_.emplace_back(ctx, encoder,
                          plan_->stc_stages[static_cast<std::size_t>(j)],
                          plan_->stc_bsgs[static_cast<std::size_t>(j)],
                          stage_level, encode_scale, stc_factor);
    }
}

Ciphertext
BootstrapCircuit::eval_mod(const Evaluator& eval, const Ciphertext& ct) const
{
    const approx::HePolyEvaluator polyeval(eval);
    Ciphertext c = polyeval.evaluate(plan_->sine, ct, ctx_->scale());
    for (int k = 0; k < plan_->params.double_angle; ++k) {
        // cos(2x) = 2 cos(x)^2 - 1: square, double (free), subtract one.
        c = eval.square(c);
        eval.rescale_inplace(c);
        c.c0.mul_small_scalar_inplace(2);
        c.c1.mul_small_scalar_inplace(2);
        const Plaintext one =
            eval.encoder().encode_constant(1.0, c.level(), c.scale);
        eval.sub_plain_inplace(c, one);
    }
    return c;
}

Ciphertext
BootstrapCircuit::bootstrap(const Evaluator& eval, const Ciphertext& ct) const
{
    TELEM_SPAN("boot.bootstrap");
    ORION_CHECK(ct.valid(), "cannot bootstrap an empty ciphertext");
    ORION_CHECK(scales_match(ct.scale, input_scale_),
                "bootstrap circuit prepared for input scale "
                    << input_scale_ << ", got " << ct.scale);
    const double delta = ctx_->scale();

    // Per-stage wall clocks always run (they cost four clock reads per
    // bootstrap); the process-wide stage histograms are their only
    // record.
    static telemetry::Histogram& h_mod_raise =
        telemetry::Registry::global().histogram("boot.mod_raise.seconds");
    static telemetry::Histogram& h_cts =
        telemetry::Registry::global().histogram("boot.cts.seconds");
    static telemetry::Histogram& h_eval_mod =
        telemetry::Registry::global().histogram("boot.eval_mod.seconds");
    static telemetry::Histogram& h_stc =
        telemetry::Registry::global().histogram("boot.stc.seconds");

    // ModRaise: everything the ciphertext knows lives mod q_0.
    auto t0 = std::chrono::steady_clock::now();
    Ciphertext cur;
    {
        TELEM_SPAN("boot.mod_raise");
        Ciphertext low = ct;
        if (low.level() > 0) eval.drop_to_level_inplace(low, 0);
        cur.scale = input_scale_;
        cur.c0 = low.c0.mod_raise(top_level());
        cur.c1 = low.c1.mod_raise(top_level());
    }
    h_mod_raise.observe(seconds_since(t0));

    // CoeffToSlot, then one conjugation to split real/imaginary halves
    // (the matrices already carry the 1/2).
    t0 = std::chrono::steady_clock::now();
    Ciphertext re, im;
    {
        TELEM_SPAN("boot.cts");
        for (const lin::HeBlockedMatrix& stage : cts_) {
            cur = std::move(stage.apply(eval, {&cur, 1}).front());
            ORION_ASSERT(scales_match(cur.scale, delta));
            cur.scale = delta;
        }
        const Ciphertext conj = eval.conjugate(cur);
        re = eval.add(cur, conj);
        im = std::move(cur);
        eval.sub_inplace(im, conj);
        eval.mul_by_i_inplace(im, /*negative=*/true);
    }
    h_cts.observe(seconds_since(t0));

    // EvalMod on both halves side by side (each writes only its own
    // ciphertext; their per-limb regions borrow whatever workers are
    // idle), then recombine re + i * im.
    t0 = std::chrono::steady_clock::now();
    {
        TELEM_SPAN("boot.eval_mod");
        Ciphertext* halves[] = {&re, &im};
        core::parallel_for(0, 2, [&](i64 h) {
            Ciphertext& half = *halves[h];
            half = eval_mod(eval, half);
        });
        ORION_ASSERT(scales_match(re.scale, post_eval_scale_));
        eval.mul_by_i_inplace(im);
        re.scale = post_eval_scale_;
        im.scale = post_eval_scale_;
        eval.add_inplace(re, im);
    }
    h_eval_mod.observe(seconds_since(t0));

    // SlotToCoeff back to coefficient packing.
    t0 = std::chrono::steady_clock::now();
    {
        TELEM_SPAN("boot.stc");
        for (const lin::HeBlockedMatrix& stage : stc_) {
            re = std::move(stage.apply(eval, {&re, 1}).front());
            ORION_ASSERT(scales_match(re.scale, delta));
            re.scale = delta;
        }
    }
    h_stc.observe(seconds_since(t0));

    ORION_ASSERT(re.level() == l_eff_);
    ctx_->counters().bootstrap += 1;
    return re;
}

}  // namespace orion::ckks
