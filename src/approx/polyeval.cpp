#include "src/approx/polyeval.h"

#include <cmath>

namespace orion::approx {

namespace {

/** Coefficients smaller than this are treated as structural zeros. */
constexpr double kCoeffTol = 1e-12;

int
ceil_log2(int x)
{
    ORION_ASSERT(x >= 1);
    int bits = 0;
    int v = 1;
    while (v < x) {
        v <<= 1;
        ++bits;
    }
    return bits;
}

/** Highest index with |c| > tol, or -1 if none. */
int
pruned_degree(const std::vector<double>& coeffs)
{
    for (int i = static_cast<int>(coeffs.size()) - 1; i >= 0; --i) {
        if (std::abs(coeffs[static_cast<std::size_t>(i)]) > kCoeffTol) {
            return i;
        }
    }
    return -1;
}

/** Highest index >= 1 with |c| > tol, or 0 if the poly is constant. */
int
pruned_nonconstant_degree(const std::vector<double>& coeffs)
{
    const int d = pruned_degree(coeffs);
    return d >= 1 ? d : 0;
}

/** Splits p = q * T_m + r using T_i = 2 T_m T_{i-m} - T_{2m-i}. */
void
split_chebyshev(const std::vector<double>& coeffs, int m,
                std::vector<double>* q, std::vector<double>* r)
{
    const int d = pruned_degree(coeffs);
    ORION_ASSERT(d >= m && d < 2 * m);
    q->assign(static_cast<std::size_t>(d - m) + 1, 0.0);
    r->assign(coeffs.begin(), coeffs.begin() + m);
    for (int i = d; i >= m; --i) {
        const double c = coeffs[static_cast<std::size_t>(i)];
        if (std::abs(c) <= kCoeffTol) continue;
        if (i == m) {
            (*q)[0] += c;
        } else {
            (*q)[static_cast<std::size_t>(i - m)] += 2.0 * c;
            (*r)[static_cast<std::size_t>(2 * m - i)] -= c;
        }
    }
}

/** The split point: the smallest power-of-two multiple of bs above d/2. */
int
split_point(int degree, int bs)
{
    int m = bs;
    while (2 * m <= degree) m <<= 1;
    return m;
}

}  // namespace

int
HePolyEvaluator::baby_step_count(int degree)
{
    const int root = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(degree) + 1.0)));
    int bs = 2;
    while (bs < root) bs <<= 1;
    return bs;
}

bool
HePolyEvaluator::is_zero_coeffs(const std::vector<double>& coeffs)
{
    return pruned_degree(coeffs) < 0;
}

int
HePolyEvaluator::depth_node(const std::vector<double>& coeffs, int bs)
{
    const int d = pruned_nonconstant_degree(coeffs);
    if (d == 0) return 0;  // constant (or zero)
    if (d < bs) {
        int worst = 0;
        for (int k = 1; k <= d; ++k) {
            if (std::abs(coeffs[static_cast<std::size_t>(k)]) > kCoeffTol) {
                worst = std::max(worst, ceil_log2(k));
            }
        }
        return 1 + worst;
    }
    const int m = split_point(d, bs);
    std::vector<double> q, r;
    split_chebyshev(coeffs, m, &q, &r);
    const int dq = depth_node(q, bs);
    const int dr = depth_node(r, bs);
    const int prod_path =
        is_zero_coeffs(q) ? 0 : 1 + std::max(dq, ceil_log2(m));
    return std::max(prod_path, dr);
}

int
HePolyEvaluator::poly_depth(const ChebyshevPoly& p)
{
    const int bs = baby_step_count(p.degree());
    return (p.canonical_domain() ? 0 : 1) +
           depth_node(p.coefficients(), bs);
}

int
HePolyEvaluator::composite_depth(const std::vector<ChebyshevPoly>& stages)
{
    int d = 0;
    for (const ChebyshevPoly& s : stages) d += poly_depth(s);
    return d;
}

int
HePolyEvaluator::relu_depth(const std::vector<ChebyshevPoly>& stages)
{
    return composite_depth(stages) + 1;
}

ckks::Ciphertext
HePolyEvaluator::at_level(const ckks::Ciphertext& ct, int level) const
{
    ORION_CHECK(ct.level() >= level,
                "needs level " << level << ", have " << ct.level());
    if (ct.level() == level) return ct;
    ckks::Ciphertext out = ct;
    eval_->drop_to_level_inplace(out, level);
    return out;
}

const ckks::Ciphertext&
HePolyEvaluator::power(PowerBasis& basis, int k) const
{
    ORION_ASSERT(k >= 1);
    auto it = basis.find(k);
    if (it != basis.end()) return it->second;

    // T_{a+b} = 2 T_a T_b - T_{a-b} with a = ceil(k/2) for minimal depth.
    const int a = (k + 1) / 2;
    const int b = k / 2;
    const ckks::Ciphertext& ta = power(basis, a);
    const ckks::Ciphertext& tb = power(basis, b);
    const int lvl = std::min(ta.level(), tb.level());
    const ckks::Ciphertext ta_l = at_level(ta, lvl);
    ckks::Ciphertext prod =
        (a == b) ? eval_->square(ta_l) : eval_->mul(ta_l, at_level(tb, lvl));
    // Value 2*T_a*T_b: integer doubling costs neither scale nor level.
    prod.c0.mul_small_scalar_inplace(2);
    prod.c1.mul_small_scalar_inplace(2);

    if (a == b) {
        // Subtract T_0 = 1 at the product's scale.
        const ckks::Plaintext one =
            eval_->encoder().encode_constant(1.0, lvl, prod.scale);
        eval_->sub_plain_inplace(prod, one);
    } else {
        // Subtract T_{a-b} = T_1, scale-aligned with a free constant.
        const ckks::Ciphertext& diff = power(basis, a - b);
        const ckks::Ciphertext diff_l = at_level(diff, lvl);
        const ckks::Plaintext align = eval_->encoder().encode_constant(
            1.0, lvl, prod.scale / diff_l.scale);
        eval_->sub_inplace(prod, eval_->mul_plain(diff_l, align));
    }
    eval_->rescale_inplace(prod);
    return basis.emplace(k, std::move(prod)).first->second;
}

HePolyEvaluator::NodeResult
HePolyEvaluator::eval_node(const std::vector<double>& coeffs, int bs,
                           PowerBasis& basis, int target_level,
                           double target_scale) const
{
    const int d = pruned_nonconstant_degree(coeffs);
    if (d == 0) {
        return {std::nullopt,
                pruned_degree(coeffs) >= 0 ? coeffs[0] : 0.0};
    }

    if (d < bs) {
        // Leaf: sum of c_k T_k brought to a common scale via the free
        // constants (one PMult-accumulate pass), one rescale to land on
        // the target.
        const int work = target_level + 1;
        const double q_work = static_cast<double>(
            ctx_->q(work).value());
        // T_k dropped to the work level, and the constants. Reserved so
        // no push_back reallocates under the pointers taken below.
        std::vector<ckks::Ciphertext> dropped;
        std::vector<ckks::Plaintext> consts;
        dropped.reserve(static_cast<std::size_t>(d));
        consts.reserve(static_cast<std::size_t>(d));
        std::vector<const ckks::Ciphertext*> cts;
        std::vector<const ckks::Plaintext*> pts;
        for (int k = 1; k <= d; ++k) {
            const double c = coeffs[static_cast<std::size_t>(k)];
            if (std::abs(c) <= kCoeffTol) continue;
            const ckks::Ciphertext* tk = &power(basis, k);
            if (tk->level() != work) {
                dropped.push_back(at_level(*tk, work));
                tk = &dropped.back();
            }
            consts.push_back(eval_->encoder().encode_constant(
                c, work, target_scale * q_work / tk->scale));
            cts.push_back(tk);
            pts.push_back(&consts.back());
        }
        ckks::Ciphertext sum = eval_->mul_plain_sum(cts, pts);
        // All terms share scale target_scale * q_work by construction;
        // pin the double to avoid ulp drift.
        sum.scale = target_scale * q_work;
        if (std::abs(coeffs[0]) > kCoeffTol) {
            eval_->add_constant_inplace(sum, coeffs[0]);
        }
        eval_->rescale_inplace(sum);
        ORION_ASSERT(ckks::scales_match(sum.scale, target_scale));
        sum.scale = target_scale;
        return {std::move(sum), 0.0};
    }

    // Split p = q * T_m + r.
    const int m = split_point(d, bs);
    std::vector<double> qc, rc;
    split_chebyshev(coeffs, m, &qc, &rc);

    std::optional<ckks::Ciphertext> prod;
    if (!is_zero_coeffs(qc)) {
        const int work = target_level + 1;
        const double q_work = static_cast<double>(ctx_->q(work).value());
        const ckks::Ciphertext tm = at_level(power(basis, m), work);
        const double s_q = target_scale * q_work / tm.scale;
        const NodeResult qr = eval_node(qc, bs, basis, work, s_q);
        if (qr.ct.has_value()) {
            prod = eval_->mul(*qr.ct, tm);
        } else if (qr.constant != 0.0) {
            const ckks::Plaintext pc = eval_->encoder().encode_constant(
                qr.constant, work, s_q);
            prod = eval_->mul_plain(tm, pc);
        }
        if (prod.has_value()) {
            eval_->rescale_inplace(*prod);
            ORION_ASSERT(ckks::scales_match(prod->scale, target_scale));
            prod->scale = target_scale;
        }
    }

    NodeResult rr = eval_node(rc, bs, basis, target_level, target_scale);
    if (prod.has_value() && rr.ct.has_value()) {
        eval_->add_inplace(*prod, *rr.ct);
        return {std::move(prod), 0.0};
    }
    if (prod.has_value()) {
        if (rr.constant != 0.0) {
            eval_->add_constant_inplace(*prod, rr.constant);
        }
        return {std::move(prod), 0.0};
    }
    return rr;
}

ckks::Ciphertext
HePolyEvaluator::evaluate(const ChebyshevPoly& p, const ckks::Ciphertext& ct,
                          double target_scale) const
{
    if (target_scale == 0.0) target_scale = ctx_->scale();
    const int depth = poly_depth(p);
    ORION_CHECK(ct.level() >= depth,
                "polynomial of depth " << depth << " needs level >= " << depth
                                       << ", input at " << ct.level());

    // Domain scaling u = (2x - (a+b)) / (b-a), one level when not [-1, 1].
    ckks::Ciphertext u = ct;
    if (!p.canonical_domain()) {
        const double a = p.domain_min();
        const double b = p.domain_max();
        const double alpha = 2.0 / (b - a);
        const double beta = -(a + b) / (b - a);
        const double q_top = static_cast<double>(ctx_->q(u.level()).value());
        eval_->mul_plain_inplace(
            u, eval_->encoder().encode_constant(alpha, u.level(), q_top));
        eval_->rescale_inplace(u);
        u.scale = ct.scale;
        if (beta != 0.0) eval_->add_constant_inplace(u, beta);
    }

    const int bs = baby_step_count(p.degree());
    PowerBasis basis;
    basis.emplace(1, u);
    const int d_rec = depth_node(p.coefficients(), bs);
    const int target_level = u.level() - d_rec;
    NodeResult res = eval_node(p.coefficients(), bs, basis, target_level,
                               target_scale);
    if (res.ct.has_value()) return std::move(*res.ct);

    // Degenerate constant polynomial: synthesize const + 0 * input.
    const ckks::Plaintext zero = eval_->encoder().encode_constant(
        0.0, u.level(),
        target_scale * static_cast<double>(ctx_->q(u.level()).value()) /
            u.scale);
    ckks::Ciphertext out = eval_->mul_plain(u, zero);
    eval_->rescale_inplace(out);
    out.scale = target_scale;
    eval_->add_constant_inplace(out, res.constant);
    eval_->drop_to_level_inplace(out, target_level);
    return out;
}

ckks::Ciphertext
HePolyEvaluator::evaluate_composite(const std::vector<ChebyshevPoly>& stages,
                                    const ckks::Ciphertext& ct,
                                    double target_scale) const
{
    ORION_CHECK(!stages.empty(), "empty composite");
    if (target_scale == 0.0) target_scale = ctx_->scale();
    ckks::Ciphertext cur = ct;
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const double t =
            (i + 1 == stages.size()) ? target_scale : ctx_->scale();
        cur = evaluate(stages[i], cur, t);
    }
    return cur;
}

ckks::Ciphertext
HePolyEvaluator::evaluate_times_input(
    const std::vector<ChebyshevPoly>& stages, const ckks::Ciphertext& ct,
    double target_scale) const
{
    if (target_scale == 0.0) target_scale = ctx_->scale();
    const int g_level = ct.level() - composite_depth(stages);
    ORION_CHECK(g_level >= 1, "not enough levels for composite-times-input");
    // Choose the composite's output scale so that the final product with x
    // rescales exactly onto the target.
    const double q_final = static_cast<double>(ctx_->q(g_level).value());
    const double t_g = target_scale * q_final / ct.scale;
    const ckks::Ciphertext g = evaluate_composite(stages, ct, t_g);
    ORION_ASSERT(g.level() == g_level);
    ckks::Ciphertext out = eval_->mul(at_level(ct, g_level), g);
    eval_->rescale_inplace(out);
    ORION_ASSERT(ckks::scales_match(out.scale, target_scale));
    out.scale = target_scale;
    return out;
}

}  // namespace orion::approx
