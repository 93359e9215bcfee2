#include "src/core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace orion::core {

CostModel
CostModel::paper_scale()
{
    return for_params(u64(1) << 16, /*digit_size=*/3, /*num_special=*/3,
                      /*l_boot=*/14);
}

CostModel
CostModel::for_params(u64 poly_degree, int digit_size, int num_special,
                      int l_boot)
{
    CostModel m;
    m.n_ = poly_degree;
    m.log_n_ = log2_exact(poly_degree);
    m.alpha_ = digit_size;
    m.num_special_ = num_special;
    m.l_boot_ = l_boot;
    return m;
}

void
CostModel::calibrate(double measured_rotation_seconds, int at_level)
{
    const double predicted = rotation(at_level);
    ORION_CHECK(predicted > 0 && measured_rotation_seconds > 0,
                "bad calibration inputs");
    seconds_per_word_op_ *= measured_rotation_seconds / predicted;
}

int
CostModel::num_digits(int level) const
{
    return static_cast<int>(ceil_div(static_cast<u64>(level) + 1,
                                     static_cast<u64>(alpha_)));
}

double
CostModel::ntt(int limbs) const
{
    return seconds_per_word_op_ * static_cast<double>(limbs) *
           static_cast<double>(n_) * log_n_;
}

double
CostModel::pmult(int level) const
{
    // One pointwise pass over l+1 limbs.
    return seconds_per_word_op_ * (level + 1.0) * static_cast<double>(n_);
}

double
CostModel::hadd(int level) const
{
    return 0.25 * pmult(level);
}

double
CostModel::rescale(int level) const
{
    // One INTT of the dropped limb, one NTT + pointwise pass per survivor.
    return ntt(level + 1) + pmult(level);
}

double
CostModel::hoist(int level) const
{
    // Decompose: INTT of l+1 limbs, then per digit an NTT into the full
    // extended basis plus the base-conversion pointwise work.
    const int digits = num_digits(level);
    const int ext = level + 1 + num_special_;
    return ntt(level + 1) + digits * (ntt(ext) + 2.0 * pmult(ext - 1));
}

double
CostModel::rotation_hoisted(int level) const
{
    // Permutation + key inner product over the extended basis + mod-down.
    const int digits = num_digits(level);
    const int ext = level + 1 + num_special_;
    const double inner = seconds_per_word_op_ * 2.0 * digits * ext *
                         static_cast<double>(n_);
    const double mod_down =
        2.0 * num_special_ * (ntt(level + 1) / (level + 1.0) + pmult(level));
    return inner + mod_down + 2.0 * ntt(num_special_);
}

double
CostModel::rotation(int level) const
{
    return hoist(level) + rotation_hoisted(level);
}

double
CostModel::hmult(int level) const
{
    // Tensor product (4 pointwise passes) + key switch of d2 + rescale.
    return 4.0 * pmult(level) + rotation(level) + rescale(level);
}

double
CostModel::linear_layer(const PlanStats& stats, int level) const
{
    return static_cast<double>(stats.hoists) * hoist(level) +
           static_cast<double>(stats.baby_rotations) *
               rotation_hoisted(level) +
           static_cast<double>(stats.giant_rotations) *
               rotation_hoisted(level) +
           static_cast<double>(stats.pmults) *
               (pmult(level) + hadd(level)) +
           static_cast<double>(stats.output_cts) * rescale(level) +
           static_cast<double>(stats.sum_rotations) *
               (rotation(std::max(0, level - 1)) +
                hadd(std::max(0, level - 1)));
}

double
CostModel::activation(const std::vector<int>& stage_degrees, int level,
                      u64 cts, bool times_input) const
{
    // Per stage of degree d: ~(bs + log2(d/bs) + d/(2*bs)) ct-ct products
    // for the power basis and recombination, plus ~d plaintext products at
    // the leaves, spread over descending levels.
    double total = 0.0;
    int lvl = level;
    for (int d : stage_degrees) {
        const double bs = std::ceil(std::sqrt(d + 1.0));
        const double mults = bs + std::log2(std::max(2.0, (d + 1.0) / bs));
        const int depth = static_cast<int>(std::ceil(std::log2(d + 1.0))) + 1;
        const int mid = std::max(1, lvl - depth / 2);
        total += mults * hmult(mid) + d * (pmult(mid) + hadd(mid)) +
                 depth * rescale(mid);
        lvl = std::max(1, lvl - depth);
    }
    if (times_input) total += hmult(std::max(1, lvl)) + rescale(std::max(1, lvl));
    return total * static_cast<double>(cts);
}

double
CostModel::bootstrap(int l_eff) const
{
    // Modeled schedule of a full CKKS bootstrap starting at level
    // L = l_eff + l_boot (the circuit that actually runs is
    // src/ckks/bootstrap_circuit.h; this prices its paper-scale shape):
    //   CoeffToSlot: 3 BSGS DFT matmuls at the top levels,
    //   EvalMod: degree-63 Chebyshev of the scaled sine (+ double angle),
    //   SlotToCoeff: 3 BSGS DFT matmuls at the bottom levels.
    const int top = l_eff + l_boot_;
    const double root_n = std::sqrt(static_cast<double>(n_ / 2));
    double total = 0.0;

    int lvl = top;
    for (int i = 0; i < 3 && lvl > 1; ++i) {  // CoeffToSlot
        total += 2.0 * std::sqrt(root_n) * rotation_hoisted(lvl) +
                 root_n * (pmult(lvl) + hadd(lvl)) + hoist(lvl) +
                 rescale(lvl);
        --lvl;
    }
    for (int i = 0; i < 8 && lvl > 1; ++i) {  // EvalMod (depth ~8)
        total += 2.5 * hmult(lvl) + 8.0 * (pmult(lvl) + hadd(lvl)) +
                 rescale(lvl);
        --lvl;
    }
    for (int i = 0; i < 3 && lvl > 1; ++i) {  // SlotToCoeff
        total += 2.0 * std::sqrt(root_n) * rotation_hoisted(lvl) +
                 root_n * (pmult(lvl) + hadd(lvl)) + hoist(lvl) +
                 rescale(lvl);
        --lvl;
    }
    return total;
}

}  // namespace orion::core
