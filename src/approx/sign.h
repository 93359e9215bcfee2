#ifndef ORION_SRC_APPROX_SIGN_H_
#define ORION_SRC_APPROX_SIGN_H_

/**
 * @file
 * Composite minimax sign approximation and the activation specifications
 * built on it (Section 7, "Activation functions").
 *
 * ReLU is evaluated as x * (1 + sign(x)) / 2, where sign is approximated by
 * a composition of low-degree odd polynomials (the paper follows Lee et
 * al.'s composite minimax construction with degrees 15, 15, 27, giving
 * ReLU a multiplicative depth of 14 = 13 for sign + 1 for the product).
 * We instantiate the composition with the provably-convergent odd family
 *
 *   f_n(x) = sum_{i=0}^{n} 4^{-i} C(2i, i) x (1 - x^2)^i
 *
 * of Cheon et al., which maps [-1,1] into [-1,1] and squashes toward +/-1;
 * degrees (15, 15, 27) correspond to n = (7, 7, 13). Each stage is converted
 * to the Chebyshev basis for numerically stable homomorphic evaluation.
 */

#include "src/approx/chebyshev.h"

namespace orion::approx {

/**
 * The odd sign-squashing polynomial f_n (degree 2n+1) in Chebyshev form
 * on [-1, 1].
 */
ChebyshevPoly sign_stage_poly(int n);

/** f_n degree from stage degree: n = (degree - 1) / 2 (degree must be odd). */
int sign_stage_n(int degree);

/**
 * Composite sign approximation sign(x) ~ (s_k o ... o s_1)(x) on [-1, 1],
 * specified by per-stage degrees as in `on.ReLU(degrees=[15, 15, 27])`.
 */
class CompositeSign {
  public:
    explicit CompositeSign(const std::vector<int>& degrees);

    const std::vector<ChebyshevPoly>& stages() const { return stages_; }
    /** Cleartext evaluation (for validation). */
    double eval(double x) const;
    /**
     * Sum of per-stage homomorphic depths as actually consumed by
     * HePolyEvaluator. Note: our rescale-eager, exactly-scaled evaluator
     * can consume one level more per stage than ceil(log2(deg+1)); the
     * paper's accounting (degrees [15,15,27] -> depth 13, ours 15)
     * assumes the lazy rescale fusion of Lee et al. See DESIGN.md,
     * "Composite-sign depth".
     */
    int depth() const;

  private:
    std::vector<ChebyshevPoly> stages_;
};

/**
 * Transforms the final stage of a composite sign so the composition yields
 * (1 + sign(x)) / 2; multiplying by x then gives ReLU with one extra level.
 */
std::vector<ChebyshevPoly> make_relu_stages(const std::vector<int>& degrees);

/** Cleartext reference for the composite ReLU (for precision reporting). */
double composite_relu_reference(const std::vector<ChebyshevPoly>& stages,
                                double x);

}  // namespace orion::approx

#endif  // ORION_SRC_APPROX_SIGN_H_
