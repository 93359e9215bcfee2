#ifndef ORION_SRC_APPROX_CHEBYSHEV_H_
#define ORION_SRC_APPROX_CHEBYSHEV_H_

/**
 * @file
 * Chebyshev-basis polynomials: the representation every activation
 * function is lowered to before homomorphic evaluation (Section 6,
 * "Range estimation": activations are fit with Chebyshev polynomials by
 * interpolation or the Remez algorithm).
 */

#include <functional>
#include <span>
#include <vector>

#include "src/common.h"

namespace orion::approx {

/** A polynomial in the Chebyshev basis on domain [a, b]. */
class ChebyshevPoly {
  public:
    ChebyshevPoly() = default;
    ChebyshevPoly(std::vector<double> coeffs, double a = -1.0, double b = 1.0)
        : coeffs_(std::move(coeffs)), a_(a), b_(b)
    {
        ORION_CHECK(!coeffs_.empty(), "polynomial needs coefficients");
        ORION_CHECK(a < b, "bad domain");
    }

    int degree() const { return static_cast<int>(coeffs_.size()) - 1; }
    double domain_min() const { return a_; }
    double domain_max() const { return b_; }
    const std::vector<double>& coefficients() const { return coeffs_; }
    /** True when the domain is already the canonical [-1, 1]. */
    bool
    canonical_domain() const
    {
        return a_ == -1.0 && b_ == 1.0;
    }

    /** Evaluates at x via the Clenshaw recurrence. */
    double eval(double x) const;
    /**
     * out[i] = eval(xs[i]) for every i, bit for bit: each element runs the
     * scalar version's operations in its order, a block of elements at a
     * time. out must be as long as xs and may be xs itself.
     */
    void eval(std::span<const double> xs, std::span<double> out) const;

    /** Maximum |p(x) - f(x)| over a dense grid (for tests and reports). */
    double max_error(const std::function<double(double)>& f,
                     int samples = 2048) const;

    /**
     * Chebyshev interpolation of f at degree+1 Chebyshev nodes on [a, b].
     * Exact (up to roundoff) when f is itself a polynomial of the same
     * degree, which is how power-basis polynomials are converted to the
     * numerically stable Chebyshev basis.
     */
    static ChebyshevPoly fit(const std::function<double(double)>& f,
                             double a, double b, int degree);

    /** Truncates trailing coefficients below `tol`, keeping degree >= 1. */
    void truncate(double tol = 0.0);

  private:
    std::vector<double> coeffs_;
    double a_ = -1.0;
    double b_ = 1.0;
};

}  // namespace orion::approx

#endif  // ORION_SRC_APPROX_CHEBYSHEV_H_
