#include "src/approx/chebyshev.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace orion::approx {

double
ChebyshevPoly::eval(double x) const
{
    // Map to [-1, 1] and run Clenshaw.
    const double u = (2.0 * x - (a_ + b_)) / (b_ - a_);
    double b1 = 0.0;
    double b2 = 0.0;
    for (int k = degree(); k >= 1; --k) {
        const double t = 2.0 * u * b1 - b2 + coeffs_[static_cast<std::size_t>(k)];
        b2 = b1;
        b1 = t;
    }
    return u * b1 - b2 + coeffs_[0];
}

void
ChebyshevPoly::eval(std::span<const double> xs, std::span<double> out) const
{
    ORION_CHECK(out.size() == xs.size(), "output size mismatch");
    // The recurrence runs across a block of elements per coefficient, so
    // the inner loops vectorize; lanes never mix, so each element sees the
    // scalar eval's exact operation sequence.
    constexpr std::size_t kBlock = 64;
    double u[kBlock], b1[kBlock], b2[kBlock];
    for (std::size_t i0 = 0; i0 < xs.size(); i0 += kBlock) {
        const std::size_t n = std::min(kBlock, xs.size() - i0);
        for (std::size_t i = 0; i < n; ++i) {
            u[i] = (2.0 * xs[i0 + i] - (a_ + b_)) / (b_ - a_);
            b1[i] = 0.0;
            b2[i] = 0.0;
        }
        for (int k = degree(); k >= 1; --k) {
            const double c = coeffs_[static_cast<std::size_t>(k)];
            for (std::size_t i = 0; i < n; ++i) {
                const double t = 2.0 * u[i] * b1[i] - b2[i] + c;
                b2[i] = b1[i];
                b1[i] = t;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            out[i0 + i] = u[i] * b1[i] - b2[i] + coeffs_[0];
        }
    }
}

double
ChebyshevPoly::max_error(const std::function<double(double)>& f,
                         int samples) const
{
    double worst = 0.0;
    for (int i = 0; i <= samples; ++i) {
        const double x =
            a_ + (b_ - a_) * static_cast<double>(i) / samples;
        worst = std::max(worst, std::abs(eval(x) - f(x)));
    }
    return worst;
}

ChebyshevPoly
ChebyshevPoly::fit(const std::function<double(double)>& f, double a, double b,
                   int degree)
{
    ORION_CHECK(degree >= 0, "negative degree");
    const int n = degree + 1;
    // Chebyshev nodes of the first kind mapped to [a, b].
    std::vector<double> fx(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
        const double theta =
            std::numbers::pi * (static_cast<double>(j) + 0.5) / n;
        const double u = std::cos(theta);
        fx[static_cast<std::size_t>(j)] =
            f(0.5 * (a + b) + 0.5 * (b - a) * u);
    }
    std::vector<double> coeffs(static_cast<std::size_t>(n), 0.0);
    for (int k = 0; k < n; ++k) {
        double acc = 0.0;
        for (int j = 0; j < n; ++j) {
            acc += fx[static_cast<std::size_t>(j)] *
                   std::cos(std::numbers::pi * k *
                            (static_cast<double>(j) + 0.5) / n);
        }
        coeffs[static_cast<std::size_t>(k)] = (k == 0 ? 1.0 : 2.0) * acc / n;
    }
    return ChebyshevPoly(std::move(coeffs), a, b);
}

void
ChebyshevPoly::truncate(double tol)
{
    while (coeffs_.size() > 2 && std::abs(coeffs_.back()) <= tol) {
        coeffs_.pop_back();
    }
}

}  // namespace orion::approx
