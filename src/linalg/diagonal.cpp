#include "src/linalg/diagonal.h"

#include <algorithm>

namespace orion::lin {

void
DiagonalMatrix::prune()
{
    for (auto it = diags_.begin(); it != diags_.end();) {
        const bool all_zero =
            std::all_of(it->second.begin(), it->second.end(),
                        [](double v) { return v == 0.0; });
        it = all_zero ? diags_.erase(it) : std::next(it);
    }
}

std::vector<double>
DiagonalMatrix::apply(const std::vector<double>& x) const
{
    ORION_CHECK(x.size() == dim_, "matvec size mismatch: " << x.size()
                                                           << " vs " << dim_);
    std::vector<double> y(dim_, 0.0);
    for (const auto& [k, diag] : diags_) {
        for (u64 i = 0; i < dim_; ++i) {
            y[i] += diag[i] * x[(i + k) % dim_];
        }
    }
    return y;
}

}  // namespace orion::lin
