#ifndef ORION_SRC_LINALG_DIAGONAL_H_
#define ORION_SRC_LINALG_DIAGONAL_H_

/**
 * @file
 * Generalized-diagonal matrix representation (Section 3.1).
 *
 * The diagonal method stores a dim x dim matrix M by its generalized
 * diagonals diag_k[i] = M[i, (i + k) mod dim]. Homomorphic matrix-vector
 * products touch one plaintext per *nonzero* diagonal, so sparse diagonal
 * structure (the whole point of Orion's packing, Figure 5) is preserved by
 * construction: only nonzero diagonals are materialized.
 */

#include <map>
#include <vector>

#include "src/common.h"

namespace orion::lin {

/** A square matrix stored by its nonzero generalized diagonals. */
class DiagonalMatrix {
  public:
    explicit DiagonalMatrix(u64 dim) : dim_(dim)
    {
        ORION_CHECK(dim > 0, "matrix dimension must be positive");
    }

    u64 dim() const { return dim_; }

    /** Sets M[r, c] = v (materializing the diagonal if v != 0). */
    void
    set(u64 r, u64 c, double v)
    {
        ORION_ASSERT(r < dim_ && c < dim_);
        if (v == 0.0) {
            auto it = diags_.find(diag_index(r, c));
            if (it == diags_.end()) return;
            it->second[r] = 0.0;
            return;
        }
        mutable_diagonal(diag_index(r, c))[r] = v;
    }

    /** Adds v to M[r, c]. */
    void
    add(u64 r, u64 c, double v)
    {
        if (v == 0.0) return;
        ORION_ASSERT(r < dim_ && c < dim_);
        mutable_diagonal(diag_index(r, c))[r] += v;
    }

    double
    get(u64 r, u64 c) const
    {
        const auto it = diags_.find(diag_index(r, c));
        return it == diags_.end() ? 0.0 : it->second[r];
    }

    /** Diagonal index k with M[r, c] on diag_k: k = (c - r) mod dim. */
    u64
    diag_index(u64 r, u64 c) const
    {
        return (c + dim_ - r) % dim_;
    }

    /** Sorted indices of materialized (possibly nonzero) diagonals. */
    std::vector<u64>
    diagonal_indices() const
    {
        std::vector<u64> out;
        out.reserve(diags_.size());
        for (const auto& [k, v] : diags_) {
            (void)v;
            out.push_back(k);
        }
        return out;
    }

    /** The k-th generalized diagonal, or nullptr if all-zero. */
    const std::vector<double>*
    diagonal(u64 k) const
    {
        const auto it = diags_.find(k);
        return it == diags_.end() ? nullptr : &it->second;
    }

    std::vector<double>&
    mutable_diagonal(u64 k)
    {
        auto it = diags_.find(k);
        if (it == diags_.end()) {
            it = diags_.emplace(k, std::vector<double>(dim_, 0.0)).first;
        }
        return it->second;
    }

    u64 num_diagonals() const { return diags_.size(); }

    /** Drops diagonals that became all-zero (after set(.., 0)). */
    void prune();

    /** Cleartext matvec, for validation: y = M x. */
    std::vector<double> apply(const std::vector<double>& x) const;

  private:
    u64 dim_;
    std::map<u64, std::vector<double>> diags_;
};

}  // namespace orion::lin

#endif  // ORION_SRC_LINALG_DIAGONAL_H_
