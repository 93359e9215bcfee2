#ifndef ORION_SRC_CKKS_SPECIAL_FFT_H_
#define ORION_SRC_CKKS_SPECIAL_FFT_H_

/**
 * @file
 * The "special FFT" of CKKS encoding — the canonical embedding restricted
 * to the orbit of 5 modulo 2N — factored into its radix-2 butterfly
 * stages, with each stage available in two forms:
 *
 *  - an in-place cleartext butterfly pass (what the Encoder runs), and
 *  - a ComplexDiagMatrix of the same linear map (what the bootstrap
 *    circuit encodes as plaintext diagonals for homomorphic evaluation).
 *
 * Sharing one stage description between the cleartext and homomorphic
 * paths is what keeps CoeffToSlot/SlotToCoeff consistent with the encoder
 * by construction: the bootstrap's collapsed stage matrices are numeric
 * products of exactly the butterflies decode/encode execute.
 *
 * Both stage factorizations deliberately exclude the bit-reversal
 * permutation (which is diagonal-dense): the homomorphic pipeline applies
 * the inverse stages for CoeffToSlot and the forward stages for
 * SlotToCoeff, so the two bit reversals cancel and only the slot-wise
 * EvalMod sits between them, in bit-reversed slot order it never observes.
 */

#include <complex>
#include <map>
#include <span>
#include <vector>

#include "src/common.h"

namespace orion::ckks {

/**
 * A square complex matrix stored by its nonzero generalized diagonals
 * (diag_k[r] = M[r, (r + k) mod dim]) — the complex sibling of
 * lin::DiagonalMatrix, used for the bootstrap's DFT stage matrices.
 */
class ComplexDiagMatrix {
  public:
    explicit ComplexDiagMatrix(u64 dim) : dim_(dim)
    {
        ORION_CHECK(dim > 0, "matrix dimension must be positive");
    }

    static ComplexDiagMatrix
    identity(u64 dim)
    {
        ComplexDiagMatrix m(dim);
        std::vector<std::complex<double>>& d = m.mutable_diagonal(0);
        for (u64 r = 0; r < dim; ++r) d[r] = 1.0;
        return m;
    }

    u64 dim() const { return dim_; }

    void
    add(u64 r, u64 c, std::complex<double> v)
    {
        if (v == std::complex<double>(0.0, 0.0)) return;
        ORION_ASSERT(r < dim_ && c < dim_);
        mutable_diagonal((c + dim_ - r) % dim_)[r] += v;
    }

    std::complex<double>
    get(u64 r, u64 c) const
    {
        const auto it = diags_.find((c + dim_ - r) % dim_);
        return it == diags_.end() ? std::complex<double>(0.0)
                                  : it->second[r];
    }

    const std::vector<std::complex<double>>*
    diagonal(u64 k) const
    {
        const auto it = diags_.find(k);
        return it == diags_.end() ? nullptr : &it->second;
    }

    std::vector<std::complex<double>>&
    mutable_diagonal(u64 k)
    {
        auto it = diags_.find(k);
        if (it == diags_.end()) {
            it = diags_
                     .emplace(k, std::vector<std::complex<double>>(
                                     dim_, std::complex<double>(0.0)))
                     .first;
        }
        return it->second;
    }

    std::vector<u64> diagonal_indices() const;
    u64 num_diagonals() const { return diags_.size(); }

    /**
     * Matrix product this * rhs (rhs is the map applied first). The
     * diagonal representation composes diagonal-wise: diag p of *this
     * times diag q of rhs lands on diag (p + q) mod dim.
     */
    ComplexDiagMatrix compose(const ComplexDiagMatrix& rhs) const;

    /** Drops diagonals whose largest entry magnitude is below tol. */
    void prune(double tol = 1e-12);

    /** Cleartext matvec, for validation: y = M x. */
    std::vector<std::complex<double>> apply(
        std::span<const std::complex<double>> x) const;

  private:
    u64 dim_;
    std::map<u64, std::vector<std::complex<double>>> diags_;
};

/**
 * The special FFT over n = N/2 slots: cleartext butterfly passes plus
 * per-stage matrix extraction. Stateless apart from precomputed twiddles
 * (powers of the 2N-th root of unity) and the rot-group slot ordering.
 */
class SpecialFft {
  public:
    /** degree = the ring degree N; the transform acts on N/2 slots. */
    explicit SpecialFft(u64 degree);

    u64 slots() const { return slots_; }
    /** Number of radix-2 butterfly stages (log2 of the slot count). */
    int num_stages() const { return num_stages_; }

    /** Forward transform in place: bit reversal, then all forward stages
     *  (decode side: coefficients-as-slots -> embedding slots). */
    void forward(std::complex<double>* vals) const;

    /** Inverse transform in place: all inverse stages, bit reversal, and
     *  the 1/n normalization (encode side). */
    void inverse(std::complex<double>* vals) const;

    /**
     * Matrix of forward stage s in application order (s = 0 is the first
     * stage run after the bit reversal, with butterfly half-length 1).
     * The product F_{S-1} * ... * F_0 equals the forward transform
     * without its bit reversal.
     */
    ComplexDiagMatrix forward_stage_matrix(int s) const;

    /**
     * Matrix of inverse stage s in application order (s = 0 is the first
     * inverse stage, with butterfly half-length n/2). The product
     * G_{S-1} * ... * G_0 equals n * P * inverse-transform, i.e. the
     * inverse stages without bit reversal or normalization.
     */
    ComplexDiagMatrix inverse_stage_matrix(int s) const;

  private:
    void forward_stage(std::complex<double>* vals, u64 len) const;
    void inverse_stage(std::complex<double>* vals, u64 len) const;

    u64 slots_ = 0;
    u64 m_ = 0;  ///< 2N, the order of the root-of-unity group
    int num_stages_ = 0;
    std::vector<std::complex<double>> ksi_pows_;  ///< exp(2*pi*i*k / 2N)
    std::vector<u64> rot_group_;                  ///< 5^j mod 2N
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_SPECIAL_FFT_H_
