#include "src/ckks/special_fft.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/core/thread_pool.h"

namespace orion::ckks {

namespace {

/** In-place bit-reversal permutation. */
void
bit_reverse(std::complex<double>* vals, u64 n)
{
    const int log_n = log2_exact(n);
    for (u64 i = 0; i < n; ++i) {
        const u64 j = reverse_bits(static_cast<u32>(i), log_n);
        if (i < j) std::swap(vals[i], vals[j]);
    }
}

/**
 * Chunked elementwise fan-out (core::parallel_for_chunked) over u64
 * indices. Each index must be elementwise-independent (no cross-index
 * reads or reductions), which makes the floating-point results
 * bit-identical for any chunking and thread count. This is the op-level
 * parallelism of the special FFT — the clear-text twin of the
 * CoeffToSlot/SlotToCoeff stages the bootstrap circuit evaluates
 * homomorphically from the same stage description.
 */
template <typename F>
void
parallel_elementwise(u64 count, F&& fn)
{
    core::parallel_for_chunked(static_cast<i64>(count),
                               [&](i64 k) { fn(static_cast<u64>(k)); });
}

}  // namespace

std::vector<u64>
ComplexDiagMatrix::diagonal_indices() const
{
    std::vector<u64> out;
    out.reserve(diags_.size());
    for (const auto& [k, v] : diags_) {
        (void)v;
        out.push_back(k);
    }
    return out;
}

ComplexDiagMatrix
ComplexDiagMatrix::compose(const ComplexDiagMatrix& rhs) const
{
    ORION_CHECK(dim_ == rhs.dim_, "dimension mismatch in compose");
    ComplexDiagMatrix out(dim_);
    // C[r, r+p+q] += A[r, r+p] * B[r+p, r+p+q] for every diagonal pair.
    for (const auto& [p, a_diag] : diags_) {
        for (const auto& [q, b_diag] : rhs.diags_) {
            std::vector<std::complex<double>>& c_diag =
                out.mutable_diagonal((p + q) % dim_);
            for (u64 r = 0; r < dim_; ++r) {
                const std::complex<double> a = a_diag[r];
                if (a == std::complex<double>(0.0)) continue;
                c_diag[r] += a * b_diag[(r + p) % dim_];
            }
        }
    }
    return out;
}

void
ComplexDiagMatrix::prune(double tol)
{
    for (auto it = diags_.begin(); it != diags_.end();) {
        double peak = 0.0;
        for (const std::complex<double>& v : it->second) {
            peak = std::max(peak, std::abs(v));
        }
        if (peak <= tol) {
            it = diags_.erase(it);
        } else {
            ++it;
        }
    }
}

std::vector<std::complex<double>>
ComplexDiagMatrix::apply(std::span<const std::complex<double>> x) const
{
    ORION_CHECK(x.size() == dim_, "vector length mismatch in apply");
    std::vector<std::complex<double>> y(dim_, std::complex<double>(0.0));
    for (const auto& [k, diag] : diags_) {
        for (u64 r = 0; r < dim_; ++r) {
            y[r] += diag[r] * x[(r + k) % dim_];
        }
    }
    return y;
}

SpecialFft::SpecialFft(u64 degree)
    : slots_(degree / 2), m_(2 * degree),
      num_stages_(log2_exact(degree / 2))
{
    ksi_pows_.resize(m_ + 1);
    for (u64 k = 0; k <= m_; ++k) {
        const double angle = 2.0 * std::numbers::pi *
                             static_cast<double>(k) /
                             static_cast<double>(m_);
        ksi_pows_[k] = {std::cos(angle), std::sin(angle)};
    }
    rot_group_.resize(slots_);
    u64 power = 1;
    for (u64 j = 0; j < slots_; ++j) {
        rot_group_[j] = power;
        power = (power * 5) % m_;
    }
}

void
SpecialFft::forward_stage(std::complex<double>* vals, u64 len) const
{
    const u64 lenh = len >> 1;
    const u64 lenq = len << 2;
    const int log_lenh = log2_exact(lenh);
    // Butterflies within a stage touch disjoint pairs; fan them out.
    // lenh is a power of two, so butterfly k decomposes by shift/mask
    // (a hardware division here would rival the complex multiply).
    parallel_elementwise(slots_ >> 1, [&](u64 k) {
        const u64 j = k & (lenh - 1);
        const u64 top = ((k >> log_lenh) << 1 | 1) << log_lenh;
        const u64 bot = top - lenh;
        const u64 idx = (rot_group_[j] % lenq) * (m_ / lenq);
        const std::complex<double> u = vals[bot + j];
        const std::complex<double> v = vals[top + j] * ksi_pows_[idx];
        vals[bot + j] = u + v;
        vals[top + j] = u - v;
    });
}

void
SpecialFft::inverse_stage(std::complex<double>* vals, u64 len) const
{
    const u64 lenh = len >> 1;
    const u64 lenq = len << 2;
    const int log_lenh = log2_exact(lenh);
    parallel_elementwise(slots_ >> 1, [&](u64 k) {
        const u64 j = k & (lenh - 1);
        const u64 top = ((k >> log_lenh) << 1 | 1) << log_lenh;
        const u64 bot = top - lenh;
        const u64 idx = (lenq - (rot_group_[j] % lenq)) * (m_ / lenq);
        const std::complex<double> u = vals[bot + j] + vals[top + j];
        const std::complex<double> v =
            (vals[bot + j] - vals[top + j]) * ksi_pows_[idx];
        vals[bot + j] = u;
        vals[top + j] = v;
    });
}

void
SpecialFft::forward(std::complex<double>* vals) const
{
    bit_reverse(vals, slots_);
    for (u64 len = 2; len <= slots_; len <<= 1) {
        forward_stage(vals, len);
    }
}

void
SpecialFft::inverse(std::complex<double>* vals) const
{
    for (u64 len = slots_; len >= 2; len >>= 1) {
        inverse_stage(vals, len);
    }
    bit_reverse(vals, slots_);
    const double inv_n = 1.0 / static_cast<double>(slots_);
    for (u64 i = 0; i < slots_; ++i) vals[i] *= inv_n;
}

ComplexDiagMatrix
SpecialFft::forward_stage_matrix(int s) const
{
    ORION_CHECK(s >= 0 && s < num_stages_, "stage index out of range");
    const u64 len = u64(2) << s;  // stage s acts on butterflies of size len
    const u64 lenh = len >> 1;
    const u64 lenq = len << 2;
    const int log_lenh = log2_exact(lenh);
    ComplexDiagMatrix mat(slots_);
    for (u64 k = 0; k < (slots_ >> 1); ++k) {
        const u64 j = k & (lenh - 1);
        const u64 top = ((k >> log_lenh) << 1 | 1) << log_lenh;
        const u64 bot = top - lenh;
        const std::complex<double> w =
            ksi_pows_[(rot_group_[j] % lenq) * (m_ / lenq)];
        // vals'[bot+j] = vals[bot+j] + w * vals[top+j]
        // vals'[top+j] = vals[bot+j] - w * vals[top+j]
        mat.add(bot + j, bot + j, 1.0);
        mat.add(bot + j, top + j, w);
        mat.add(top + j, bot + j, 1.0);
        mat.add(top + j, top + j, -w);
    }
    return mat;
}

ComplexDiagMatrix
SpecialFft::inverse_stage_matrix(int s) const
{
    ORION_CHECK(s >= 0 && s < num_stages_, "stage index out of range");
    const u64 len = slots_ >> s;  // inverse stages run from len = n down
    const u64 lenh = len >> 1;
    const u64 lenq = len << 2;
    const int log_lenh = log2_exact(lenh);
    ComplexDiagMatrix mat(slots_);
    for (u64 k = 0; k < (slots_ >> 1); ++k) {
        const u64 j = k & (lenh - 1);
        const u64 top = ((k >> log_lenh) << 1 | 1) << log_lenh;
        const u64 bot = top - lenh;
        const std::complex<double> w =
            ksi_pows_[(lenq - (rot_group_[j] % lenq)) * (m_ / lenq)];
        // vals'[bot+j] = vals[bot+j] + vals[top+j]
        // vals'[top+j] = w * (vals[bot+j] - vals[top+j])
        mat.add(bot + j, bot + j, 1.0);
        mat.add(bot + j, top + j, 1.0);
        mat.add(top + j, bot + j, w);
        mat.add(top + j, top + j, -w);
    }
    return mat;
}

}  // namespace orion::ckks
