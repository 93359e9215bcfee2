#ifndef ORION_SRC_CKKS_POLY_H_
#define ORION_SRC_CKKS_POLY_H_

/**
 * @file
 * RNS polynomials: elements of R_{Q_l} (optionally extended by the special
 * primes) stored limb-major, in coefficient or NTT (evaluation) form.
 *
 * This is the (l+1) x N matrix view of Section 2.4 of the paper: row i is
 * the residue polynomial modulo q_i. The optional extended limbs (modulo
 * the special primes p_0..p_{k-1}) exist only transiently inside key
 * switching.
 */

#include <vector>

#include "src/common.h"
#include "src/ckks/context.h"
#include "src/core/arena.h"

namespace orion::ckks {

/** An element of R_{Q_l} (or R_{Q_l * P} when extended). */
class RnsPoly {
  public:
    RnsPoly() = default;

    /** Zero polynomial with limbs q_0..q_level (+ specials if extended). */
    RnsPoly(const Context& ctx, int level, bool extended = false,
            bool ntt_form = true);

    // Limb storage lives in the core::Arena pool, so copies and
    // constructions are counted (OpCounters::poly_alloc / poly_arena_hit)
    // and steady-state hot loops recycle blocks instead of reallocating.
    RnsPoly(const RnsPoly& o);
    RnsPoly& operator=(const RnsPoly& o);
    RnsPoly(RnsPoly&&) noexcept = default;
    RnsPoly& operator=(RnsPoly&&) noexcept = default;

    const Context& context() const { return *ctx_; }
    bool valid() const { return ctx_ != nullptr; }
    int level() const { return level_; }
    bool extended() const { return special_limbs_ > 0; }
    bool is_ntt() const { return ntt_; }
    u64 degree() const { return ctx_->degree(); }

    /** Total limb count: level+1 coefficient limbs plus any special limbs. */
    int
    num_limbs() const
    {
        return level_ + 1 + special_limbs_;
    }
    int num_coeff_limbs() const { return level_ + 1; }

    u64*
    limb(int i)
    {
        return data_.data() + static_cast<std::size_t>(i) * ctx_->degree();
    }
    const u64*
    limb(int i) const
    {
        return data_.data() + static_cast<std::size_t>(i) * ctx_->degree();
    }

    /**
     * Global modulus index of limb i (coefficient limbs map to 0..L,
     * special limbs to L+1..L+k).
     */
    int
    limb_global_index(int i) const
    {
        return i <= level_ ? i : ctx_->max_level() + 1 + (i - level_ - 1);
    }
    /** Modulus of limb i: q_i for i <= level, special primes after. */
    const Modulus&
    limb_modulus(int i) const
    {
        return ctx_->modulus_global(limb_global_index(i));
    }
    const NttTables&
    limb_tables(int i) const
    {
        return ctx_->tables_global(limb_global_index(i));
    }

    // ---- arithmetic (operands must share context, form, and limbs) ----

    void add_inplace(const RnsPoly& other);
    void sub_inplace(const RnsPoly& other);
    void negate_inplace();
    /** Pointwise product; both operands must be in NTT form. */
    void mul_pointwise_inplace(const RnsPoly& other);
    /** Fused a += b * c over matching limbs; all NTT form. */
    void add_product_inplace(const RnsPoly& b, const RnsPoly& c);
    /** Multiplies limb i by scalar_per_limb[i] (already reduced mod q_i). */
    void mul_scalar_inplace(const std::vector<u64>& scalar_per_limb);
    /** Multiplies every limb by the same small nonnegative integer. */
    void mul_small_scalar_inplace(u64 scalar);

    // ---- form conversions ----

    void to_ntt();
    void to_coeff();

    // ---- Galois automorphisms X -> X^elt (elt odd, < 2N) ----

    /** Automorphism applied in whatever form the polynomial is in. */
    RnsPoly galois(u64 elt) const;
    /** NTT-form automorphism with a precomputed permutation table. */
    RnsPoly galois_with_permutation(const std::vector<u32>& perm) const;

    // ---- modulus management ----

    /**
     * Rescale step: divides by the last coefficient modulus and drops that
     * limb (Section 2.5.2). Requires !extended() and level() >= 1.
     */
    void rescale_drop_last();

    /**
     * Divides by P, the product of the special primes, and drops the
     * special limbs, completing a key switch. Requires extended(). The
     * result is byte for byte what dividing by one special prime at a
     * time (centering each dropped limb) gives, in one pass.
     */
    void mod_down_special();

    /** Drops limbs above new_level (level adjustment; value mod Q_{l'}). */
    void drop_to_level(int new_level);

    /**
     * ModRaise (bootstrap step 1): reinterprets a level-0 polynomial as an
     * element of R_{Q_{new_level}}. Each coefficient c in [0, q_0) is
     * centered to (-q_0/2, q_0/2] and reduced into every limb of the
     * larger basis, so the raised value equals m + q_0 * I for the small
     * integer polynomial I the bootstrap's EvalMod stage removes. The
     * result is returned in the same form (NTT or coefficient) as *this.
     */
    RnsPoly mod_raise(int new_level) const;

  private:
    /**
     * Divides by the moduli of the last k limbs and drops them: the result
     * of centering the last limb, subtracting it from every other limb and
     * multiplying by its modulus' inverse, k times over, computed in one
     * pass with k inverse and num_limbs() - k forward NTTs (NTT form).
     */
    void divide_and_drop(int k);

    /** Books an ArenaVec acquisition into the context's counters. */
    void count_acquire(core::ArenaAcquire how) const;

    const Context* ctx_ = nullptr;
    int level_ = -1;
    bool ntt_ = false;
    int special_limbs_ = 0;  // present special limbs (shrinks in mod-down)
    core::ArenaVec<u64> data_;
};

/** Permutation table for a Galois automorphism in NTT form. */
std::vector<u32> make_galois_ntt_permutation(const Context& ctx, u64 elt);

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_POLY_H_
