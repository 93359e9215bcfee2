#ifndef ORION_SRC_CKKS_CONTEXT_H_
#define ORION_SRC_CKKS_CONTEXT_H_

/**
 * @file
 * CKKS parameter sets and the shared Context object.
 *
 * A Context owns the moduli chain q_0..q_L plus the special key-switching
 * primes p_0..p_{k-1} (hybrid key switching with digit size alpha requires
 * P = prod p_i to dominate every digit product, so k = alpha), the
 * per-modulus NTT tables, and the cross-modulus constants used by
 * rescaling, mod-down, and hybrid key switching. Every other CKKS object
 * (polynomials, keys, evaluators) holds a pointer to its Context.
 *
 * Level convention (Table 1 of the paper): a ciphertext at level l has
 * coefficient limbs q_0..q_l; rescaling drops the last limb; level 0 means
 * the multiplicative budget is spent and a bootstrap is required.
 */

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common.h"
#include "src/ckks/modarith.h"
#include "src/ckks/ntt.h"

namespace orion::ckks {

/**
 * A relaxed atomic counter that still copies and compares like a plain u64,
 * so counters can be incremented from parallel kernels (thread_pool.h) and
 * snapshotted with `OpCounters before = ctx.counters();`.
 */
class OpCounter {
  public:
    OpCounter(u64 v = 0) : v_(v) {}
    OpCounter(const OpCounter& o) : v_(o.value()) {}
    OpCounter&
    operator=(const OpCounter& o)
    {
        v_.store(o.value(), std::memory_order_relaxed);
        return *this;
    }
    OpCounter&
    operator=(u64 v)
    {
        v_.store(v, std::memory_order_relaxed);
        return *this;
    }
    OpCounter&
    operator+=(u64 d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
        return *this;
    }
    operator u64() const { return value(); }
    u64 value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<u64> v_;
};

/** Running counters of primitive FHE operations, for benches and tables. */
struct OpCounters {
    OpCounter pmult;        ///< plaintext-ciphertext products
    OpCounter hmult;        ///< ciphertext-ciphertext products
    OpCounter hadd;         ///< additions (either operand kind)
    OpCounter hrot;         ///< un-hoisted rotations
    OpCounter hrot_hoisted; ///< rotations served from a hoisted decomposition
    OpCounter keyswitch;    ///< key-switch inner products (relin + rotations)
    OpCounter rescale;
    OpCounter bootstrap;
    OpCounter ntt;          ///< individual limb-sized (I)NTT invocations
    OpCounter decompose;    ///< key-switch digit decompositions (hoist once,
                            ///  reuse across rotations)
    OpCounter poly_alloc;     ///< RnsPoly buffer acquisitions (pool or heap)
    OpCounter poly_arena_hit; ///< acquisitions served by the arena pool —
                              ///  poly_alloc == poly_arena_hit over a window
                              ///  means zero heap allocations in it

    void
    reset()
    {
        *this = OpCounters{};
    }
    u64 total_rotations() const { return hrot + hrot_hoisted; }
};

/** User-facing CKKS parameter description. */
struct CkksParams {
    u64 poly_degree = u64(1) << 12;  ///< ring degree N (power of two)
    int log_scale = 35;              ///< log2 of the scaling factor Delta
    int first_prime_bits = 50;       ///< bits of q_0 (message headroom)
    int num_scale_primes = 8;        ///< L: number of rescaling primes
    int special_prime_bits = 51;     ///< bits of each key-switch prime p_i
    int digit_size = 3;              ///< alpha: limbs per key-switch digit
                                     ///  (also the special prime count)
    u64 seed = 1;                    ///< deterministic RNG seed
    /**
     * Hamming weight of the ternary secret; 0 means dense (every
     * coefficient drawn from {-1, 0, 1}). Bootstrap-capable parameter
     * sets use a sparse secret: the EvalMod range bound K grows with
     * sqrt(weight), and a dense secret at these ring sizes would force a
     * very deep sine approximation (see bootstrap_circuit.h).
     */
    int secret_weight = 0;

    /** Tiny parameters for fast unit tests (NOT secure). */
    static CkksParams
    toy()
    {
        CkksParams p;
        p.poly_degree = u64(1) << 11;
        p.log_scale = 30;
        p.first_prime_bits = 40;
        p.num_scale_primes = 6;
        p.special_prime_bits = 41;
        p.digit_size = 3;
        return p;
    }

    /** Mid-size parameters for functional network runs (NOT secure). */
    static CkksParams
    network(u64 degree = u64(1) << 13, int levels = 14)
    {
        CkksParams p;
        p.poly_degree = degree;
        p.log_scale = 35;
        p.first_prime_bits = 45;
        p.num_scale_primes = levels;
        p.special_prime_bits = 46;
        p.digit_size = 4;
        return p;
    }

    /**
     * A bootstrap-capable parameter point (NOT secure): enough scale
     * primes for the full CtS -> EvalMod -> StC circuit above l_eff
     * effective levels, a q_0 / Delta message ratio of 2^10 (the
     * sine-linearization precision budget), and a sparse ternary secret
     * so the EvalMod range bound K stays small. The literal 13 is the
     * default-BootstrapParams plan depth (the paper's Table-1 shape) —
     * it cannot be computed here without a layering cycle, so
     * tests/test_bootstrap.cpp PlanShapeMatchesThePaper pins the
     * coupling (the measured BootstrapPlan::depth must fit this chain).
     */
    static CkksParams
    bootstrap_toy(int l_eff = 3, u64 degree = u64(1) << 11)
    {
        CkksParams p;
        p.poly_degree = degree;
        // 50-bit scale primes: the CtS/StC stage matrices and EvalMod run
        // near the word-size precision ceiling, which is what pushes the
        // round-trip past 15 bits (plaintext quantization error scales as
        // sqrt(N)/2^log_scale and is amplified by q_0/Delta at the end).
        p.log_scale = 50;
        p.first_prime_bits = 60;
        p.num_scale_primes = l_eff + 13;
        p.special_prime_bits = 60;
        p.digit_size = 3;
        p.secret_weight = 32;
        return p;
    }

    /**
     * The paper-scale bootstrap point (Table 2's ring degree, NOT secure —
     * primes are still generated by the toy search): N = 2^16 with the
     * same chain shape as bootstrap_toy. This is the parameter set behind
     * the BENCH_bootstrap.json full-bootstrap wall-clock row.
     */
    static CkksParams
    bootstrap_full(int l_eff = 4)
    {
        return bootstrap_toy(l_eff, u64(1) << 16);
    }
};

/** Immutable CKKS context: moduli chain, NTT tables, derived constants. */
class Context {
  public:
    explicit Context(const CkksParams& params);
    ~Context();

    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

    const CkksParams& params() const { return params_; }
    u64 degree() const { return n_; }
    int log_degree() const { return log_n_; }
    u64 slot_count() const { return n_ / 2; }
    /** Maximum multiplicative level L. */
    int max_level() const { return num_q_ - 1; }
    double scale() const { return scale_; }

    /** Coefficient modulus q_i, 0 <= i <= L. */
    const Modulus&
    q(int i) const
    {
        return moduli_[static_cast<std::size_t>(i)];
    }
    /** Special (key-switching) prime p_i, 0 <= i < special_count(). */
    const Modulus&
    special(int i) const
    {
        return moduli_[static_cast<std::size_t>(num_q_ + i)];
    }
    int special_count() const { return num_special_; }

    /**
     * Global modulus indexing: indices 0..L are q_0..q_L, indices
     * L+1..L+k are the special primes.
     */
    const Modulus&
    modulus_global(int g) const
    {
        return moduli_[static_cast<std::size_t>(g)];
    }
    const NttTables&
    tables_global(int g) const
    {
        return tables_[static_cast<std::size_t>(g)];
    }
    const NttTables&
    tables(int i) const
    {
        return tables_[static_cast<std::size_t>(i)];
    }
    int num_global() const { return num_q_ + num_special_; }

    /** alpha, the number of limbs per key-switching digit. */
    int digit_size() const { return params_.digit_size; }
    /** Number of key-switch digits covering limbs q_0..q_level. */
    int
    num_digits(int level) const
    {
        return static_cast<int>(ceil_div(static_cast<u64>(level) + 1,
                                         static_cast<u64>(digit_size())));
    }

    /** modulus_global(a)^{-1} mod modulus_global(b), a != b. */
    u64
    inv_mod_global(int a, int b) const
    {
        return inv_table_[static_cast<std::size_t>(a) *
                              static_cast<std::size_t>(num_global()) +
                          static_cast<std::size_t>(b)];
    }
    /** q_a^{-1} mod q_b (a != b). */
    u64
    q_inv_mod(int a, int b) const
    {
        return inv_mod_global(a, b);
    }
    /** P = prod of special primes, reduced mod q_j. */
    u64
    p_prod_mod_q(int j) const
    {
        return p_prod_mod_q_[static_cast<std::size_t>(j)];
    }

    /**
     * Precomputed fast-base-conversion constants of one key-switch digit
     * covering coefficient limbs q_lo..q_{lo+len-1} (lo = d * alpha). D
     * denotes the product of the digit's primes. Hoisting these out of
     * KeySwitcher::decompose removes an O(alpha^2) mul_mod chain per digit
     * limb per call from the rotation hot path.
     */
    struct DigitConsts {
        std::vector<u64> hat_inv;        ///< (D/q_j)^{-1} mod q_j per limb j
        std::vector<u64> hat_inv_shoup;  ///< Shoup companions of hat_inv
        /** hat_mod[g][j] = (D/q_j) mod modulus_global(g); empty for the
         *  digit's own limbs (those are copied, not converted). */
        std::vector<std::vector<u64>> hat_mod;
    };

    /**
     * Constants of digit d when it spans `len` limbs (len < alpha only for
     * the chain's last digit at a given level).
     */
    const DigitConsts&
    digit_consts(int d, int len) const
    {
        return digit_consts_[static_cast<std::size_t>(d)]
                            [static_cast<std::size_t>(len - 1)];
    }

    /**
     * Galois element for a cyclic rotation of the message slots by `step`
     * positions toward lower indices (the paper's "rotate up"), i.e.
     * slot i of the result holds slot i + step of the input.
     */
    u64 galois_elt(int step) const;
    /** Galois element of complex conjugation. */
    u64 galois_elt_conj() const { return 2 * n_ - 1; }

    /** Mutable operation counters (shared across all evaluators). */
    OpCounters& counters() const { return counters_; }

    /**
     * Cached NTT-form permutation table of the Galois automorphism
     * X -> X^elt. Building one is an O(N) pass with two bit reversals per
     * slot; every rotation by the same step across the whole bootstrap
     * circuit (and any BSGS matvec) shares one table. The reference stays
     * valid for the Context's lifetime (node-stable map under a mutex).
     */
    const std::vector<u32>& galois_permutation(u64 elt) const;

  private:
    CkksParams params_;
    u64 n_ = 0;
    int log_n_ = 0;
    double scale_ = 0.0;
    int num_q_ = 0;
    int num_special_ = 0;
    std::vector<Modulus> moduli_;  // q_0..q_L, p_0..p_{k-1}
    std::vector<NttTables> tables_;
    std::vector<u64> inv_table_;
    std::vector<u64> p_prod_mod_q_;
    std::vector<std::vector<DigitConsts>> digit_consts_;  // [digit][len-1]
    mutable OpCounters counters_;
    mutable std::mutex galois_perm_mu_;
    mutable std::map<u64, std::vector<u32>> galois_perm_cache_;
    /** telemetry::Registry::global() collector handle (ckks.op.*). */
    u64 telem_collector_ = 0;
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_CONTEXT_H_
