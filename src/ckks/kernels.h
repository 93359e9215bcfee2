#ifndef ORION_SRC_CKKS_KERNELS_H_
#define ORION_SRC_CKKS_KERNELS_H_

/**
 * @file
 * Runtime-dispatched SIMD kernels for the RNS-CKKS hot loops.
 *
 * Every limb-sized inner loop of the library — the Harvey lazy NTT
 * butterflies, the whole-limb lazy modarith passes, and the
 * u128-accumulated key-switch inner product — routes through the function
 * table returned by active(). Four implementations exist: portable
 * scalar (the reference loops), AVX2, AVX-512, and AVX-512 IFMA52,
 * which runs limbs whose modulus is below 2^50 on native 52-bit
 * multiply-adds and the rest on the AVX-512 bodies. The best one the CPU
 * supports is selected once at startup by CPUID, overridable with
 * ORION_SIMD=scalar|avx2|avx512|avx512ifma (requests above what the host
 * supports clamp down) or set_isa() from tests.
 *
 * Dispatch contract (see DESIGN.md "Vectorized kernels & memory arenas"):
 * every vector kernel is BIT-IDENTICAL to the scalar reference on every
 * input the kernel admits — not just congruent mod q. Every entry
 * returns canonical residues in [0, q), and the canonical residue of an
 * exact computation is unique, so any exact algorithm yields the same
 * bytes. The lazy-range invariants make every table exact: with
 * q < 2^61, lazy residues live in [0, 2q) (Shoup products) or [0, 4q)
 * (butterfly sums), every u64 addition of two lane values stays below
 * 2^63, and the 16-term chunks of the key-switch digit sum keep the
 * 128-bit accumulators below 2^127, so nothing wraps. The
 * AVX2 and AVX-512 tables perform the scalar u64 operations word for
 * word; the IFMA table's own bounds (lazy values below 4q < 2^52, a
 * 52-bit Shoup constant, 52-bit split accumulators) are proved in
 * kernels.cpp.
 */

#include <vector>

#include "src/ckks/modarith.h"

namespace orion::ckks::kernels {

/** Instruction sets a kernel table can be built for, weakest first. */
enum class Isa : int {
    kScalar = 0,
    kAvx2 = 1,
    kAvx512 = 2,      ///< F, DQ, VL, and BW; never uses IFMA
    kAvx512Ifma = 3,  ///< the AVX-512 set plus IFMA (52-bit multiply-add)
};

/**
 * Borrowed view of one NttTables instance — everything a kernel needs to
 * run the transform without depending on the ntt.h class layout.
 */
struct NttView {
    u64 n = 0;
    Modulus q;
    const u64* roots = nullptr;        ///< bit-reversed psi powers
    const u64* roots_shoup = nullptr;
    const u64* inv_roots = nullptr;
    const u64* inv_roots_shoup = nullptr;
    u64 n_inv = 0;
    u64 n_inv_shoup = 0;
    u64 inv_root_last_scaled = 0;  ///< inv_roots[1] * n_inv (fused stage)
    u64 inv_root_last_scaled_shoup = 0;
};

/**
 * One ISA's implementations. All array kernels accept arbitrary n
 * (vector bodies process full lanes, scalar tails finish the rest) and
 * allow dst == src aliasing where a src pointer exists; distinct arrays
 * must not otherwise overlap. Inputs are canonical residues in [0, q)
 * unless an entry says otherwise.
 */
struct KernelTable {
    /** In-place forward negacyclic NTT (lazy butterflies + normalize). */
    void (*ntt_forward)(const NttView& v, u64* a);
    /** In-place inverse negacyclic NTT (fused 1/N scaling). */
    void (*ntt_inverse)(const NttView& v, u64* a);

    /** a[j] = (a[j] + b[j]) mod q over n residues in [0, q). */
    void (*add_mod_n)(u64* a, const u64* b, u64 n, const Modulus& q);
    /** a[j] = (a[j] - b[j]) mod q over n residues in [0, q). */
    void (*sub_mod_n)(u64* a, const u64* b, u64 n, const Modulus& q);
    /** a[j] = a[j] * b[j] mod q (Barrett) over n residues. */
    void (*mul_mod_n)(u64* a, const u64* b, u64 n, const Modulus& q);
    /** a[j] = (a[j] + x[j] * y[j]) mod q — one Barrett per element. */
    void (*add_product_n)(u64* a, const u64* x, const u64* y, u64 n,
                          const Modulus& q);
    /**
     * a[j] = src[j] * w mod q via Shoup (w_shoup = shoup_precompute(w)).
     * a == src is allowed (the in-place scalar-multiply case).
     */
    void (*mul_scalar_shoup_n)(u64* a, const u64* src, u64 n, u64 w,
                               u64 w_shoup, const Modulus& q);
    /** Maps n lazy residues in [0, 4q) to canonical [0, q). */
    void (*normalize_lazy_n)(u64* a, u64 n, const Modulus& q);

    /**
     * The key-switch digit inner product over one limb:
     *   o0[j] = (o0[j] + sum_d xs[d][j] * bs[d][j]) mod q
     *   o1[j] = (o1[j] + sum_d xs[d][j] * as[d][j]) mod q
     * accumulated in 128 bits with a Barrett reduction between 16-term
     * chunks (and one at the end), exactly the PR-2 lazy schedule.
     */
    void (*ks_inner_product)(u64* o0, u64* o1, const u64* const* xs,
                             const u64* const* bs, const u64* const* as,
                             u64 num_digits, u64 n, const Modulus& q);
    /**
     * Fast-base-conversion accumulation for one target limb:
     *   dst[x] = (sum_j lams[j][x] * hats[j]) mod q,
     * len <= 32 terms summed in 128 bits, one Barrett per element. Rows
     * may hold residues of other moduli: every row value is below
     * row_bound <= 2^61 (the callers pass the largest modulus the rows
     * come from). dst may alias a row.
     */
    void (*base_conv_acc)(u64* dst, const u64* const* lams, const u64* hats,
                          int len, u64 n, const Modulus& q, u64 row_bound);
};

/** True when this build and CPU can run the given ISA's table. */
bool isa_supported(Isa isa);
/** Every ISA this build and host can run, weakest first. */
std::vector<Isa> supported_isas();
/** The strongest supported ISA (what dispatch picks sans override). */
Isa best_supported_isa();
/** The currently selected ISA. */
Isa active_isa();
/**
 * Forces dispatch to `isa` (test hook behind the ORION_SIMD env override).
 * The ISA must be supported on this host.
 */
void set_isa(Isa isa);
const char* isa_name(Isa isa);

/** The kernel table dispatch selected (what all hot paths call). */
const KernelTable& active();
/**
 * A specific ISA's table, for cross-checking kernels against each other.
 * Calling into an unsupported ISA's table is undefined (SIGILL); guard
 * with isa_supported().
 */
const KernelTable& table(Isa isa);

}  // namespace orion::ckks::kernels

#endif  // ORION_SRC_CKKS_KERNELS_H_
