#ifndef ORION_SRC_CKKS_EVALUATOR_H_
#define ORION_SRC_CKKS_EVALUATOR_H_

/**
 * @file
 * The homomorphic evaluator: the CKKS operations of Section 2.5 (PAdd,
 * HAdd, PMult, HMult, HRot, rescaling, level adjustment) plus the hoisting
 * machinery of Section 3.3.
 *
 * Hoisting splits a rotation into a hoistable digit decomposition (done
 * once per ciphertext) and a cheap per-rotation permutation + key inner
 * product. The RotationAccumulator additionally defers the final mod-down
 * across many rotations, the double-hoisting idea of Bossuat et al. used
 * by every BSGS matrix-vector product in Orion.
 */

#include <span>

#include "src/ckks/ciphertext.h"
#include "src/ckks/encoder.h"
#include "src/ckks/keyswitch.h"

namespace orion::ckks {

/** Homomorphic operations over ciphertexts. */
class Evaluator {
  public:
    Evaluator(const Context& ctx, const Encoder& encoder)
        : ctx_(&ctx), encoder_(&encoder), switcher_(ctx)
    {
    }

    /** Registers the relinearization key (required by mul / square). */
    void set_relin_key(const KswitchKey* key) { relin_ = key; }
    /** Registers rotation keys (required by rotate / conjugate). */
    void set_galois_keys(const GaloisKeys* keys) { galois_ = keys; }

    const Context& context() const { return *ctx_; }
    const Encoder& encoder() const { return *encoder_; }

    // ---- additive ops (equal level and scale required) ----

    Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
    void add_inplace(Ciphertext& a, const Ciphertext& b) const;
    void sub_inplace(Ciphertext& a, const Ciphertext& b) const;
    void add_plain_inplace(Ciphertext& a, const Plaintext& p) const;
    void sub_plain_inplace(Ciphertext& a, const Plaintext& p) const;
    void negate_inplace(Ciphertext& a) const;
    /** Adds constant v to every slot (encodes at a's level and scale). */
    void add_constant_inplace(Ciphertext& a, double v) const;

    // ---- multiplicative ops (no implicit rescale) ----

    /** PMult: plaintext-ciphertext product; output scale is the product. */
    Ciphertext mul_plain(const Ciphertext& a, const Plaintext& p) const;
    void mul_plain_inplace(Ciphertext& a, const Plaintext& p) const;
    /**
     * PMult-accumulate: sum_t cts[t] * pts[t] in one lazy-reduction pass
     * per limb, with no per-term ciphertext temporaries. Every operand
     * must sit at one level and every product at one scale (the output's
     * scale is the first product's). Counts as T PMults and T - 1 HAdds,
     * and the residues are byte-identical to mul_plain + add_inplace.
     */
    Ciphertext mul_plain_sum(std::span<const Ciphertext* const> cts,
                             std::span<const Plaintext* const> pts) const;
    /** HMult with relinearization; output scale is the product. */
    Ciphertext mul(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext square(const Ciphertext& a) const;
    /**
     * Multiplies by constant v encoded at the given scale (consumes one
     * level after the caller rescales).
     */
    void mul_constant_inplace(Ciphertext& a, double v, double scale) const;

    // ---- scale and level management ----

    /** Rescale: divides by q_l and drops one level (Section 2.5.2). */
    void rescale_inplace(Ciphertext& a) const;
    /** Level adjustment: drops limbs without changing the scale. */
    void drop_to_level_inplace(Ciphertext& a, int level) const;

    // ---- rotations ----

    /** HRot_k: cyclic rotation of slots by k (un-hoisted). */
    Ciphertext rotate(const Ciphertext& a, int step) const;
    /** Complex conjugation of all slots. */
    Ciphertext conjugate(const Ciphertext& a) const;

    /**
     * Multiplies every slot by the imaginary unit i (or -i): the exact
     * monomial product X^{N/2} (resp. -X^{N/2}), which is free of noise,
     * scale, and level cost. Used by the bootstrap's real/imaginary
     * split and recombination around EvalMod.
     */
    void mul_by_i_inplace(Ciphertext& a, bool negative = false) const;

    /** A ciphertext with its digit decomposition precomputed (hoisted). */
    struct Hoisted {
        Ciphertext ct;
        std::vector<RnsPoly> digits;
    };

    /** Performs the hoistable decomposition once. */
    Hoisted hoist(const Ciphertext& a) const;
    /** Rotation served from a hoisted decomposition (cheaper key switch). */
    Ciphertext rotate_hoisted(const Hoisted& h, int step) const;

    /**
     * Accumulates sums of rotated ciphertexts while deferring the key-switch
     * mod-down to a single finalize (the double-hoisting pattern): the
     * result equals sum_i HRot_{k_i}(ct_i).
     */
    class RotationAccumulator {
      public:
        int level() const { return level_; }
        double scale() const { return scale_; }

      private:
        friend class Evaluator;
        RnsPoly base0_, base1_;  // plain-basis parts (step-0 and phi(c0))
        RnsPoly ext0_, ext1_;    // extended-basis key-switch partial sums
        double scale_ = 0.0;
        int level_ = -1;
        bool any_ext_ = false;
    };

    RotationAccumulator make_accumulator(int level, double scale) const;
    void accumulate_rotation(RotationAccumulator& acc, const Ciphertext& ct,
                             int step) const;
    /**
     * Folds `from` into `into` (exact modular adds of the plain-basis and
     * extended-basis partial sums). Parallel BSGS giant-step fan-outs give
     * each worker chunk a private accumulator and merge them in fixed
     * chunk order at the end; because the sums are exact, the result is
     * bit-identical to serial accumulation at any thread count.
     */
    void merge_accumulator(RotationAccumulator& into,
                           const RotationAccumulator& from) const;
    Ciphertext finalize_accumulator(RotationAccumulator& acc) const;

    /** The Galois key lookup used internally; public for diagnostics. */
    const KswitchKey& galois_key_for_step(int step) const;

  private:
    void check_additive_compat(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext rotate_internal(const Ciphertext& a, u64 elt) const;

    const Context* ctx_;
    const Encoder* encoder_;
    KeySwitcher switcher_;
    const KswitchKey* relin_ = nullptr;
    const GaloisKeys* galois_ = nullptr;
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_EVALUATOR_H_
