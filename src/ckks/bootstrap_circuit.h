#ifndef ORION_SRC_CKKS_BOOTSTRAP_CIRCUIT_H_
#define ORION_SRC_CKKS_BOOTSTRAP_CIRCUIT_H_

/**
 * @file
 * Bootstrapping (Section 2.5.4): raises a level-exhausted ciphertext back
 * to the effective level L_eff = L - L_boot. This is the public-key CKKS
 * bootstrap circuit: ModRaise, CoeffToSlot, EvalMod, SlotToCoeff —
 * evaluated entirely under Galois and relinearization keys. No secret key
 * appears anywhere in this pipeline; it is what the serving path runs on
 * an untrusted server.
 *
 * Pipeline, in value terms (Delta = the canonical scale, q_0 = the first
 * prime, n = slot count, s_in = the input's exact symbolic scale):
 *
 *  1. ModRaise: drop to level 0, re-express the coefficients over
 *     q_0..q_{l_top}. The raised plaintext equals m + q_0 * I for a small
 *     integer polynomial I (|I| <= K, set by the secret's Hamming weight).
 *  2. CoeffToSlot: the encoder's *inverse* special-FFT stages, collapsed
 *     into cts_levels BSGS plaintext-matrix products (complex diagonals,
 *     hoisted baby steps, double-hoisted giants — the same
 *     lin::HeBlockedMatrix every linear layer uses). The constant
 *     s_in / (2 n q_0) is split evenly across the stages. The result holds
 *     the raised coefficients (in bit-reversed slot order, divided by q_0)
 *     in its slots; one conjugation splits real and imaginary halves.
 *  3. EvalMod: x mod q_0 as the scaled sine, evaluated as a Chebyshev
 *     approximation of cos(2*pi*(x - 1/4) / 2^r) followed by r
 *     double-angle steps (cos -> sin shift folded into the phase), using
 *     the errorless-scale BSGS polynomial evaluator. Runs once per half.
 *  4. SlotToCoeff: the *forward* special-FFT stages as stc_levels matrix
 *     products, with q_0 / (2*pi*s_in) folded in. The two bit reversals
 *     of steps 2 and 4 cancel; EvalMod never observes slot order.
 *
 * The output sits at level l_eff and exactly the canonical scale Delta.
 * Levels consumed: cts_levels + [1 + Chebyshev depth + r] + stc_levels
 * (= l_boot, 13 with the defaults — the paper's Table-1 shape).
 */

#include "src/approx/chebyshev.h"
#include "src/approx/polyeval.h"
#include "src/ckks/encoder.h"
#include "src/ckks/evaluator.h"
#include "src/ckks/special_fft.h"
#include "src/linalg/blocked.h"

namespace orion::ckks {

/** Tunables of the bootstrap circuit (defaults match the paper's shape). */
struct BootstrapParams {
    /**
     * Bound K on the ModRaise integer part |I|; 0 derives it from the
     * secret's Hamming weight (about seven standard deviations of the
     * heuristic sqrt((h+1)/12) bound). Dense secrets produce large K and
     * hence a much deeper, slower EvalMod — bootstrap-capable parameter
     * sets should set CkksParams::secret_weight.
     */
    int k_range = 0;
    /** Double-angle steps r applied after the base cosine evaluation. */
    int double_angle = 2;
    /** Chebyshev degree of the base cosine; 0 = grow until fit_tolerance. */
    int sine_degree = 0;
    /** Levels (collapsed stage matrices) of CoeffToSlot / SlotToCoeff. */
    int cts_levels = 2;
    int stc_levels = 2;
    /** Target max fit error of the base cosine approximation. */
    double fit_tolerance = 1e-12;
};

/**
 * The compiled structure of a bootstrap circuit: collapsed stage
 * matrices, their BSGS rotation schedules, and the fitted EvalMod
 * polynomial. A pure, deterministic function of (CkksParams,
 * BootstrapParams) — both a serving client and a server derive the same
 * plan independently, which is how the client knows which rotation keys
 * the server will need.
 */
struct BootstrapPlan {
    u64 slots = 0;
    BootstrapParams params;  ///< resolved (k_range filled in)
    int secret_weight = 0;   ///< as derived from (dense = 2N/3 heuristic)

    approx::ChebyshevPoly sine;  ///< base cosine approximation
    int eval_degree = 0;
    int eval_depth = 0;  ///< domain scaling + Chebyshev depth + r
    int depth = 0;       ///< l_boot = cts_levels + eval_depth + stc_levels

    /** Collapsed stage matrices, in application order. */
    std::vector<ComplexDiagMatrix> cts_stages;
    std::vector<ComplexDiagMatrix> stc_stages;
    /** BSGS schedule of each stage, aligned with the stages above. */
    std::vector<lin::BsgsPlan> cts_bsgs;
    std::vector<lin::BsgsPlan> stc_bsgs;

    /**
     * Rotation-key requirements with the exact level each step is used
     * at, for level-pruned keygen (keys.h). The circuit raises to level
     * l_eff + depth, so its keys span most of the chain. Conjugation is
     * requested separately (conjugation_level()).
     */
    std::vector<GaloisKeyRequest> galois_requests(int l_eff) const;
    /** The level at which the CtS conjugation runs. */
    int conjugation_level(int l_eff) const
    {
        return l_eff + depth - params.cts_levels;
    }

    static BootstrapPlan build(const CkksParams& params,
                               const BootstrapParams& opts = {});

    /**
     * Process-wide memo of build() for the default BootstrapParams,
     * keyed by the fields the plan actually depends on (ring degree and
     * secret weight). The compiler, PreparedProgram, and every serving
     * client all need the same plan; at large ring sizes rebuilding it
     * per consumer costs seconds of redundant startup work.
     */
    static std::shared_ptr<const BootstrapPlan> cached(
        const CkksParams& params);
};

/**
 * A bootstrap plan bound to a Context: stage matrices encoded at their
 * levels and scales. Immutable after construction and safe to share
 * across concurrently running executors; all key material comes from the
 * Evaluator passed to bootstrap() (Galois keys for every plan step plus
 * conjugation, and the relinearization key for EvalMod).
 *
 * `input_scale` is the exact symbolic scale of the ciphertexts this
 * circuit will bootstrap (the compiler's scale resolution knows it per
 * instruction); the default 0 means the canonical scale Delta. The
 * output is always at exactly Delta.
 */
class BootstrapCircuit {
  public:
    /** The plan is shared, not copied: its stage matrices are megabytes
     *  and several circuit variants (one per distinct input scale)
     *  typically hang off one plan. */
    BootstrapCircuit(const Context& ctx, const Encoder& encoder,
                     std::shared_ptr<const BootstrapPlan> plan, int l_eff,
                     double input_scale = 0.0);

    int l_eff() const { return l_eff_; }
    int l_boot() const { return plan_->depth; }
    int top_level() const { return l_eff_ + plan_->depth; }
    double input_scale() const { return input_scale_; }
    const BootstrapPlan& plan() const { return *plan_; }

    /** True when `ctx` has enough levels for the circuit above l_eff. */
    static bool supported(const Context& ctx, const BootstrapPlan& plan,
                          int l_eff)
    {
        return l_eff + plan.depth <= ctx.max_level();
    }

    /**
     * Bootstraps ct (any level, scale == input_scale) to level l_eff at
     * the canonical scale Delta, using only the evaluator's bound keys.
     * Each stage's wall time is observed into the process registry's
     * boot.{mod_raise,cts,eval_mod,stc}.seconds histograms.
     */
    Ciphertext bootstrap(const Evaluator& eval, const Ciphertext& ct) const;

  private:
    /** The scaled-sine stage on one real half (poly eval + doublings). */
    Ciphertext eval_mod(const Evaluator& eval, const Ciphertext& ct) const;

    const Context* ctx_;
    std::shared_ptr<const BootstrapPlan> plan_;
    int l_eff_ = 0;
    double input_scale_ = 0.0;
    double post_eval_scale_ = 0.0;  ///< symbolic scale after EvalMod
    std::vector<lin::HeBlockedMatrix> cts_;
    std::vector<lin::HeBlockedMatrix> stc_;
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_BOOTSTRAP_CIRCUIT_H_
