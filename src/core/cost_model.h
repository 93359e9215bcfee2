#ifndef ORION_SRC_CORE_COST_MODEL_H_
#define ORION_SRC_CORE_COST_MODEL_H_

/**
 * @file
 * Analytic FHE latency model (Section 5.1, "Cost model"; Figure 1).
 *
 * Latencies of RNS-CKKS primitives are dominated by per-limb NTTs and
 * pointwise passes, so each primitive cost is a closed-form function of the
 * ring degree N, the current level l, and the key-switching digit count
 * d(l) = ceil((l+1)/alpha). Key switching at level l touches
 * (l + 1 + k) * (d(l) + 2)-ish limb transforms, which is what produces the
 * superlinear growth of rotation and bootstrap latency with level that
 * Figure 1 reports. The single constant `seconds_per_word_op` can be
 * calibrated against real measurements (bench/fig1_op_latency does this) or
 * left at its default for deterministic unit tests.
 */

#include <vector>

#include "src/common.h"

namespace orion::core {

/** Aggregate operation counts of one linear layer (from a BlockedPlan). */
struct PlanStats {
    u64 baby_rotations = 0;   ///< hoisted baby-step rotations
    u64 giant_rotations = 0;  ///< giant-step rotations (deferred mod-down)
    u64 pmults = 0;           ///< plaintext-ciphertext products
    u64 input_cts = 0;        ///< ciphertexts holding the input tensor
    u64 output_cts = 0;       ///< ciphertexts holding the output tensor
    u64 hoists = 0;           ///< hoisted decompositions (one per input ct
                              ///  per column use)
    u64 sum_rotations = 0;    ///< rotate-and-adds after the rescale (hybrid
                              ///  fold, replication)

    u64
    total_rotations() const
    {
        return baby_rotations + giant_rotations + sum_rotations;
    }
};

/** Closed-form latency model for CKKS primitives. */
class CostModel {
  public:
    /** Paper-scale parameters: N = 2^16, alpha = 3, L_boot = 14. */
    static CostModel paper_scale();
    /** Model matching this repository's functional parameter sets. */
    static CostModel for_params(u64 poly_degree, int digit_size,
                                int num_special, int l_boot);

    u64 poly_degree() const { return n_; }
    int l_boot() const { return l_boot_; }

    /** Calibrates seconds_per_word_op from a measured rotation latency. */
    void calibrate(double measured_rotation_seconds, int at_level);

    // ---- primitive latencies (seconds), as functions of level ----

    double ntt(int limbs) const;
    double pmult(int level) const;
    double hadd(int level) const;
    double rescale(int level) const;
    /** Full (un-hoisted) rotation: decompose + inner product + mod-down. */
    double rotation(int level) const;
    /** Rotation served from an existing hoisted decomposition. */
    double rotation_hoisted(int level) const;
    /** The hoisted decomposition itself (amortized over many rotations). */
    double hoist(int level) const;
    /** Ciphertext-ciphertext multiply including relinearization. */
    double hmult(int level) const;

    /**
     * Bootstrap latency to effective level l_eff: sum of the modeled
     * CoeffToSlot + EvalMod + SlotToCoeff schedules starting at level
     * l_eff + l_boot. Superlinear in l_eff (Figure 1c).
     */
    double bootstrap(int l_eff) const;

    // ---- aggregate latencies ----

    /**
     * One linear layer (BSGS matvec) executed at the given level; its
     * rotate-and-adds run one level lower, after the rescale.
     */
    double linear_layer(const PlanStats& stats, int level) const;

    /**
     * One polynomial-activation evaluation of the given stage degrees
     * executed on `cts` ciphertexts starting at the given level.
     */
    double activation(const std::vector<int>& stage_degrees, int level,
                      u64 cts, bool times_input) const;

  private:
    int num_digits(int level) const;

    u64 n_ = u64(1) << 16;
    int log_n_ = 16;
    int alpha_ = 3;
    int num_special_ = 3;
    int l_boot_ = 14;
    /**
     * Default constant calibrated against the measured N = 2^16 paper-scale
     * bootstrap (bench/baselines/BENCH_bootstrap.json: 37851.07 ms measured
     * vs 20325.99 ms that this model priced at the previous 2.0e-9) —
     * 2.0e-9 * 37851.0701 / 20325.9923. The registry's boot.*.seconds
     * stage histograms are the data source for future refits.
     */
    double seconds_per_word_op_ = 3.7244e-9;
};

}  // namespace orion::core

#endif  // ORION_SRC_CORE_COST_MODEL_H_
