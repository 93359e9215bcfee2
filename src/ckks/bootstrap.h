#ifndef ORION_SRC_CKKS_BOOTSTRAP_H_
#define ORION_SRC_CKKS_BOOTSTRAP_H_

/**
 * @file
 * Bootstrapping (Section 2.5.4): raises a level-exhausted ciphertext back
 * to the effective level L_eff = L - L_boot.
 *
 * Bootstrapper is a real public-key bootstrap: the CoeffToSlot ->
 * EvalMod -> SlotToCoeff circuit of src/ckks/bootstrap_circuit.h,
 * evaluated under Galois and relinearization keys only, with no secret
 * key anywhere. It is what the serving path runs on an untrusted server.
 */

#include "src/ckks/bootstrap_circuit.h"
#include "src/ckks/encoder.h"

namespace orion::ckks {

/**
 * The real public-key bootstrapper: a BootstrapPlan bound to a Context,
 * with the caller's Evaluator supplying every key. Holds no secret.
 */
class Bootstrapper {
  public:
    /**
     * Builds the circuit for the context's parameters. `opts` tunes the
     * circuit; the context must have at least l_eff + plan depth levels.
     */
    Bootstrapper(const Context& ctx, const Encoder& encoder, int l_eff,
                 const BootstrapParams& opts = {});

    /** Maximum achievable level after bootstrapping (Table 1's L_eff). */
    int l_eff() const { return circuit_.l_eff(); }
    /** Levels the circuit itself consumes (Table 1's L_boot). */
    int l_boot() const { return circuit_.l_boot(); }
    const BootstrapCircuit& circuit() const { return circuit_; }
    const BootstrapPlan& plan() const { return circuit_.plan(); }

    /**
     * Rotation keys the evaluator must carry (level-pruned requests plus
     * conjugation at conjugation_level()).
     */
    std::vector<GaloisKeyRequest>
    galois_requests() const
    {
        return plan().galois_requests(l_eff());
    }
    int
    conjugation_level() const
    {
        return plan().conjugation_level(l_eff());
    }

    /**
     * Bootstraps ct to level l_eff at the canonical scale Delta using
     * eval's bound keys (Galois for every plan step + conjugation, relin
     * for EvalMod). The input may be at any level at scale ~Delta.
     */
    Ciphertext
    bootstrap(const Evaluator& eval, const Ciphertext& ct,
              BootstrapStats* stats = nullptr) const
    {
        return circuit_.bootstrap(eval, ct, stats);
    }

  private:
    BootstrapCircuit circuit_;
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_BOOTSTRAP_H_
