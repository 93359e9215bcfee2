#ifndef ORION_SRC_CORE_INSTRUCTION_H_
#define ORION_SRC_CORE_INSTRUCTION_H_

/**
 * @file
 * One FHE instruction: the record a placement unit carries, the compiler
 * emits, and the executor walk runs.
 */

#include "src/common.h"

namespace orion::core {

/**
 * One FHE instruction of the compiled program. Before emission (as a
 * placement unit's record) `value`, `a` and `b` are the compiler's value
 * keys; emission resolves them to program value ids.
 */
struct Instruction {
    enum class Op {
        kInput,      ///< pack + encrypt the network input
        kBootstrap,  ///< bootstrap all ciphertexts of value a
        kLinear,     ///< value = Matrix(matrix_idx) * a  (+ bias)
        kActivation, ///< value = act(a): x^2, SiLU poly, or one sign stage
        kMul,        ///< value = a * b (the x * sign(x) join of ReLU)
        kScale,      ///< value = scale_factor * a (PMult + rescale)
        kAdd,        ///< value = a + b
        kOutput,     ///< decrypt + unpack + de-normalize value a
    };

    Op op = Op::kInput;
    int value = -1;      ///< id of the produced value
    int a = -1, b = -1;  ///< operand value ids
    int layer_id = -1;   ///< originating network layer
    int level = 0;       ///< level at which the op executes (input level)
    double scale_factor = 1.0;  ///< multiplier for kScale
    u64 cts = 1;                ///< ciphertexts in the produced value
    int payload = -1;           ///< index into linears()/activations()
};

}  // namespace orion::core

#endif  // ORION_SRC_CORE_INSTRUCTION_H_
