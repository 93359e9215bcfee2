#ifndef ORION_SRC_CKKS_CKKS_H_
#define ORION_SRC_CKKS_CKKS_H_

/**
 * @file
 * Umbrella header for the RNS-CKKS substrate.
 */

#include "src/ckks/bootstrap_circuit.h"
#include "src/ckks/ciphertext.h"
#include "src/ckks/context.h"
#include "src/ckks/encoder.h"
#include "src/ckks/encryptor.h"
#include "src/ckks/evaluator.h"
#include "src/ckks/keys.h"
#include "src/ckks/keyswitch.h"
#include "src/ckks/modarith.h"
#include "src/ckks/ntt.h"
#include "src/ckks/poly.h"
#include "src/ckks/primes.h"
#include "src/ckks/sampler.h"

#endif  // ORION_SRC_CKKS_CKKS_H_
