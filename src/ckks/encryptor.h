#ifndef ORION_SRC_CKKS_ENCRYPTOR_H_
#define ORION_SRC_CKKS_ENCRYPTOR_H_

/**
 * @file
 * Encryption (Section 2.3) and decryption. Encryption supports both the
 * public-key path (used by a data owner) and the symmetric path (used by
 * tests).
 */

#include "src/ckks/ciphertext.h"
#include "src/ckks/keys.h"
#include "src/ckks/sampler.h"

namespace orion::ckks {

/** Turns plaintexts into ciphertexts. */
class Encryptor {
  public:
    /** Public-key encryptor. */
    Encryptor(const Context& ctx, const PublicKey& pk, u64 seed = 11);
    /** Symmetric encryptor (holds the secret). */
    Encryptor(const Context& ctx, const SecretKey& sk, u64 seed = 11);

    Ciphertext encrypt(const Plaintext& pt);

  private:
    RnsPoly sample_error_at(int level);

    const Context* ctx_;
    const PublicKey* pk_ = nullptr;
    const SecretKey* sk_ = nullptr;
    Sampler sampler_;
};

/** Recovers plaintexts with the secret key. */
class Decryptor {
  public:
    Decryptor(const Context& ctx, const SecretKey& sk)
        : ctx_(&ctx), sk_(&sk)
    {
    }

    Plaintext decrypt(const Ciphertext& ct) const;

  private:
    const Context* ctx_;
    const SecretKey* sk_;
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_ENCRYPTOR_H_
