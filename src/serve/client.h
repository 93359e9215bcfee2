#ifndef ORION_SRC_SERVE_CLIENT_H_
#define ORION_SRC_SERVE_CLIENT_H_

/**
 * @file
 * The data owner's side of the serving protocol and the only holder of a
 * secret key: generates its own key material (the secret never leaves
 * this object), exports an evaluation KeyBundle for the server, packs and
 * encrypts inputs, and decrypts outputs back to logits — raw, or wrapped
 * in serialized Requests and Responses.
 *
 * Every verb takes a batch of samples (up to CompiledNetwork::batch,
 * packed into the program's slot lanes); the single-sample overloads are
 * the B = 1 case.
 */

#include "src/core/executor.h"
#include "src/serve/wire.h"

namespace orion::serve {

/** Encrypt -> serialize -> (transport) -> deserialize -> decrypt helper. */
class ServeClient {
  public:
    /**
     * Generates fresh keys for the compiled network's rotation steps.
     * Distinct seeds give distinct secrets, so two clients' sessions are
     * cryptographically isolated.
     */
    ServeClient(const core::CompiledNetwork& cn, const ckks::Context& ctx,
                u64 seed = 21);

    /** The serialized evaluation-key bundle to register with a server. */
    ckks::serial::Bytes key_bundle() const;

    /** Evaluation keys, for binding to an in-process executor. */
    const ckks::KswitchKey& relin_key() const { return relin_; }
    const ckks::GaloisKeys& galois_keys() const { return galois_; }

    /** Stores the server-assigned session id used by make_request. */
    void set_session_id(u64 id) { session_id_ = id; }
    u64 session_id() const { return session_id_; }

    /**
     * Normalizes, packs, and encrypts up to CompiledNetwork::batch samples
     * exactly as the program's kInput instruction expects (sample b in
     * slot lane b; level, scale, ciphertext count).
     */
    std::vector<ckks::Ciphertext> encrypt(
        const std::vector<std::vector<double>>& samples);

    /**
     * Decrypts, unpacks, and de-normalizes program outputs exactly as the
     * kOutput instruction does: the first `batch_count` lanes, one output
     * per sample. Throws unless `outputs` holds exactly the program's
     * output ciphertext count.
     */
    std::vector<std::vector<double>> decrypt(
        const std::vector<ckks::Ciphertext>& outputs, int batch_count) const;

    /**
     * Encrypts and serializes one inference request (the record carries
     * the sample count; request ids are assigned sequentially).
     */
    ckks::serial::Bytes make_request(
        const std::vector<std::vector<double>>& samples);
    ckks::serial::Bytes make_request(const std::vector<double>& input)
    {
        return make_request(std::vector<std::vector<double>>{input});
    }

    /** Decrypts the first `batch_count` lanes of a serialized Response. */
    std::vector<std::vector<double>> decrypt_response(
        std::span<const u8> response, int batch_count) const;
    std::vector<double> decrypt_response(std::span<const u8> response) const
    {
        return decrypt_response(response, 1).front();
    }

    /** Decodes a Response without decrypting (stats inspection). */
    Response parse_response(std::span<const u8> response) const;

  private:
    const core::CompiledNetwork* cn_;
    const ckks::Context* ctx_;
    ckks::Encoder encoder_;
    ckks::KeyGenerator keygen_;
    ckks::PublicKey pk_;
    ckks::KswitchKey relin_;
    ckks::GaloisKeys galois_;
    ckks::Encryptor encryptor_;
    ckks::Decryptor decryptor_;
    u64 session_id_ = 0;
    u64 next_request_id_ = 1;
};

}  // namespace orion::serve

#endif  // ORION_SRC_SERVE_CLIENT_H_
