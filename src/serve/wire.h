#ifndef ORION_SRC_SERVE_WIRE_H_
#define ORION_SRC_SERVE_WIRE_H_

/**
 * @file
 * The three messages of the serving protocol, built on the ckks::serial
 * record framing. A transport (today: in-process byte buffers; a future
 * socket/RPC layer per ROADMAP) moves these opaque byte strings around:
 *
 *   KeyBundle  client -> server, once per session: the client's CKKS
 *              parameters (validated against the server context) plus its
 *              evaluation keys (relinearization + Galois). No secret key
 *              ever appears on the wire.
 *   Request    client -> server: session + request ids and the encrypted
 *              input ciphertexts.
 *   Response   server -> client: the still-encrypted output ciphertexts
 *              plus per-request execution statistics.
 */

#include "src/ckks/serial.h"

namespace orion::serve {

/** Per-session evaluation key material (client -> server, once). */
struct KeyBundle {
    ckks::CkksParams params;    ///< must be compatible with the server's
    ckks::KswitchKey relin;
    ckks::GaloisKeys galois;
};

/** One encrypted inference request (client -> server). */
struct Request {
    u64 session_id = 0;
    u64 request_id = 0;
    /**
     * Samples packed into the input's batch lanes. Must not exceed the
     * served program's compiled batch.
     */
    u64 batch_count = 1;
    std::vector<ckks::Ciphertext> inputs;
};

/** One encrypted inference response (server -> client). */
struct Response {
    u64 request_id = 0;
    std::vector<ckks::Ciphertext> outputs;
    // Execution statistics echoed to the client.
    u64 rotations = 0;
    u64 bootstraps = 0;
    double queue_wait_s = 0.0;
    double execute_s = 0.0;
};

/**
 * The one KeyBundle writer. Takes the parts by reference so a client can
 * serialize its own keys without deep-copying them into a KeyBundle.
 */
ckks::serial::Bytes encode_key_bundle(const ckks::CkksParams& params,
                                      const ckks::KswitchKey& relin,
                                      const ckks::GaloisKeys& galois);
ckks::serial::Bytes encode_key_bundle(const KeyBundle& b);
/** Validates the bundle's parameters against `ctx` (ring compatibility). */
KeyBundle decode_key_bundle(std::span<const u8> bytes,
                            const ckks::Context& ctx);

ckks::serial::Bytes encode_request(const Request& r);
Request decode_request(std::span<const u8> bytes, const ckks::Context& ctx);
/**
 * The session id of a framed Request without decoding its ciphertexts —
 * cheap enough to call at submit time (the server uses it to prefetch the
 * session's keys while the request waits in the queue). Validates the
 * frame only; the payload beyond the id may still be malformed.
 */
u64 peek_request_session(std::span<const u8> bytes);
/**
 * Overwrites the session id of a framed Request in place (the id sits at
 * a fixed offset right after the record frame). The transport layer uses
 * this to translate a client's globally unique session *token* into the
 * receiving server's local session id without re-encoding the (large)
 * ciphertext payload. Validates the frame first; throws on non-Request
 * bytes.
 */
void rewrite_request_session(std::span<u8> bytes, u64 session_id);

ckks::serial::Bytes encode_response(const Response& r);
Response decode_response(std::span<const u8> bytes, const ckks::Context& ctx);

}  // namespace orion::serve

#endif  // ORION_SRC_SERVE_WIRE_H_
