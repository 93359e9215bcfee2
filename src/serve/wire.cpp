#include "src/serve/wire.h"

namespace orion::serve {

using ckks::serial::ByteReader;
using ckks::serial::Bytes;
using ckks::serial::ByteWriter;
using ckks::serial::RecordKind;

Bytes
encode_key_bundle(const ckks::CkksParams& params,
                  const ckks::KswitchKey& relin,
                  const ckks::GaloisKeys& galois)
{
    ByteWriter w;
    ckks::serial::write_params(w, params);
    ckks::serial::write_kswitch_key(w, relin);
    ckks::serial::write_galois_keys(w, galois);
    return finish_record(RecordKind::kKeyBundle, std::move(w));
}

Bytes
encode_key_bundle(const KeyBundle& b)
{
    return encode_key_bundle(b.params, b.relin, b.galois);
}

KeyBundle
decode_key_bundle(std::span<const u8> bytes, const ckks::Context& ctx)
{
    ByteReader r = open_record(bytes, RecordKind::kKeyBundle);
    KeyBundle b;
    b.params = ckks::serial::read_params(r);
    ORION_CHECK(ckks::serial::params_compatible(b.params, ctx.params()),
                "key bundle was generated for different CKKS parameters "
                "than this server's context (degree "
                    << b.params.poly_degree << " vs " << ctx.degree()
                    << ", levels " << b.params.num_scale_primes << " vs "
                    << ctx.params().num_scale_primes << ")");
    b.relin = ckks::serial::read_kswitch_key(r, ctx);
    b.galois = ckks::serial::read_galois_keys(r, ctx);
    r.expect_done("key bundle");
    return b;
}

Bytes
encode_request(const Request& r)
{
    ByteWriter w;
    // The session id must stay the first payload u64: peek/rewrite index
    // it at a fixed offset behind the frame.
    w.put_u64(r.session_id);
    w.put_u64(r.request_id);
    w.put_u64(r.batch_count);
    w.put_u64(r.inputs.size());
    for (const ckks::Ciphertext& ct : r.inputs) {
        ckks::serial::write_ciphertext(w, ct);
    }
    return finish_record(RecordKind::kRequest, std::move(w));
}

Request
decode_request(std::span<const u8> bytes, const ckks::Context& ctx)
{
    ByteReader r = open_record(bytes, RecordKind::kRequest);
    Request req;
    req.session_id = r.read_u64();
    req.request_id = r.read_u64();
    req.batch_count = r.read_u64();
    ORION_CHECK(req.batch_count >= 1, "request batch_count must be >= 1");
    // A ciphertext is at least two one-limb polynomials plus a scale.
    const u64 count = r.read_count(2 * ctx.degree() * sizeof(u64),
                                   "request ciphertexts");
    req.inputs.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        req.inputs.push_back(ckks::serial::read_ciphertext(r, ctx));
    }
    r.expect_done("request");
    return req;
}

u64
peek_request_session(std::span<const u8> bytes)
{
    ByteReader r = open_record(bytes, RecordKind::kRequest);
    return r.read_u64();
}

void
rewrite_request_session(std::span<u8> bytes, u64 session_id)
{
    // Validates magic/version/kind/length and that a session id exists.
    (void)peek_request_session(bytes);
    // The session id is the payload's first u64, right behind the header.
    for (std::size_t i = 0; i < sizeof(u64); ++i) {
        bytes[ckks::serial::kRecordHeaderBytes + i] =
            static_cast<u8>(session_id >> (8 * i));
    }
}

Bytes
encode_response(const Response& resp)
{
    ByteWriter w;
    w.put_u64(resp.request_id);
    w.put_u64(resp.rotations);
    w.put_u64(resp.bootstraps);
    w.put_f64(resp.queue_wait_s);
    w.put_f64(resp.execute_s);
    w.put_u64(resp.outputs.size());
    for (const ckks::Ciphertext& ct : resp.outputs) {
        ckks::serial::write_ciphertext(w, ct);
    }
    return finish_record(RecordKind::kResponse, std::move(w));
}

Response
decode_response(std::span<const u8> bytes, const ckks::Context& ctx)
{
    ByteReader r = open_record(bytes, RecordKind::kResponse);
    Response resp;
    resp.request_id = r.read_u64();
    resp.rotations = r.read_u64();
    resp.bootstraps = r.read_u64();
    resp.queue_wait_s = r.read_f64();
    resp.execute_s = r.read_f64();
    const u64 count = r.read_count(2 * ctx.degree() * sizeof(u64),
                                   "response ciphertexts");
    resp.outputs.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        resp.outputs.push_back(ckks::serial::read_ciphertext(r, ctx));
    }
    r.expect_done("response");
    return resp;
}

}  // namespace orion::serve
