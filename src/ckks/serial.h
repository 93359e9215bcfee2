#ifndef ORION_SRC_CKKS_SERIAL_H_
#define ORION_SRC_CKKS_SERIAL_H_

/**
 * @file
 * Wire (de)serialization for CKKS artifacts: the byte format a client and
 * an untrusted inference server exchange (Section 6's deployment model:
 * encrypt locally, ship ciphertexts and evaluation keys, get encrypted
 * logits back).
 *
 * Every top-level record is framed the same way as the DiskStore container
 * (magic + explicit lengths, little-endian payloads):
 *
 *   [4]  magic   "ORN1"
 *   [1]  version (kWireVersion; no other version decodes)
 *   [1]  kind    (RecordKind)
 *   [8]  payload byte count (must equal the remaining bytes exactly)
 *   [..] payload
 *
 * Deserialization is strict: every read is bounds-checked, lengths are
 * validated against the target Context (degree, level range, digit count)
 * BEFORE any allocation sized from untrusted input, and RNS residues are
 * range-checked against their moduli. Malformed bytes always produce an
 * orion::Error with a descriptive message, never UB or a partial object.
 */

#include <span>
#include <vector>

#include "src/ckks/ciphertext.h"
#include "src/ckks/context.h"
#include "src/ckks/keys.h"
#include "src/ckks/poly.h"

namespace orion::ckks::serial {

using Bytes = std::vector<u8>;

// The one wire layout every writer emits and every decoder accepts: params
// carry secret_weight, key-switching keys travel seed-compressed (possibly
// level-pruned), and serve Requests carry a batch_count.
inline constexpr u8 kWireVersion = 4;
inline constexpr u8 kMagic[4] = {'O', 'R', 'N', '1'};
/** Bytes of the record header: magic, version, kind, payload length. */
inline constexpr std::size_t kRecordHeaderBytes = 4 + 1 + 1 + 8;

/** Top-level record discriminator (also used by the serve wire layer). */
enum class RecordKind : u8 {
    kParams = 1,
    kPoly = 2,
    kPlaintext = 3,
    kCiphertext = 4,
    kPublicKey = 5,
    kKswitchKey = 6,
    kGaloisKeys = 7,
    // Serve-layer messages (src/serve) share the framing.
    kKeyBundle = 16,
    kRequest = 17,
    kResponse = 18,
};

/** Appends little-endian primitives to a growing byte buffer. */
class ByteWriter {
  public:
    void put_u8(u8 v) { buf_.push_back(v); }
    void put_u32(u32 v);
    void put_u64(u64 v);
    void put_f64(double v);
    void put_raw(const void* data, std::size_t bytes);

    std::size_t size() const { return buf_.size(); }
    const Bytes& buffer() const { return buf_; }
    Bytes take() { return std::move(buf_); }

  private:
    Bytes buf_;
};

/**
 * Pull interface over record bytes that are NOT resident in memory (e.g. a
 * DiskStore record). A ByteReader over a ByteSource streams payload chunks
 * straight into their destination buffers (RnsPoly limbs), so decoding a
 * multi-gigabyte key set never holds the raw record alongside the decoded
 * keys — the cold-load path stays at ~1x the key bytes instead of 2x.
 */
class ByteSource {
  public:
    virtual ~ByteSource() = default;
    /** Copies `bytes` starting at `offset` into dst (bounds pre-checked). */
    virtual void read_at(u64 offset, void* dst, std::size_t bytes) = 0;
    /** Total byte count of the record. */
    virtual u64 size() const = 0;
};

/** Bounds-checked reads over a byte span (or a streaming ByteSource);
 *  throws orion::Error on overrun. */
class ByteReader {
  public:
    explicit ByteReader(std::span<const u8> data)
        : data_(data), size_(data.size())
    {
    }

    /** Streaming reader over src, starting at its first byte. */
    explicit ByteReader(ByteSource& src)
        : src_(&src), size_(static_cast<std::size_t>(src.size()))
    {
    }

    u8 read_u8();
    u32 read_u32();
    u64 read_u64();
    double read_f64();
    void read_raw(void* dst, std::size_t bytes);

    /**
     * Reads a u64 element count and validates that `count * elem_bytes`
     * does not exceed the remaining payload, so a hostile length prefix
     * cannot trigger an oversized allocation.
     */
    u64 read_count(std::size_t elem_bytes, const char* what);

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }
    /** Fails unless every payload byte was consumed. */
    void expect_done(const char* what) const;

  private:
    std::span<const u8> data_;
    ByteSource* src_ = nullptr;
    std::size_t pos_ = 0;
    std::size_t size_ = 0;
};

// ---- record framing (shared with the serve layer) ----

/** Wraps a finished payload in the magic/version/kind/length frame. */
Bytes finish_record(RecordKind kind, ByteWriter payload);
/**
 * Validates the frame (magic, kWireVersion, kind, exact payload length)
 * and returns a reader positioned at the payload.
 */
ByteReader open_record(std::span<const u8> bytes, RecordKind expected);
/** Streaming open_record: validates the frame from the source's head and
 *  returns a reader positioned at the payload that pulls on demand. */
ByteReader open_record(ByteSource& src, RecordKind expected);
/** The kind of a framed record (validates magic/version/length only). */
RecordKind peek_kind(std::span<const u8> bytes);

// ---- nested payload building blocks ----

void write_params(ByteWriter& w, const CkksParams& p);
CkksParams read_params(ByteReader& r);

void write_poly(ByteWriter& w, const RnsPoly& p);
RnsPoly read_poly(ByteReader& r, const Context& ctx);

void write_plaintext(ByteWriter& w, const Plaintext& pt);
Plaintext read_plaintext(ByteReader& r, const Context& ctx);

void write_ciphertext(ByteWriter& w, const Ciphertext& ct);
Ciphertext read_ciphertext(ByteReader& r, const Context& ctx);

void write_public_key(ByteWriter& w, const PublicKey& pk);
PublicKey read_public_key(ByteReader& r, const Context& ctx);

/**
 * Layout: digit count, a seed flag byte (always 1), the a seed, the key
 * level, and only the b digits. The key must be seeded (every
 * KeyGenerator key is); the uniform a digits never travel.
 */
void write_kswitch_key(ByteWriter& w, const KswitchKey& k);
/** Rejects any flag byte but 1 and re-expands the a digits from the seed
 *  via expand_kswitch_a. */
KswitchKey read_kswitch_key(ByteReader& r, const Context& ctx);

void write_galois_keys(ByteWriter& w, const GaloisKeys& g);
GaloisKeys read_galois_keys(ByteReader& r, const Context& ctx);

// ---- top-level records ----

Bytes serialize(const CkksParams& p);
CkksParams deserialize_params(std::span<const u8> bytes);

Bytes serialize(const RnsPoly& p);
RnsPoly deserialize_poly(std::span<const u8> bytes, const Context& ctx);

Bytes serialize(const Plaintext& pt);
Plaintext deserialize_plaintext(std::span<const u8> bytes, const Context& ctx);

Bytes serialize(const Ciphertext& ct);
Ciphertext deserialize_ciphertext(std::span<const u8> bytes,
                                  const Context& ctx);

Bytes serialize(const PublicKey& pk);
PublicKey deserialize_public_key(std::span<const u8> bytes,
                                 const Context& ctx);

Bytes serialize(const KswitchKey& k);
KswitchKey deserialize_kswitch_key(std::span<const u8> bytes,
                                   const Context& ctx);
/** Streaming variant: limbs are pulled straight into the key's polys. */
KswitchKey deserialize_kswitch_key(ByteSource& src, const Context& ctx);

Bytes serialize(const GaloisKeys& g);
GaloisKeys deserialize_galois_keys(std::span<const u8> bytes,
                                   const Context& ctx);
/** Streaming variant: limbs are pulled straight into the keys' polys. */
GaloisKeys deserialize_galois_keys(ByteSource& src, const Context& ctx);

/**
 * True when two parameter sets derive the same moduli chain (and hence
 * compatible Contexts). The RNG seed is excluded: it only affects key and
 * encryption randomness, not the ring.
 */
bool params_compatible(const CkksParams& a, const CkksParams& b);

}  // namespace orion::ckks::serial

#endif  // ORION_SRC_CKKS_SERIAL_H_
