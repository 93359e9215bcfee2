#include "src/ckks/serial.h"

#include <cmath>
#include <cstring>

namespace orion::ckks::serial {

// ---------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------

void
ByteWriter::put_u32(u32 v)
{
    u8 b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<u8>(v >> (8 * i));
    put_raw(b, sizeof(b));
}

void
ByteWriter::put_u64(u64 v)
{
    u8 b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<u8>(v >> (8 * i));
    put_raw(b, sizeof(b));
}

void
ByteWriter::put_f64(double v)
{
    static_assert(sizeof(double) == sizeof(u64));
    u64 bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
}

void
ByteWriter::put_raw(const void* data, std::size_t bytes)
{
    const u8* p = static_cast<const u8*>(data);
    buf_.insert(buf_.end(), p, p + bytes);
}

u8
ByteReader::read_u8()
{
    u8 v;
    read_raw(&v, sizeof(v));
    return v;
}

u32
ByteReader::read_u32()
{
    u8 b[4];
    read_raw(b, sizeof(b));
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<u32>(b[i]) << (8 * i);
    return v;
}

u64
ByteReader::read_u64()
{
    u8 b[8];
    read_raw(b, sizeof(b));
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(b[i]) << (8 * i);
    return v;
}

double
ByteReader::read_f64()
{
    const u64 bits = read_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
ByteReader::read_raw(void* dst, std::size_t bytes)
{
    ORION_CHECK(bytes <= remaining(),
                "truncated wire payload: need " << bytes << " bytes, have "
                                                << remaining());
    if (src_ != nullptr) {
        src_->read_at(pos_, dst, bytes);
    } else {
        std::memcpy(dst, data_.data() + pos_, bytes);
    }
    pos_ += bytes;
}

u64
ByteReader::read_count(std::size_t elem_bytes, const char* what)
{
    const u64 count = read_u64();
    ORION_CHECK(elem_bytes == 0 ||
                    count <= remaining() / std::max<std::size_t>(elem_bytes, 1),
                "wire count for " << what << " (" << count
                                  << ") exceeds the remaining payload");
    return count;
}

void
ByteReader::expect_done(const char* what) const
{
    ORION_CHECK(done(), remaining()
                            << " trailing bytes after " << what
                            << " payload (corrupt or mismatched length)");
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

Bytes
finish_record(RecordKind kind, ByteWriter payload)
{
    const Bytes body = payload.take();
    ByteWriter w;
    w.put_raw(kMagic, sizeof(kMagic));
    w.put_u8(kWireVersion);
    w.put_u8(static_cast<u8>(kind));
    w.put_u64(body.size());
    w.put_raw(body.data(), body.size());
    return w.take();
}

namespace {

/**
 * Reads and validates the record header from a reader at the record's
 * first byte: magic, kWireVersion, kind and a length prefix equal to the
 * bytes behind the header. Leaves `r` at the payload. Every record
 * decode, in memory or streamed, passes here.
 */
void
read_header(ByteReader& r, RecordKind expected)
{
    ORION_CHECK(r.remaining() >= kRecordHeaderBytes,
                "wire record too short for its header ("
                    << r.remaining() << " bytes)");
    u8 magic[sizeof(kMagic)];
    r.read_raw(magic, sizeof(magic));
    ORION_CHECK(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                "bad wire magic (not an Orion record)");
    const u8 version = r.read_u8();
    ORION_CHECK(version == kWireVersion,
                "unsupported wire version " << int(version)
                                            << " (this build reads only "
                                            << int(kWireVersion) << ")");
    const RecordKind kind = static_cast<RecordKind>(r.read_u8());
    ORION_CHECK(kind == expected,
                "wire record kind " << int(static_cast<u8>(kind))
                                    << " where kind "
                                    << int(static_cast<u8>(expected))
                                    << " was expected");
    const u64 payload_len = r.read_u64();
    ORION_CHECK(payload_len == r.remaining(),
                "wire length prefix (" << payload_len
                                       << ") does not match payload size ("
                                       << r.remaining() << ")");
}

}  // namespace

ByteReader
open_record(std::span<const u8> bytes, RecordKind expected)
{
    ByteReader r(bytes);
    read_header(r, expected);
    return r;
}

ByteReader
open_record(ByteSource& src, RecordKind expected)
{
    // Only the header is pulled here; the payload stays on the source and
    // is streamed by the returned reader.
    ByteReader r(src);
    read_header(r, expected);
    return r;
}

// ---------------------------------------------------------------------
// CkksParams
// ---------------------------------------------------------------------

void
write_params(ByteWriter& w, const CkksParams& p)
{
    w.put_u64(p.poly_degree);
    w.put_u32(static_cast<u32>(p.log_scale));
    w.put_u32(static_cast<u32>(p.first_prime_bits));
    w.put_u32(static_cast<u32>(p.num_scale_primes));
    w.put_u32(static_cast<u32>(p.special_prime_bits));
    w.put_u32(static_cast<u32>(p.digit_size));
    w.put_u64(p.seed);
    w.put_u32(static_cast<u32>(p.secret_weight));
}

CkksParams
read_params(ByteReader& r)
{
    CkksParams p;
    p.poly_degree = r.read_u64();
    p.log_scale = static_cast<int>(r.read_u32());
    p.first_prime_bits = static_cast<int>(r.read_u32());
    p.num_scale_primes = static_cast<int>(r.read_u32());
    p.special_prime_bits = static_cast<int>(r.read_u32());
    p.digit_size = static_cast<int>(r.read_u32());
    p.seed = r.read_u64();
    p.secret_weight = static_cast<int>(r.read_u32());
    ORION_CHECK(p.secret_weight >= 0 &&
                    static_cast<u64>(p.secret_weight) <= p.poly_degree,
                "wire params: secret_weight out of range");
    ORION_CHECK(is_power_of_two(p.poly_degree),
                "wire params: poly_degree " << p.poly_degree
                                            << " is not a power of two");
    ORION_CHECK(p.log_scale > 0 && p.log_scale < 64 &&
                    p.first_prime_bits > 0 && p.first_prime_bits < 64 &&
                    p.special_prime_bits > 0 && p.special_prime_bits < 64,
                "wire params: bit sizes out of range");
    ORION_CHECK(p.num_scale_primes >= 1 && p.digit_size >= 1,
                "wire params: chain shape out of range");
    return p;
}

bool
params_compatible(const CkksParams& a, const CkksParams& b)
{
    // secret_weight does not change the ring, but it does change the
    // bootstrap circuit's EvalMod range bound (and hence the rotation-key
    // set a serving client must provide), so it is part of compatibility.
    return a.poly_degree == b.poly_degree && a.log_scale == b.log_scale &&
           a.first_prime_bits == b.first_prime_bits &&
           a.num_scale_primes == b.num_scale_primes &&
           a.special_prime_bits == b.special_prime_bits &&
           a.digit_size == b.digit_size &&
           a.secret_weight == b.secret_weight;
}

// ---------------------------------------------------------------------
// RnsPoly
// ---------------------------------------------------------------------

void
write_poly(ByteWriter& w, const RnsPoly& p)
{
    ORION_CHECK(p.valid(), "cannot serialize an empty polynomial");
    // A partially mod-downed poly (special limbs already shrunk) is
    // transient key-switch state; the wire format only carries the full
    // extended basis or none of it.
    ORION_CHECK(!p.extended() ||
                    p.num_limbs() ==
                        p.num_coeff_limbs() + p.context().special_count(),
                "cannot serialize a partially mod-downed polynomial");
    w.put_u8(p.is_ntt() ? 1 : 0);
    w.put_u8(p.extended() ? 1 : 0);
    w.put_u32(static_cast<u32>(p.level()));
    w.put_u64(p.degree());
    const u64 n = p.degree();
    for (int i = 0; i < p.num_limbs(); ++i) {
        // Raw little-endian u64 residues.
        w.put_raw(p.limb(i), n * sizeof(u64));
    }
}

RnsPoly
read_poly(ByteReader& r, const Context& ctx)
{
    const u8 ntt_flag = r.read_u8();
    const u8 ext_flag = r.read_u8();
    ORION_CHECK(ntt_flag <= 1 && ext_flag <= 1,
                "wire poly: corrupt form flags");
    const u32 level = r.read_u32();
    ORION_CHECK(level <= static_cast<u32>(ctx.max_level()),
                "wire poly: level " << level << " above the context maximum "
                                    << ctx.max_level());
    const u64 degree = r.read_u64();
    ORION_CHECK(degree == ctx.degree(),
                "wire poly: degree " << degree << " does not match context "
                                     << ctx.degree());
    RnsPoly p(ctx, static_cast<int>(level), ext_flag != 0, ntt_flag != 0);
    const u64 n = ctx.degree();
    ORION_CHECK(static_cast<u64>(p.num_limbs()) * n * sizeof(u64) <=
                    r.remaining(),
                "wire poly: truncated residue data (need "
                    << p.num_limbs() << " limbs of " << n << " residues)");
    for (int i = 0; i < p.num_limbs(); ++i) {
        u64* limb = p.limb(i);
        r.read_raw(limb, n * sizeof(u64));
        const u64 q = p.limb_modulus(i).value();
        u64 max = 0;
        for (u64 j = 0; j < n; ++j) max = std::max(max, limb[j]);
        ORION_CHECK(max < q, "wire poly: residue " << max << " in limb " << i
                                                   << " is >= its modulus "
                                                   << q);
    }
    return p;
}

// ---------------------------------------------------------------------
// Ciphertext
// ---------------------------------------------------------------------

namespace {

double
read_scale(ByteReader& r, const char* what)
{
    const double scale = r.read_f64();
    ORION_CHECK(std::isfinite(scale) && scale > 0.0,
                "wire " << what << ": scale " << scale
                        << " is not a positive finite number");
    return scale;
}

}  // namespace

void
write_ciphertext(ByteWriter& w, const Ciphertext& ct)
{
    ORION_CHECK(ct.valid(), "cannot serialize an empty ciphertext");
    w.put_f64(ct.scale);
    write_poly(w, ct.c0);
    write_poly(w, ct.c1);
}

Ciphertext
read_ciphertext(ByteReader& r, const Context& ctx)
{
    Ciphertext ct;
    ct.scale = read_scale(r, "ciphertext");
    ct.c0 = read_poly(r, ctx);
    ct.c1 = read_poly(r, ctx);
    ORION_CHECK(ct.c0.level() == ct.c1.level() &&
                    ct.c0.is_ntt() == ct.c1.is_ntt() &&
                    ct.c0.extended() == ct.c1.extended(),
                "wire ciphertext: mismatched component polynomials");
    ORION_CHECK(!ct.c0.extended(),
                "wire ciphertext: extended-basis ciphertexts are internal "
                "key-switch state and cannot travel");
    return ct;
}

// ---------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------

void
write_kswitch_key(ByteWriter& w, const KswitchKey& k)
{
    ORION_CHECK(k.valid(), "cannot serialize an empty key-switching key");
    ORION_CHECK(k.seeded, "cannot serialize a key-switching key without "
                          "an a seed (only seed-compressed keys travel)");
    w.put_u64(static_cast<u64>(k.num_digits()));
    // The seed flag is always 1: the uniform a digits are a pure function
    // of (a_seed, level), so only b travels — half the key bytes.
    w.put_u8(1);
    w.put_u64(k.a_seed);
    w.put_u32(static_cast<u32>(k.level()));
    for (const RnsPoly& b : k.b) write_poly(w, b);
}

KswitchKey
read_kswitch_key(ByteReader& r, const Context& ctx)
{
    const u64 max_digits =
        static_cast<u64>(ctx.num_digits(ctx.max_level()));
    const u64 digits = r.read_u64();
    ORION_CHECK(digits >= 1 && digits <= max_digits,
                "wire key-switching key: digit count "
                    << digits << " outside [1, " << max_digits << "]");
    const u8 seed_flag = r.read_u8();
    ORION_CHECK(seed_flag == 1,
                "wire key-switching key: seed flag "
                    << int(seed_flag)
                    << " (only seed-compressed keys travel)");
    KswitchKey k;
    k.a_seed = r.read_u64();
    k.seeded = true;
    // Keys may be level-pruned, but the digit count must cover exactly
    // the key's level. The key switcher then range-checks that level
    // against each use, so a hostile short key is never read out of
    // bounds.
    const u32 level = r.read_u32();
    ORION_CHECK(level <= static_cast<u32>(ctx.max_level()),
                "wire key-switching key: level " << level
                    << " above the context maximum " << ctx.max_level());
    ORION_CHECK(static_cast<int>(digits) ==
                    ctx.num_digits(static_cast<int>(level)),
                "wire key-switching key: " << digits
                    << " digits do not cover level " << level
                    << " (expected "
                    << ctx.num_digits(static_cast<int>(level)) << ")");
    k.b.reserve(digits);
    for (u64 d = 0; d < digits; ++d) {
        RnsPoly b = read_poly(r, ctx);
        ORION_CHECK(b.extended() && b.is_ntt() &&
                        b.level() == static_cast<int>(level),
                    "wire key-switching key: digit " << d
                        << " must be extended NTT form at the key's "
                        << "level " << level);
        k.b.push_back(std::move(b));
    }
    // Cold-path expansion: regenerate the uniform digits limb by limb
    // from the 8-byte seed (the other half of the key's bytes).
    k.a = expand_kswitch_a(ctx, k.a_seed, static_cast<int>(level));
    return k;
}

void
write_galois_keys(ByteWriter& w, const GaloisKeys& g)
{
    w.put_u64(g.keys.size());
    for (const auto& [elt, key] : g.keys) {
        w.put_u64(elt);
        write_kswitch_key(w, key);
    }
}

GaloisKeys
read_galois_keys(ByteReader& r, const Context& ctx)
{
    // Each entry is at least an element id plus a key header.
    const u64 count = r.read_count(8, "Galois key set");
    GaloisKeys g;
    for (u64 i = 0; i < count; ++i) {
        const u64 elt = r.read_u64();
        ORION_CHECK(elt % 2 == 1 && elt < 2 * ctx.degree(),
                    "wire Galois keys: element " << elt
                        << " is not a valid automorphism of this ring");
        ORION_CHECK(g.keys.count(elt) == 0,
                    "wire Galois keys: duplicate element " << elt);
        g.keys.emplace(elt, read_kswitch_key(r, ctx));
    }
    return g;
}

// ---------------------------------------------------------------------
// Top-level records
// ---------------------------------------------------------------------

namespace {

template <typename WriteFn>
Bytes
make_record(RecordKind kind, WriteFn&& fn)
{
    ByteWriter w;
    fn(w);
    return finish_record(kind, std::move(w));
}

}  // namespace

Bytes
serialize(const Ciphertext& ct)
{
    return make_record(RecordKind::kCiphertext,
                       [&](ByteWriter& w) { write_ciphertext(w, ct); });
}

Ciphertext
deserialize_ciphertext(std::span<const u8> bytes, const Context& ctx)
{
    ByteReader r = open_record(bytes, RecordKind::kCiphertext);
    Ciphertext ct = read_ciphertext(r, ctx);
    r.expect_done("ciphertext");
    return ct;
}

Bytes
serialize(const KswitchKey& k)
{
    return make_record(RecordKind::kKswitchKey,
                       [&](ByteWriter& w) { write_kswitch_key(w, k); });
}

KswitchKey
deserialize_kswitch_key(std::span<const u8> bytes, const Context& ctx)
{
    ByteReader r = open_record(bytes, RecordKind::kKswitchKey);
    KswitchKey k = read_kswitch_key(r, ctx);
    r.expect_done("key-switching key");
    return k;
}

Bytes
serialize(const GaloisKeys& g)
{
    return make_record(RecordKind::kGaloisKeys,
                       [&](ByteWriter& w) { write_galois_keys(w, g); });
}

GaloisKeys
deserialize_galois_keys(std::span<const u8> bytes, const Context& ctx)
{
    ByteReader r = open_record(bytes, RecordKind::kGaloisKeys);
    GaloisKeys g = read_galois_keys(r, ctx);
    r.expect_done("Galois key set");
    return g;
}

}  // namespace orion::ckks::serial
