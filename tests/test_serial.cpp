#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>

#include "src/ckks/serial.h"
#include "tests/serve_env.h"

namespace orion::test {
namespace {

namespace serial = ckks::serial;
using serial::Bytes;

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

TEST(Serial, ParamsRoundTrip)
{
    const ckks::CkksParams p = ckks::CkksParams::network(u64(1) << 13, 11);
    const Bytes bytes = serial::serialize(p);
    const ckks::CkksParams back = serial::deserialize_params(bytes);
    EXPECT_EQ(back.poly_degree, p.poly_degree);
    EXPECT_EQ(back.log_scale, p.log_scale);
    EXPECT_EQ(back.first_prime_bits, p.first_prime_bits);
    EXPECT_EQ(back.num_scale_primes, p.num_scale_primes);
    EXPECT_EQ(back.special_prime_bits, p.special_prime_bits);
    EXPECT_EQ(back.digit_size, p.digit_size);
    EXPECT_EQ(back.seed, p.seed);
    EXPECT_TRUE(serial::params_compatible(back, p));

    // Bootstrap-relevant fields survive the wire too (v2).
    const ckks::CkksParams boot = ckks::CkksParams::bootstrap_toy();
    const ckks::CkksParams boot_back =
        serial::deserialize_params(serial::serialize(boot));
    EXPECT_EQ(boot_back.secret_weight, boot.secret_weight);
}

TEST(Serial, ParamsCompatibilityIgnoresSeedOnly)
{
    ckks::CkksParams a = ckks::CkksParams::toy();
    ckks::CkksParams b = a;
    b.seed = 999;
    EXPECT_TRUE(serial::params_compatible(a, b));
    b = a;
    b.num_scale_primes += 1;
    EXPECT_FALSE(serial::params_compatible(a, b));
    // The secret's Hamming weight changes the bootstrap circuit (range
    // bound K), so it is part of compatibility.
    b = a;
    b.secret_weight = 32;
    EXPECT_FALSE(serial::params_compatible(a, b));
}

TEST(Serial, PolyRoundTripAllForms)
{
    CkksEnv& env = CkksEnv::shared();
    for (const int level : {0, 2, env.ctx.max_level()}) {
        // NTT-form ciphertext component.
        const ckks::Ciphertext ct =
            encrypt_vector(env, random_vector(100, 1.0, 7), level);
        const Bytes bytes = serial::serialize(ct.c0);
        const ckks::RnsPoly back = serial::deserialize_poly(bytes, env.ctx);
        EXPECT_EQ(back.level(), level);
        EXPECT_TRUE(back.is_ntt());
        // Byte-identical re-serialization == limb-exact round trip.
        EXPECT_EQ(serial::serialize(back), bytes);

        // Coefficient form.
        ckks::RnsPoly coeff = ct.c1;
        coeff.to_coeff();
        const Bytes cbytes = serial::serialize(coeff);
        const ckks::RnsPoly cback =
            serial::deserialize_poly(cbytes, env.ctx);
        EXPECT_FALSE(cback.is_ntt());
        EXPECT_EQ(serial::serialize(cback), cbytes);
    }
}

TEST(Serial, CiphertextRoundTripAcrossParameterPoints)
{
    // Several (N, L) points: the shared toy context plus a larger ring
    // with a shorter chain.
    CkksEnv& env = CkksEnv::shared();
    struct Point {
        const ckks::Context* ctx;
        const ckks::Encoder* encoder;
        int level;
    };
    ckks::CkksParams big_params = ckks::CkksParams::toy();
    big_params.poly_degree = u64(1) << 12;
    big_params.num_scale_primes = 4;
    const ckks::Context big_ctx(big_params);
    const ckks::Encoder big_encoder(big_ctx);
    ckks::KeyGenerator big_keygen(big_ctx, 13);
    const ckks::PublicKey big_pk = big_keygen.make_public_key();
    ckks::Encryptor big_encryptor(big_ctx, big_pk);
    const ckks::Decryptor big_decryptor(big_ctx,
                                        big_keygen.secret_key());

    for (const int level : {1, 3}) {
        const std::vector<double> values = random_vector(64, 1.0, level);
        // Toy point.
        {
            const ckks::Ciphertext ct = encrypt_vector(env, values, level);
            const Bytes bytes = serial::serialize(ct);
            const ckks::Ciphertext back =
                serial::deserialize_ciphertext(bytes, env.ctx);
            EXPECT_EQ(back.level(), level);
            EXPECT_DOUBLE_EQ(back.scale, ct.scale);
            EXPECT_EQ(serial::serialize(back), bytes);
            const std::vector<double> got = decrypt_vector(env, back);
            EXPECT_LT(max_abs_diff(
                          std::vector<double>(got.begin(), got.begin() + 64),
                          values),
                      1e-4);
        }
        // Larger-ring point.
        {
            const ckks::Plaintext pt =
                big_encoder.encode(values, level, big_ctx.scale());
            const ckks::Ciphertext ct = big_encryptor.encrypt(pt);
            const Bytes bytes = serial::serialize(ct);
            const ckks::Ciphertext back =
                serial::deserialize_ciphertext(bytes, big_ctx);
            EXPECT_EQ(serial::serialize(back), bytes);
            const std::vector<double> got =
                big_encoder.decode(big_decryptor.decrypt(back));
            EXPECT_LT(max_abs_diff(
                          std::vector<double>(got.begin(), got.begin() + 64),
                          values),
                      1e-4);
        }
    }
}

TEST(Serial, PlaintextRoundTrip)
{
    CkksEnv& env = CkksEnv::shared();
    const ckks::Plaintext pt = env.encoder.encode(
        random_vector(50, 1.0, 3), 2, env.ctx.scale());
    const Bytes bytes = serial::serialize(pt);
    const ckks::Plaintext back =
        serial::deserialize_plaintext(bytes, env.ctx);
    EXPECT_EQ(serial::serialize(back), bytes);
}

TEST(Serial, PublicKeyRoundTripEncrypts)
{
    CkksEnv& env = CkksEnv::shared();
    const Bytes bytes = serial::serialize(env.pk);
    const ckks::PublicKey back =
        serial::deserialize_public_key(bytes, env.ctx);
    EXPECT_EQ(serial::serialize(back), bytes);

    // A ciphertext made with the deserialized key must decrypt correctly.
    ckks::Encryptor enc(env.ctx, back, /*seed=*/123);
    const std::vector<double> values = random_vector(80, 1.0, 17);
    const ckks::Ciphertext ct = enc.encrypt(env.encoder.encode(
        values, env.ctx.max_level(), env.ctx.scale()));
    const std::vector<double> got = decrypt_vector(env, ct);
    EXPECT_LT(max_abs_diff(
                  std::vector<double>(got.begin(), got.begin() + 80),
                  values),
              1e-4);
}

TEST(Serial, RelinKeyRoundTripIsBitExactInUse)
{
    CkksEnv& env = CkksEnv::shared();
    const Bytes bytes = serial::serialize(env.relin);
    const ckks::KswitchKey back =
        serial::deserialize_kswitch_key(bytes, env.ctx);
    EXPECT_EQ(serial::serialize(back), bytes);

    // Squaring with the deserialized key must be bit-identical.
    const ckks::Ciphertext ct =
        encrypt_vector(env, random_vector(64, 0.5, 23), 3);
    ckks::Evaluator eval2(env.ctx, env.encoder);
    eval2.set_relin_key(&back);
    eval2.set_galois_keys(&env.galois);
    const ckks::Ciphertext want = env.eval.square(ct);
    const ckks::Ciphertext got = eval2.square(ct);
    EXPECT_EQ(serial::serialize(got), serial::serialize(want));
}

TEST(Serial, GaloisKeysRoundTripIsBitExactInUse)
{
    CkksEnv& env = CkksEnv::shared();
    const Bytes bytes = serial::serialize(env.galois);
    const ckks::GaloisKeys back =
        serial::deserialize_galois_keys(bytes, env.ctx);
    EXPECT_EQ(back.keys.size(), env.galois.keys.size());
    EXPECT_EQ(serial::serialize(back), bytes);

    const ckks::Ciphertext ct =
        encrypt_vector(env, random_vector(128, 1.0, 29), 4);
    ckks::Evaluator eval2(env.ctx, env.encoder);
    eval2.set_relin_key(&env.relin);
    eval2.set_galois_keys(&back);
    for (const int step : {1, 7, -3}) {
        const ckks::Ciphertext want = env.eval.rotate(ct, step);
        const ckks::Ciphertext got = eval2.rotate(ct, step);
        EXPECT_EQ(serial::serialize(got), serial::serialize(want));
    }
}

// ---------------------------------------------------------------------
// Pinned wire bytes
// ---------------------------------------------------------------------

/** FNV-1a (64-bit) over one serialized record. */
u64
fnv1a(const Bytes& bytes)
{
    u64 h = 1469598103934665603ull;
    for (const u8 b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(Serial, WireBytesArePinned)
{
    // Records built at fixed seeds hash to constants recorded once: a
    // decoder or encoder change that moves a single wire byte fails here,
    // the same way test_golden pins output ciphertexts across commits.
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    serve::ServeClient client(senv.cn, env.ctx, /*seed=*/7);
    client.set_session_id(42);
    const Bytes request = client.make_request(random_vector(64, 1.0, 1201));

    EXPECT_EQ(fnv1a(serial::serialize(env.relin)), 0x9db380d62244361full);
    EXPECT_EQ(fnv1a(serial::serialize(env.galois)), 0x4d7eec08faafaaaeull);
    EXPECT_EQ(fnv1a(client.key_bundle()), 0xbe207f3cf1c82727ull);
    EXPECT_EQ(fnv1a(request), 0x181abc32cfd4f781ull);
}

// ---------------------------------------------------------------------
// Seed-compressed keys
// ---------------------------------------------------------------------

/**
 * Size reference only: a key encoded with explicit interleaved (b, a)
 * digits, the layout the wire would need without seed compression. No
 * decoder accepts it.
 */
std::size_t
explicit_kswitch_bytes(const ckks::KswitchKey& k)
{
    serial::ByteWriter w;
    w.put_u64(static_cast<u64>(k.num_digits()));
    for (int d = 0; d < k.num_digits(); ++d) {
        serial::write_poly(w, k.b[static_cast<std::size_t>(d)]);
        serial::write_poly(w, k.a[static_cast<std::size_t>(d)]);
    }
    return w.size();
}

TEST(Serial, SeededKeysHalveTheWireSize)
{
    // Generator keys are seeded, so the record carries {seed, b digits}
    // only. The bound is <= 60% of the explicit-digit encoding (the true
    // ratio is just over half; the slack covers headers).
    CkksEnv& env = CkksEnv::shared();
    ASSERT_TRUE(env.relin.seeded);
    const Bytes seeded = serial::serialize(env.relin);
    const std::size_t explicit_size =
        serial::kRecordHeaderBytes + explicit_kswitch_bytes(env.relin);
    EXPECT_LE(seeded.size() * 10, explicit_size * 6)
        << "seeded " << seeded.size() << " bytes vs explicit "
        << explicit_size;

    std::size_t galois_explicit = serial::kRecordHeaderBytes + 8;
    for (const auto& [elt, key] : env.galois.keys) {
        galois_explicit += 8 + explicit_kswitch_bytes(key);
    }
    const Bytes galois_seeded = serial::serialize(env.galois);
    EXPECT_LE(galois_seeded.size() * 10, galois_explicit * 6);
}

TEST(Serial, SeededKeyRoundTripPreservesSeedAndExpansion)
{
    CkksEnv& env = CkksEnv::shared();
    const Bytes bytes = serial::serialize(env.relin);
    const ckks::KswitchKey back =
        serial::deserialize_kswitch_key(bytes, env.ctx);
    EXPECT_TRUE(back.seeded);
    EXPECT_EQ(back.a_seed, env.relin.a_seed);
    // The decoder re-expanded a from the seed: the expansion must match
    // the generator's digit for digit, compared bit-exactly through the
    // serialized residues of each polynomial.
    ASSERT_EQ(back.a.size(), env.relin.a.size());
    for (std::size_t d = 0; d < back.a.size(); ++d) {
        EXPECT_EQ(serial::serialize(back.a[d]),
                  serial::serialize(env.relin.a[d]))
            << "digit " << d;
        EXPECT_EQ(serial::serialize(back.b[d]),
                  serial::serialize(env.relin.b[d]))
            << "digit " << d;
    }
}

TEST(Serial, SeedExpansionIsFullySpecified)
{
    // The seed-to-residue mapping is wire contract: a client may encode a
    // v3 record under one standard library and the server decode it under
    // another, so the expansion must depend only on constructs the C++
    // standard pins down. std::mt19937_64 is fully specified;
    // std::uniform_int_distribution is NOT (libstdc++ and libc++
    // disagree), so expand_kswitch_a rejection-samples raw engine output.
    // This re-implements that specified algorithm independently and
    // checks every residue, guarding against any stdlib-dependent
    // primitive sneaking back into the expansion path.
    CkksEnv& env = CkksEnv::shared();
    const u64 seed = 0x5eedc0ffeeULL;
    const int level = env.ctx.max_level();
    const std::vector<ckks::RnsPoly> digits =
        ckks::expand_kswitch_a(env.ctx, seed, level);
    ASSERT_FALSE(digits.empty());

    std::mt19937_64 ref(seed);
    const auto next = [&ref](u64 q) {
        const u64 rem = (std::numeric_limits<u64>::max() % q + 1) % q;
        const u64 accept_max = std::numeric_limits<u64>::max() - rem;
        u64 r = ref();
        while (r > accept_max) r = ref();
        return r % q;
    };
    for (const ckks::RnsPoly& a : digits) {
        for (int i = 0; i < a.num_limbs(); ++i) {
            const u64 q = a.limb_modulus(i).value();
            const u64* limb = a.limb(i);
            for (u64 j = 0; j < env.ctx.degree(); ++j) {
                ASSERT_EQ(limb[j], next(q))
                    << "digit residue diverges at limb " << i
                    << " coefficient " << j;
            }
        }
    }
}

TEST(Serial, RejectsUnseededKeyRecords)
{
    // Only the seed-compressed layout exists: a flag byte other than 1
    // (frame 14 + digit count 8) names no layout and fails.
    CkksEnv& env = CkksEnv::shared();
    const Bytes good = serial::serialize(env.relin);
    for (const u8 flag : {u8(0), u8(2), u8(0xFF)}) {
        Bytes bytes = good;
        bytes[serial::kRecordHeaderBytes + 8] = flag;
        expect_throw_contains<Error>(
            [&] { (void)serial::deserialize_kswitch_key(bytes, env.ctx); },
            "seed flag");
    }

    // Nor does the writer emit one: a key whose a digits have no seed
    // cannot travel.
    ckks::KswitchKey unseeded = env.relin;
    unseeded.seeded = false;
    expect_throw_contains<Error>(
        [&] { (void)serial::serialize(unseeded); }, "without an a seed");
}

TEST(Serial, RejectsTruncatedSeededKeyRecord)
{
    CkksEnv& env = CkksEnv::shared();
    const Bytes bytes = serial::serialize(env.relin);
    // Cut inside the seed header (frame 14 + digits 8 + flag 1 leaves the
    // 8-byte seed and 4-byte level) and inside the b digits.
    for (const std::size_t keep :
         {std::size_t(14 + 8 + 1 + 4), bytes.size() / 2,
          bytes.size() - 1}) {
        const Bytes cut(bytes.begin(),
                        bytes.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_THROW((void)serial::deserialize_kswitch_key(cut, env.ctx),
                     Error)
            << "keep=" << keep;
    }
}

TEST(Serial, RejectsSeededKeyWithBadLevel)
{
    CkksEnv& env = CkksEnv::shared();
    Bytes bytes = serial::serialize(env.relin);
    // The seeded header is digits (8) + flag (1) + seed (8) + level (4)
    // after the 14-byte frame; patch the level above the chain.
    bytes[14 + 8 + 1 + 8] = 99;
    expect_throw_contains<Error>(
        [&] { (void)serial::deserialize_kswitch_key(bytes, env.ctx); },
        "level");
}

// ---------------------------------------------------------------------
// Adversarial decodes: malformed bytes produce clean errors, never UB
// ---------------------------------------------------------------------

Bytes
sample_ciphertext_bytes()
{
    CkksEnv& env = CkksEnv::shared();
    const ckks::Ciphertext ct =
        encrypt_vector(env, random_vector(32, 1.0, 31), 2);
    return serial::serialize(ct);
}

TEST(Serial, RejectsBadMagic)
{
    Bytes bytes = sample_ciphertext_bytes();
    bytes[0] = 'X';
    EXPECT_THROW(
        serial::deserialize_ciphertext(bytes, CkksEnv::shared().ctx),
        Error);
}

TEST(Serial, RejectsBadVersion)
{
    Bytes bytes = sample_ciphertext_bytes();
    bytes[4] = 0x7F;  // version byte
    EXPECT_THROW(
        serial::deserialize_ciphertext(bytes, CkksEnv::shared().ctx),
        Error);
}

TEST(Serial, RejectsWrongKind)
{
    const Bytes bytes = sample_ciphertext_bytes();
    // Valid ciphertext record handed to the poly decoder.
    EXPECT_THROW(serial::deserialize_poly(bytes, CkksEnv::shared().ctx),
                 Error);
}

TEST(Serial, RejectsTruncatedPayload)
{
    const Bytes bytes = sample_ciphertext_bytes();
    // Cut at several depths: inside the header, inside the first poly,
    // and one byte short of complete.
    for (const std::size_t keep :
         {std::size_t(3), std::size_t(13), std::size_t(40),
          bytes.size() / 2, bytes.size() - 1}) {
        const Bytes cut(bytes.begin(),
                        bytes.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_THROW(
            serial::deserialize_ciphertext(cut, CkksEnv::shared().ctx),
            Error)
            << "keep=" << keep;
    }
}

TEST(Serial, RejectsOversizedLengthPrefix)
{
    Bytes bytes = sample_ciphertext_bytes();
    // The payload length lives at offset 6..13; claim more than present.
    bytes[6] = 0xFF;
    bytes[7] = 0xFF;
    EXPECT_THROW(
        serial::deserialize_ciphertext(bytes, CkksEnv::shared().ctx),
        Error);
}

TEST(Serial, RejectsUndersizedLengthPrefix)
{
    Bytes bytes = sample_ciphertext_bytes();
    bytes[6] = 0x01;  // claim a tiny payload; actual bytes remain
    for (int i = 7; i < 14; ++i) bytes[static_cast<std::size_t>(i)] = 0;
    EXPECT_THROW(
        serial::deserialize_ciphertext(bytes, CkksEnv::shared().ctx),
        Error);
}

TEST(Serial, RejectsOutOfRangeResidue)
{
    Bytes bytes = sample_ciphertext_bytes();
    // First residue of c0's limb 0: frame (14) + scale (8) + poly header
    // (1 + 1 + 4 + 8). Patch to 2^64 - 1, far above any 61-bit modulus.
    const std::size_t offset = 14 + 8 + 14;
    for (std::size_t i = 0; i < 8; ++i) bytes[offset + i] = 0xFF;
    EXPECT_THROW(
        serial::deserialize_ciphertext(bytes, CkksEnv::shared().ctx),
        Error);
}

TEST(Serial, RejectsLevelAboveContext)
{
    Bytes bytes = sample_ciphertext_bytes();
    // The c0 poly's level field: frame (14) + scale (8) + flags (2).
    bytes[14 + 8 + 2] = 99;
    EXPECT_THROW(
        serial::deserialize_ciphertext(bytes, CkksEnv::shared().ctx),
        Error);
}

TEST(Serial, LevelPrunedKswitchKeyRoundTripsAndIsLevelChecked)
{
    // Keys may be level-pruned (one digit covering level 0 here); the
    // decoder accepts internally-consistent keys and the key switcher
    // range-checks the level at use, so a hostile short key can never be
    // read out of bounds.
    CkksEnv& env = CkksEnv::shared();
    const ckks::KswitchKey pruned =
        env.keygen.make_galois_key(env.ctx.galois_elt(1), /*level=*/0);
    const Bytes bytes = serial::serialize(pruned);
    const ckks::KswitchKey back =
        serial::deserialize_kswitch_key(bytes, env.ctx);
    EXPECT_EQ(back.level(), 0);
    EXPECT_EQ(back.num_digits(), pruned.num_digits());

    ckks::GaloisKeys keys;
    keys.keys.emplace(env.ctx.galois_elt(1), back);
    ckks::Evaluator eval(env.ctx, env.encoder);
    eval.set_galois_keys(&keys);
    const ckks::Plaintext pt = env.encoder.encode(
        std::vector<double>{1.0, 2.0}, /*level=*/2, env.ctx.scale());
    const ckks::Ciphertext high = env.encryptor.encrypt(pt);
    expect_throw_contains<Error>([&] { (void)eval.rotate(high, 1); },
                                 "pruned to level");
}

TEST(Serial, RejectsKswitchKeyWithInconsistentDigits)
{
    // A key's digit count must cover exactly its level: the toy chain's
    // top level has 7 limbs, so alpha = 3 needs 3 digits. A record that
    // claims 2 (still within the context's maximum) must be rejected, as
    // must a digit at a level other than the key's.
    CkksEnv& env = CkksEnv::shared();
    ASSERT_EQ(env.relin.num_digits(), 3);
    const Bytes good = serial::serialize(env.relin);
    Bytes bytes = good;
    bytes[serial::kRecordHeaderBytes] = 2;  // low byte of the digit count
    expect_throw_contains<Error>(
        [&] { (void)serial::deserialize_kswitch_key(bytes, env.ctx); },
        "digits do not cover");

    // The first b digit's level field: digit count (8) + flag (1) + seed
    // (8) + key level (4) + the poly's form flags (2).
    bytes = good;
    bytes[serial::kRecordHeaderBytes + 8 + 1 + 8 + 4 + 2] = 5;
    expect_throw_contains<Error>(
        [&] { (void)serial::deserialize_kswitch_key(bytes, env.ctx); },
        "at the key's level");
}

TEST(Serial, RejectsForeignContext)
{
    const Bytes bytes = sample_ciphertext_bytes();
    ckks::CkksParams other = ckks::CkksParams::toy();
    other.poly_degree = u64(1) << 12;
    const ckks::Context other_ctx(other);
    EXPECT_THROW(serial::deserialize_ciphertext(bytes, other_ctx), Error);
}

TEST(Serial, RejectsEmptyAndTinyBuffers)
{
    const Bytes empty;
    EXPECT_THROW(
        serial::deserialize_ciphertext(empty, CkksEnv::shared().ctx),
        Error);
    const Bytes tiny = {'O', 'R', 'N', '1'};
    EXPECT_THROW(serial::deserialize_ciphertext(tiny, CkksEnv::shared().ctx),
                 Error);
}

// ---------------------------------------------------------------------
// The streaming header path: KeyStore reloads spilled keys through
// open_record(ByteSource&), so hostile frames must fail there exactly as
// they do on the in-memory path.
// ---------------------------------------------------------------------

/** A ByteSource over an in-memory record that refuses any read past it. */
class VectorSource final : public serial::ByteSource {
  public:
    explicit VectorSource(Bytes bytes) : bytes_(std::move(bytes)) {}

    void
    read_at(u64 offset, void* dst, std::size_t bytes) override
    {
        ORION_CHECK(offset <= bytes_.size() &&
                        bytes <= bytes_.size() - offset,
                    "VectorSource read past the record");
        std::memcpy(dst, bytes_.data() + offset, bytes);
    }

    u64 size() const override { return bytes_.size(); }

  private:
    Bytes bytes_;
};

/** Opens `bytes` as `kind` through both open_record overloads and expects
 *  each to fail with a message containing `needle`. */
void
expect_both_paths_reject(const Bytes& bytes, serial::RecordKind kind,
                         const std::string& needle)
{
    expect_throw_contains<Error>(
        [&] { (void)serial::open_record(bytes, kind); }, needle);
    VectorSource src(bytes);
    expect_throw_contains<Error>(
        [&] { (void)serial::open_record(src, kind); }, needle);
}

TEST(Serial, BothHeaderPathsRejectHostileFrames)
{
    CkksEnv& env = CkksEnv::shared();
    const serial::RecordKind kind = serial::RecordKind::kKswitchKey;
    const Bytes good = serial::serialize(env.relin);
    const auto with = [&](std::size_t at, u8 value) {
        Bytes bytes = good;
        bytes[at] = value;
        return bytes;
    };
    const auto with_length = [&](u64 length) {
        Bytes bytes = good;
        for (std::size_t i = 0; i < 8; ++i) {
            bytes[6 + i] = static_cast<u8>(length >> (8 * i));
        }
        return bytes;
    };
    const u64 payload = good.size() - serial::kRecordHeaderBytes;

    expect_both_paths_reject(with(0, 'X'), kind, "bad wire magic");
    // One wire layout: every version byte but kWireVersion fails,
    // including the retired 2 and 3.
    for (int v = 0; v < 256; ++v) {
        if (v == serial::kWireVersion) continue;
        expect_both_paths_reject(with(4, static_cast<u8>(v)), kind,
                                 "unsupported wire version");
    }
    expect_both_paths_reject(good, serial::RecordKind::kGaloisKeys,
                             "wire record kind");
    for (const std::size_t keep :
         {std::size_t(0), std::size_t(4), serial::kRecordHeaderBytes - 1}) {
        const Bytes cut(good.begin(),
                        good.begin() + static_cast<std::ptrdiff_t>(keep));
        expect_both_paths_reject(cut, kind, "too short for its header");
    }
    for (const u64 length :
         {payload + 1, payload - 1, u64(0), ~u64(0)}) {
        expect_both_paths_reject(with_length(length), kind,
                                 "does not match payload size");
    }
    // A header alone (zero-length payload, prefix 0) is a valid frame.
    const Bytes header_only = with_length(0);
    const Bytes bare(header_only.begin(),
                     header_only.begin() + serial::kRecordHeaderBytes);
    EXPECT_TRUE(serial::open_record(bare, kind).done());
    VectorSource bare_src(bare);
    EXPECT_TRUE(serial::open_record(bare_src, kind).done());
}

}  // namespace
}  // namespace orion::test
