#ifndef ORION_SRC_CKKS_KEYS_H_
#define ORION_SRC_CKKS_KEYS_H_

/**
 * @file
 * CKKS key material: secret, public, relinearization, and Galois keys,
 * plus the deterministic KeyGenerator.
 *
 * Key-switching keys follow the hybrid (digit-decomposition) construction:
 * for each digit i of the moduli chain, the key holds an encryption of
 * W_i * s_old under s_new over the extended modulus Q_L * P, where W_i is
 * the RNS gadget that equals P on the digit's own limbs and 0 elsewhere.
 */

#include <map>
#include <span>
#include <vector>

#include "src/ckks/poly.h"
#include "src/ckks/sampler.h"

namespace orion::ckks {

/** The RLWE secret s (ternary), stored NTT-form over the full basis Q*P. */
struct SecretKey {
    RnsPoly s;  ///< level L, extended, NTT form

    /** The secret restricted to coefficient limbs q_0..q_level. */
    RnsPoly at_level(int level) const;
};

/** Encryption key (b, a) with b + a*s = e over Q_L. */
struct PublicKey {
    RnsPoly b;
    RnsPoly a;
};

/**
 * One key-switching key (digit-decomposed). Keys may be *level-pruned*:
 * generated over q_0..q_level plus the special primes rather than the
 * full chain, when every use of the key happens at or below `level`.
 * Pruning is what keeps per-session Galois bundles small — most rotation
 * keys of a compiled program are only ever used at the program's (low)
 * execution levels, while bootstrap-circuit keys span almost the whole
 * chain.
 *
 * Seed compression: the a-components are uniform, so KeyGenerator derives
 * them from a per-key PRNG seed (expand_kswitch_a). A key travels as
 * {seed, b-digits} on the wire and on disk — roughly half the expanded
 * bytes — and is re-expanded into the full (b, a) pair on decode; serial
 * refuses to write a key that is not seeded. `a` is always materialized
 * in memory; `seeded`/`a_seed` only record that it CAN be regenerated.
 */
struct KswitchKey {
    std::vector<RnsPoly> b;  ///< per digit: -a_i*s_new + e_i + W_i*s_old
    std::vector<RnsPoly> a;  ///< per digit: uniform
    u64 a_seed = 0;          ///< PRNG seed the a digits expand from
    bool seeded = false;     ///< true when expand_kswitch_a(a_seed) == a

    int num_digits() const { return static_cast<int>(b.size()); }
    bool valid() const { return !b.empty(); }
    /** Highest coefficient level this key can switch at. */
    int level() const { return b.empty() ? -1 : b.front().level(); }
    /** Resident bytes of the expanded key (both components). */
    std::size_t byte_size() const;
};

/**
 * Deterministically expands the uniform a-component of a key-switching
 * key over coefficient limbs q_0..q_level plus the special primes: one
 * extended NTT-form polynomial per digit, drawn from a Sampler seeded
 * with `seed`. A pure function of (ctx basis, seed, level) — KeyGenerator
 * and the serial decoder both call it, which is what lets the wire
 * format carry the seed instead of half the key's residues.
 */
std::vector<RnsPoly> expand_kswitch_a(const Context& ctx, u64 seed,
                                      int level);

/** Rotation (and conjugation) keys indexed by Galois element. */
struct GaloisKeys {
    std::map<u64, KswitchKey> keys;

    bool
    has(u64 elt) const
    {
        return keys.count(elt) != 0;
    }
    const KswitchKey&
    at(u64 elt) const
    {
        auto it = keys.find(elt);
        ORION_CHECK(it != keys.end(), "missing Galois key for element " << elt);
        return it->second;
    }
    /** Approximate memory footprint in bytes (for Table-4-style reporting). */
    std::size_t byte_size() const;
};

/**
 * One rotation-key requirement: the step and the highest level at which
 * the compiled program (or bootstrap circuit) rotates by it. Keygen
 * prunes each key to that level; -1 means "full chain".
 */
struct GaloisKeyRequest {
    int step = 0;
    int level = -1;
};

/** Generates all key material from a seeded sampler. */
class KeyGenerator {
  public:
    explicit KeyGenerator(const Context& ctx, u64 seed = 7);

    const SecretKey& secret_key() const { return sk_; }

    PublicKey make_public_key();
    /** Relinearization key: switches s^2 -> s (always full chain). */
    KswitchKey make_relin_key();
    /** Galois key for X -> X^elt, pruned to `level` (-1 = full chain). */
    KswitchKey make_galois_key(u64 elt, int level = -1);
    /** Galois keys for a set of rotation steps (plus conjugation if asked). */
    GaloisKeys make_galois_keys(std::span<const int> steps,
                                bool include_conjugation = false);
    /**
     * Level-pruned bundle: one key per distinct Galois element, each at
     * the highest level requested for it. Conjugation (when asked) is
     * pruned to conjugation_level.
     */
    GaloisKeys make_galois_keys(std::span<const GaloisKeyRequest> requests,
                                bool include_conjugation = false,
                                int conjugation_level = -1);
    /** Adds any missing step keys to an existing bundle. */
    void add_galois_keys(GaloisKeys& bundle, std::span<const int> steps);

  private:
    /**
     * KSK encrypting W_i * s_old under the main secret, covering
     * coefficient limbs q_0..q_level (-1 = full chain). The a digits are
     * expanded from a per-key seed drawn here, so the returned key is
     * seed-compressible (KswitchKey::seeded).
     */
    KswitchKey make_kswitch_key(const RnsPoly& s_old, int level = -1);

    /** Small (Gaussian) polynomial over q_0..q_level + specials, NTT. */
    RnsPoly sample_error_extended(int level);

    const Context* ctx_;
    Sampler sampler_;
    SecretKey sk_;
    /**
     * Private counter behind the published a_seeds: each key-switch key
     * gets splitmix64(state++), a chain domain-separated from (and never
     * exposing outputs of) the mt19937_64 stream that samples the secret
     * and the RLWE errors.
     */
    u64 kswitch_seed_state_ = 0;
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_KEYS_H_
