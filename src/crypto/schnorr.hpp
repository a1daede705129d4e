// Schnorr signatures over BN-254 G1.
//
// Transaction authentication for the chain substrate (the substitution
// for Ethereum's secp256k1 ECDSA documented in DESIGN.md): sk in Fr,
// pk = sk*G; sign: R = k*G, e = H(R || pk || msg), s = k + e*sk;
// verify: s*G - e*pk == R.
//
// R and pk are stored affine: each is made once and then only read,
// and the challenge hashes their affine encoding. sk*G and k*G take the
// constant-time fixed-base path (ec::g1_mul_generator_ct); verification
// sees only public values and uses the variable-time fixed-base table
// for s*G and the small-term MSM for e*pk, then compares with R without
// an inversion.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/rng.hpp"
#include "ec/curve.hpp"

namespace zkdet::crypto {

using ec::G1;
using ec::G1Affine;
using ff::Fr;

struct Signature {
  G1Affine r;
  Fr s;
};

struct KeyPair {
  Fr sk;
  G1Affine pk;

  static KeyPair generate(Drbg& rng);
};

Signature schnorr_sign(const KeyPair& keys, std::span<const std::uint8_t> msg,
                       Drbg& rng);
bool schnorr_verify(const G1Affine& pk, std::span<const std::uint8_t> msg,
                    const Signature& sig);

// Short printable account address derived from a public key (first 20
// bytes of SHA-256(pk), Ethereum-style).
std::string address_of(const G1Affine& pk);

}  // namespace zkdet::crypto
