#include "crypto/schnorr.hpp"

#include "crypto/sha256.hpp"
#include "ec/msm.hpp"

namespace zkdet::crypto {

namespace {

Fr challenge(const G1Affine& r, const G1Affine& pk,
             std::span<const std::uint8_t> msg) {
  Sha256 h;
  h.update(std::string("zkdet-schnorr"));
  h.update(ec::g1_to_bytes(r));
  h.update(ec::g1_to_bytes(pk));
  h.update(msg);
  return Fr::reduce_from(ff::u256_from_bytes(h.finalize()));
}

}  // namespace

KeyPair KeyPair::generate(Drbg& rng) {
  KeyPair kp;
  kp.sk = rng.random_fr();
  kp.pk = ec::g1_mul_generator_ct(kp.sk);
  return kp;
}

Signature schnorr_sign(const KeyPair& keys, std::span<const std::uint8_t> msg,
                       Drbg& rng) {
  // The nonce is as secret as the key: a leaked nonce recovers sk from
  // s = k + e*sk.
  const Fr k = rng.random_fr();
  Signature sig;
  sig.r = ec::g1_mul_generator_ct(k);
  const Fr e = challenge(sig.r, keys.pk, msg);
  sig.s = k + e * keys.sk;
  return sig;
}

bool schnorr_verify(const G1Affine& pk, std::span<const std::uint8_t> msg,
                    const Signature& sig) {
  if (pk.is_identity()) return false;
  const Fr neg_e = -challenge(sig.r, pk, msg);
  // s, e and pk are public: the variable-time paths are safe here.
  const G1 lhs =
      ec::g1_mul_generator(sig.s) +  // zkdet-lint: allow(vartime-scalar-mul)
      ec::msm(std::span<const Fr>(&neg_e, 1),  // zkdet-lint: allow(vartime-scalar-mul)
              std::span<const G1Affine>(&pk, 1));
  return lhs == sig.r;
}

std::string address_of(const G1Affine& pk) {
  const auto digest = Sha256::digest(ec::g1_to_bytes(pk));
  return "0x" + hex_encode(std::span<const std::uint8_t>(digest.data(), 20));
}

}  // namespace zkdet::crypto
