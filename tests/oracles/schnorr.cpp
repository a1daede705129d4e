#include "oracles/schnorr.hpp"

#include <string>

#include "crypto/sha256.hpp"

namespace zkdet::oracle {

bool schnorr_verify_naive(const ec::G1& pk, std::span<const std::uint8_t> msg,
                          const ec::G1& r, const ff::Fr& s) {
  if (pk.is_identity()) return false;
  crypto::Sha256 h;
  h.update(std::string("zkdet-schnorr"));
  h.update(ec::g1_to_bytes(ec::G1Affine::from_jacobian(r)));
  h.update(ec::g1_to_bytes(ec::G1Affine::from_jacobian(pk)));
  h.update(msg);
  const ff::Fr e = ff::Fr::reduce_from(ff::u256_from_bytes(h.finalize()));
  return ec::G1::generator().mul(s) == r + pk.mul(e);
}

}  // namespace zkdet::oracle
