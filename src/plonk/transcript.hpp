// Fiat-Shamir transcript (SHA-256 chaining).
//
// Both prover and verifier drive an identical Transcript; every absorbed
// message updates the chained state, and challenges are squeezed from it
// so they bind to the whole interaction prefix.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/sha256.hpp"
#include "ec/curve.hpp"
#include "ff/bn254.hpp"

namespace zkdet::plonk {

using ec::G1;
using ff::Fr;

class Transcript {
 public:
  explicit Transcript(std::string_view protocol_label);

  void absorb_bytes(std::span<const std::uint8_t> data);
  void absorb_u64(std::uint64_t v);
  void absorb_fr(const Fr& v);
  void absorb_g1(const G1& p);
  // The same bytes as absorb_g1(p.to_jacobian()), without the inversion.
  void absorb_g1(const ec::G1Affine& p);

  // Deterministic challenge bound to everything absorbed so far; the
  // label also separates multiple challenges squeezed back to back.
  [[nodiscard]] Fr challenge(std::string_view label);

  using State = std::array<std::uint8_t, 32>;
  // The chained digest of everything absorbed and squeezed so far.
  [[nodiscard]] const State& state() const { return state_; }

 private:
  State state_{};
};

}  // namespace zkdet::plonk
