#include "plonk/transcript.hpp"

namespace zkdet::plonk {

using crypto::Sha256;

Transcript::Transcript(std::string_view protocol_label) {
  Sha256 h;
  h.update(std::string(protocol_label));
  state_ = h.finalize();
}

void Transcript::absorb_bytes(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(state_);
  h.update(data);
  state_ = h.finalize();
}

void Transcript::absorb_u64(std::uint64_t v) {
  std::array<std::uint8_t, 8> b{};
  for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (i * 8));
  absorb_bytes(b);
}

void Transcript::absorb_fr(const Fr& v) {
  absorb_bytes(ff::u256_to_bytes(v.to_canonical()));
}

void Transcript::absorb_g1(const ec::G1Affine& p) {
  absorb_bytes(ec::g1_to_bytes(p));
}

Fr Transcript::challenge(std::string_view label) {
  Sha256 h;
  h.update(state_);
  h.update(std::string(label));
  state_ = h.finalize();
  return Fr::reduce_from(ff::u256_from_bytes(state_));
}

}  // namespace zkdet::plonk
