// BN-254 (alt_bn128) field parameters — the curve used by the paper's
// Circom/Snarkjs toolchain ("BN-128", 254-bit, ~110-bit security).
//
//   Fp: base field of E: y^2 = x^3 + 3
//   Fr: scalar field (order of G1/G2), 2-adicity 28 -> radix-2 NTT friendly
#pragma once

#include "ff/prime_field.hpp"

namespace zkdet::ff {

struct BnBaseParams {
  // 21888242871839275222246405745257275088696311157297823662689037894645226208583
  static constexpr U256 MODULUS{0x3c208c16d87cfd47ull, 0x97816a916871ca8dull,
                                0xb85045b68181585dull, 0x30644e72e131a029ull};
  static constexpr std::uint64_t GENERATOR = 3;  // p == 3 mod 4, adicity 1
  static constexpr std::size_t TWO_ADICITY = 1;
};

struct BnScalarParams {
  // 21888242871839275222246405745257275088548364400416034343698204186575808495617
  static constexpr U256 MODULUS{0x43e1f593f0000001ull, 0x2833e84879b97091ull,
                                0xb85045b68181585dull, 0x30644e72e131a029ull};
  static constexpr std::uint64_t GENERATOR = 5;
  static constexpr std::size_t TWO_ADICITY = 28;
};

using Fp = Fp_<BnBaseParams>;
using Fr = Fp_<BnScalarParams>;

// The BN curve parameter x: p = 36x^4 + 36x^3 + 24x^2 + 6x + 1 and
// r = 36x^4 + 36x^3 + 18x^2 + 6x + 1. The optimal ate Miller loop runs
// over 6x + 2 and the final exponentiation's hard part is a chain of
// exponentiations by x.
inline constexpr std::uint64_t kBnX = 4965661367192848881ull;

// Samples a uniform field element by rejection from 256-bit draws.
template <typename F, typename Rng>
F random_field(Rng& rng) {
  // Rejection sampling; terminates w.p. 1 (acceptance > 1/2 per draw).
  for (;;) {  // zkdet-lint: allow(unbounded-retry)
    U256 v{static_cast<std::uint64_t>(rng()), static_cast<std::uint64_t>(rng()),
           static_cast<std::uint64_t>(rng()), static_cast<std::uint64_t>(rng())};
    if (u256_less(v, F::MOD)) return F::from_canonical(v);
  }
}

}  // namespace zkdet::ff
