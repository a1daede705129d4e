// Minimal arbitrary-precision unsigned integer for the test-only Tate
// oracle (oracles/tate.hpp): it spells out the reduced Tate final
// exponent (p^12 - 1) / r as one ~2,800-bit integer.
#pragma once

#include <cstdint>
#include <vector>

#include "ff/u256.hpp"

namespace zkdet::oracle {

using ff::U256;

struct BigUInt {
  // little-endian limbs; no trailing-zero guarantees required by users.
  std::vector<std::uint64_t> limbs{0};

  [[nodiscard]] static BigUInt from_u64(std::uint64_t v) { return BigUInt{{v}}; }
  [[nodiscard]] static BigUInt from_u256(const U256& v);

  [[nodiscard]] bool is_zero() const;
  [[nodiscard]] std::size_t bit_length() const;
  [[nodiscard]] bool bit(std::size_t i) const;

  void mul_u256(const U256& m);  // *this *= m
  void sub_u64(std::uint64_t v); // *this -= v (must not underflow)
};

// Exact division q = n / d for d | n, d odd 256-bit. Also returns the
// remainder so callers can assert exactness.
BigUInt bigint_div_u256(const BigUInt& n, const U256& d, U256* remainder_out);

}  // namespace zkdet::oracle
