// 256-bit unsigned integer with constexpr arithmetic.
//
// U256 is the plumbing under the Montgomery prime fields: a fixed-width,
// little-endian, 4x64-bit limb integer. Everything here is constexpr so
// that field parameters (R, R^2, -p^-1 mod 2^64) can be derived from the
// modulus at compile time instead of being hand-transcribed.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace zkdet::ff {

// --- Carry chains ------------------------------------------------------
//
// adc/sbb are the one add-with-carry and subtract-with-borrow primitive
// under U256 and the field kernels: a + b + carry and a - b - borrow,
// with the carry (borrow) in and out in {0, 1}. The unsigned __int128
// forms compile everywhere, also in constant expressions. On x86-64 the
// run-time path uses _addcarry_u64/_subborrow_u64, which GCC chains
// through the flags register; from the __int128 form it rebuilds every
// carry as a 128-bit value. Tests compare the two forms.
using Carry = unsigned char;

constexpr std::uint64_t adc_u128(std::uint64_t a, std::uint64_t b,
                                 Carry& carry) {
  const unsigned __int128 s = static_cast<unsigned __int128>(a) + b + carry;
  carry = (s >> 64) != 0;
  return static_cast<std::uint64_t>(s);
}

constexpr std::uint64_t sbb_u128(std::uint64_t a, std::uint64_t b,
                                 Carry& borrow) {
  const unsigned __int128 d =
      static_cast<unsigned __int128>(a) - b - borrow;
  borrow = (d >> 64) != 0;
  return static_cast<std::uint64_t>(d);
}

constexpr std::uint64_t adc(std::uint64_t a, std::uint64_t b, Carry& carry) {
#if defined(__x86_64__)
  if (!std::is_constant_evaluated()) {
    unsigned long long out = 0;
    carry = _addcarry_u64(carry, a, b, &out);
    return out;
  }
#endif
  return adc_u128(a, b, carry);
}

constexpr std::uint64_t sbb(std::uint64_t a, std::uint64_t b, Carry& borrow) {
#if defined(__x86_64__)
  if (!std::is_constant_evaluated()) {
    unsigned long long out = 0;
    borrow = _subborrow_u64(borrow, a, b, &out);
    return out;
  }
#endif
  return sbb_u128(a, b, borrow);
}

struct U256 {
  // limb[0] is the least significant 64 bits.
  std::array<std::uint64_t, 4> limb{0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t lo) : limb{lo, 0, 0, 0} {}
  constexpr U256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                 std::uint64_t l3)
      : limb{l0, l1, l2, l3} {}

  constexpr bool operator==(const U256&) const = default;

  [[nodiscard]] constexpr bool is_zero() const {
    return limb[0] == 0 && limb[1] == 0 && limb[2] == 0 && limb[3] == 0;
  }

  [[nodiscard]] constexpr bool bit(std::size_t i) const {
    return (limb[i / 64] >> (i % 64)) & 1u;
  }

  // Number of significant bits (0 for zero).
  [[nodiscard]] constexpr std::size_t bit_length() const {
    for (int i = 3; i >= 0; --i) {
      if (limb[static_cast<std::size_t>(i)] != 0) {
        std::uint64_t v = limb[static_cast<std::size_t>(i)];
        std::size_t n = 0;
        while (v != 0) {
          v >>= 1;
          ++n;
        }
        return static_cast<std::size_t>(i) * 64 + n;
      }
    }
    return 0;
  }
};

// a < b
constexpr bool u256_less(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    const auto ai = a.limb[static_cast<std::size_t>(i)];
    const auto bi = b.limb[static_cast<std::size_t>(i)];
    if (ai != bi) return ai < bi;
  }
  return false;
}

constexpr bool u256_geq(const U256& a, const U256& b) { return !u256_less(a, b); }

// out = a + b, returns carry.
constexpr std::uint64_t u256_add(U256& out, const U256& a, const U256& b) {
  Carry carry = 0;
  out.limb[0] = adc(a.limb[0], b.limb[0], carry);
  out.limb[1] = adc(a.limb[1], b.limb[1], carry);
  out.limb[2] = adc(a.limb[2], b.limb[2], carry);
  out.limb[3] = adc(a.limb[3], b.limb[3], carry);
  return carry;
}

// out = a - b, returns borrow.
constexpr std::uint64_t u256_sub(U256& out, const U256& a, const U256& b) {
  Carry borrow = 0;
  out.limb[0] = sbb(a.limb[0], b.limb[0], borrow);
  out.limb[1] = sbb(a.limb[1], b.limb[1], borrow);
  out.limb[2] = sbb(a.limb[2], b.limb[2], borrow);
  out.limb[3] = sbb(a.limb[3], b.limb[3], borrow);
  return borrow;
}

// Full 256x256 -> 512 bit product, little-endian 8 limbs.
constexpr std::array<std::uint64_t, 8> u256_mul_wide(const U256& a,
                                                     const U256& b) {
  std::array<std::uint64_t, 8> r{};
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] + r[i + j] +
          carry;
      r[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    r[i + 4] = carry;
  }
  return r;
}

// 2^k mod m, for odd m with bit_length(m) <= 255 (true for all our moduli).
constexpr U256 u256_pow2k_mod(std::size_t k, const U256& m) {
  U256 x{1};
  if (u256_geq(x, m)) u256_sub(x, x, m);
  for (std::size_t i = 0; i < k; ++i) {
    U256 d{};
    u256_add(d, x, x);  // x < m < 2^255, no overflow
    if (u256_geq(d, m)) u256_sub(d, d, m);
    x = d;
  }
  return x;
}

// -m^-1 mod 2^64 for odd m (Newton's iteration doubles correct bits).
constexpr std::uint64_t mont_inv64(std::uint64_t m0) {
  std::uint64_t x = 1;
  for (int i = 0; i < 6; ++i) x *= 2 - m0 * x;
  return ~x + 1;  // negate mod 2^64
}

// Parse a decimal string; input must fit in 256 bits.
U256 u256_from_dec(std::string_view s);

// Lowercase hex, no 0x prefix, most significant digit first.
std::string u256_to_hex(const U256& v);
std::string u256_to_dec(const U256& v);

// 32 big-endian bytes.
std::array<std::uint8_t, 32> u256_to_bytes(const U256& v);
U256 u256_from_bytes(const std::array<std::uint8_t, 32>& b);

}  // namespace zkdet::ff
