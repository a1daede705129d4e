// Montgomery-form prime field, templated on a parameter struct.
//
// A parameter struct provides the modulus and a multiplicative generator:
//
//   struct MyParams {
//     static constexpr U256 MODULUS{...};   // odd, < 2^255
//     static constexpr std::uint64_t GENERATOR = 5;  // of the full group
//     static constexpr std::size_t TWO_ADICITY = ...; // 2-adic valuation of p-1
//   };
//
// R = 2^256 mod p, R^2 mod p and -p^-1 mod 2^64 are derived constexpr.
// Elements are kept in Montgomery form; multiplication is an unrolled
// no-carry CIOS over unsigned __int128 limb products, which needs a spare
// top bit in the modulus (both BN-254 moduli have it).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ff/u256.hpp"

namespace zkdet::ff {

template <typename Params>
class Fp_ {
 public:
  static constexpr U256 MOD = Params::MODULUS;
  static constexpr std::uint64_t INV = mont_inv64(Params::MODULUS.limb[0]);
  static constexpr std::size_t TWO_ADICITY = Params::TWO_ADICITY;

  constexpr Fp_() = default;

  [[nodiscard]] static Fp_ zero() { return Fp_{}; }
  [[nodiscard]] static Fp_ one() { return from_raw(r()); }

  [[nodiscard]] static Fp_ from_u64(std::uint64_t v) {
    return from_canonical(U256{v});
  }

  // Interpret v (already reduced mod p, canonical form) as a field element.
  [[nodiscard]] static Fp_ from_canonical(const U256& v) {
    Fp_ out;
    out.v_ = mont_mul(v, r2());
    return out;
  }

  [[nodiscard]] static Fp_ from_dec(std::string_view s) {
    U256 v = u256_from_dec(s);
    while (u256_geq(v, MOD)) u256_sub(v, v, MOD);
    return from_canonical(v);
  }

  // Construct from an arbitrary 256-bit value, reducing mod p.
  [[nodiscard]] static Fp_ reduce_from(const U256& v) {
    U256 x = v;
    while (u256_geq(x, MOD)) u256_sub(x, x, MOD);
    return from_canonical(x);
  }

  // The raw Montgomery representation (for serialization of constants).
  [[nodiscard]] static constexpr Fp_ from_raw(const U256& mont) {
    Fp_ out;
    out.v_ = mont;
    return out;
  }
  [[nodiscard]] const U256& raw() const { return v_; }

  [[nodiscard]] U256 to_canonical() const { return mont_mul(v_, U256{1}); }
  [[nodiscard]] std::string to_dec() const { return u256_to_dec(to_canonical()); }
  [[nodiscard]] std::string to_hex() const { return u256_to_hex(to_canonical()); }

  [[nodiscard]] bool is_zero() const { return v_.is_zero(); }
  bool operator==(const Fp_& o) const { return v_ == o.v_; }
  bool operator!=(const Fp_& o) const { return !(v_ == o.v_); }

  Fp_ operator+(const Fp_& o) const {
    Fp_ out;
    const std::uint64_t carry = u256_add(out.v_, v_, o.v_);
    if (carry != 0 || u256_geq(out.v_, MOD)) u256_sub(out.v_, out.v_, MOD);
    return out;
  }

  Fp_ operator-(const Fp_& o) const {
    Fp_ out;
    const std::uint64_t borrow = u256_sub(out.v_, v_, o.v_);
    if (borrow != 0) u256_add(out.v_, out.v_, MOD);
    return out;
  }

  Fp_ operator-() const {
    if (is_zero()) return *this;
    Fp_ out;
    u256_sub(out.v_, MOD, v_);
    return out;
  }

  Fp_ operator*(const Fp_& o) const { return from_raw(mont_mul(v_, o.v_)); }

  Fp_& operator+=(const Fp_& o) { return *this = *this + o; }
  Fp_& operator-=(const Fp_& o) { return *this = *this - o; }
  Fp_& operator*=(const Fp_& o) { return *this = *this * o; }

  [[nodiscard]] Fp_ square() const { return *this * *this; }

  [[nodiscard]] Fp_ dbl() const { return *this + *this; }

  [[nodiscard]] Fp_ pow(const U256& e) const {
    Fp_ result = one();
    const std::size_t n = e.bit_length();
    for (std::size_t i = n; i-- > 0;) {
      result = result.square();
      if (e.bit(i)) result = result * *this;
    }
    return result;
  }

  // Multiplicative inverse via Fermat's little theorem; inverse of zero is
  // zero (callers that care must check is_zero()).
  [[nodiscard]] Fp_ inverse() const {
    U256 e;
    u256_sub(e, MOD, U256{2});
    return pow(e);
  }

  // Generator of the full multiplicative group (from Params).
  [[nodiscard]] static Fp_ generator() { return from_u64(Params::GENERATOR); }

  // Primitive 2^TWO_ADICITY-th root of unity.
  [[nodiscard]] static Fp_ two_adic_root() {
    U256 e;
    u256_sub(e, MOD, U256{1});
    for (std::size_t i = 0; i < TWO_ADICITY; ++i) {
      // e >>= 1
      for (std::size_t j = 0; j < 4; ++j) {
        e.limb[j] >>= 1;
        if (j + 1 < 4) e.limb[j] |= e.limb[j + 1] << 63;
      }
    }
    return generator().pow(e);
  }

 private:
  static constexpr U256 r() { return u256_pow2k_mod(256, Params::MODULUS); }
  static constexpr U256 r2() { return u256_pow2k_mod(512, Params::MODULUS); }

  // (hi, lo) = a * b + c + d; never overflows 128 bits.
  static std::uint64_t mac(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                           std::uint64_t d, std::uint64_t& hi) {
    const unsigned __int128 t = static_cast<unsigned __int128>(a) * b + c + d;
    hi = static_cast<std::uint64_t>(t >> 64);
    return static_cast<std::uint64_t>(t);
  }

  // a - b - borrow; borrow becomes 1 when it wraps.
  static std::uint64_t sbb(std::uint64_t a, std::uint64_t b,
                           std::uint64_t& borrow) {
    const unsigned __int128 d = static_cast<unsigned __int128>(a) - b - borrow;
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    return static_cast<std::uint64_t>(d);
  }

  // One CIOS round: t = (t + a * bi + m * p) / 2^64, with m chosen so the
  // low word cancels. A carries a * bi, C carries m * p.
  static void mont_round(std::uint64_t (&t)[4], const U256& a,
                         std::uint64_t bi) {
    std::uint64_t A = 0;
    std::uint64_t C = 0;
    const std::uint64_t t0 = mac(a.limb[0], bi, t[0], 0, A);
    const std::uint64_t m = t0 * INV;
    mac(m, MOD.limb[0], t0, 0, C);
    std::uint64_t tj = mac(a.limb[1], bi, t[1], A, A);
    t[0] = mac(m, MOD.limb[1], tj, C, C);
    tj = mac(a.limb[2], bi, t[2], A, A);
    t[1] = mac(m, MOD.limb[2], tj, C, C);
    tj = mac(a.limb[3], bi, t[3], A, A);
    t[2] = mac(m, MOD.limb[3], tj, C, C);
    t[3] = C + A;
  }

  // No-carry CIOS Montgomery multiplication (Botrel and El Housni, ePrint
  // 2022/1400): returns a*b*R^-1 mod p. While p's top limb leaves a spare
  // bit, every round's t stays below 2p < 2^256, so four running words
  // hold it with no carry word, and one borrow-selected subtraction of p
  // reduces the result.
  static_assert(MOD.limb[3] < (~std::uint64_t{0} >> 1) - 1,
                "no-carry CIOS needs a spare top bit in the modulus");
  static U256 mont_mul(const U256& a, const U256& b) {
    std::uint64_t t[4] = {0, 0, 0, 0};
    mont_round(t, a, b.limb[0]);
    mont_round(t, a, b.limb[1]);
    mont_round(t, a, b.limb[2]);
    mont_round(t, a, b.limb[3]);
    // t - p, keeping t where the subtraction borrows.
    std::uint64_t borrow = 0;
    const std::uint64_t s0 = sbb(t[0], MOD.limb[0], borrow);
    const std::uint64_t s1 = sbb(t[1], MOD.limb[1], borrow);
    const std::uint64_t s2 = sbb(t[2], MOD.limb[2], borrow);
    const std::uint64_t s3 = sbb(t[3], MOD.limb[3], borrow);
    const std::uint64_t keep = 0 - borrow;
    return U256{(t[0] & keep) | (s0 & ~keep), (t[1] & keep) | (s1 & ~keep),
                (t[2] & keep) | (s2 & ~keep), (t[3] & keep) | (s3 & ~keep)};
  }

  U256 v_{};  // Montgomery form
};

}  // namespace zkdet::ff
