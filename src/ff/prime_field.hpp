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
// Elements are kept in Montgomery form. The modulus needs a spare top bit
// (both BN-254 moduli have it): a sum of two elements then never carries
// out of 256 bits, and multiplication is an unrolled no-carry CIOS. Add,
// subtract and the multiply's final reduction are branch-free chains of
// the adc/sbb primitive (ff/u256.hpp) with a mask select.
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
  [[nodiscard]] static Fp_ one() { return from_raw(R); }

  [[nodiscard]] static Fp_ from_u64(std::uint64_t v) {
    return from_canonical(U256{v});
  }

  // Interpret v (already reduced mod p, canonical form) as a field element.
  [[nodiscard]] static Fp_ from_canonical(const U256& v) {
    Fp_ out;
    out.v_ = mont_mul(v, R2);
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

  // a + b < 2p < 2^256 carries out of no limb; one subtraction of p,
  // kept unless it borrows, reduces it.
  Fp_ operator+(const Fp_& o) const {
    U256 s;
    u256_add(s, v_, o.v_);
    return from_raw(reduce_below_2p(s));
  }

  // a - b, plus p masked in when the subtraction borrows.
  Fp_ operator-(const Fp_& o) const {
    U256 d;
    const std::uint64_t mask = 0 - u256_sub(d, v_, o.v_);
    const U256 p_or_0{MOD.limb[0] & mask, MOD.limb[1] & mask,
                      MOD.limb[2] & mask, MOD.limb[3] & mask};
    Fp_ out;
    u256_add(out.v_, d, p_or_0);
    return out;
  }

  Fp_ operator-() const { return zero() - *this; }

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
  // R and R^2 mod p are constants. Called at run time, a constexpr
  // function need not be folded, and GCC does not fold one that runs the
  // intrinsic carry chain.
  static constexpr U256 R = u256_pow2k_mod(256, Params::MODULUS);
  static constexpr U256 R2 = u256_pow2k_mod(512, Params::MODULUS);

  static_assert(MOD.limb[3] < (~std::uint64_t{0} >> 1) - 1,
                "Fp_ needs a spare top bit in the modulus");

  // s mod p for s < 2p: s - p, or s where that subtraction borrows.
  static U256 reduce_below_2p(const U256& s) {
    U256 d;
    const std::uint64_t keep = 0 - u256_sub(d, s, MOD);
    return U256{(s.limb[0] & keep) | (d.limb[0] & ~keep),
                (s.limb[1] & keep) | (d.limb[1] & ~keep),
                (s.limb[2] & keep) | (d.limb[2] & ~keep),
                (s.limb[3] & keep) | (d.limb[3] & ~keep)};
  }

  // (hi, lo) = a * b.
  static std::uint64_t mul_wide(std::uint64_t a, std::uint64_t b,
                                std::uint64_t& hi) {
    const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
    hi = static_cast<std::uint64_t>(p >> 64);
    return static_cast<std::uint64_t>(p);
  }

  // One CIOS round: t = (t + a * bi + m * p) / 2^64, with m chosen so the
  // low word cancels. Each half is computed row-wise: four independent
  // 64x64 multiplies, then one carry chain over their low words and one
  // over their high words, one word up. Five words hold every sum.
  [[gnu::always_inline]] static void mont_round(std::uint64_t& t0,
                                                std::uint64_t& t1,
                                                std::uint64_t& t2,
                                                std::uint64_t& t3,
                                                const U256& a,
                                                std::uint64_t bi) {
    std::uint64_t h0 = 0, h1 = 0, h2 = 0, h3 = 0;
    std::uint64_t l0 = mul_wide(a.limb[0], bi, h0);
    std::uint64_t l1 = mul_wide(a.limb[1], bi, h1);
    std::uint64_t l2 = mul_wide(a.limb[2], bi, h2);
    std::uint64_t l3 = mul_wide(a.limb[3], bi, h3);
    Carry k = 0;
    const std::uint64_t x0 = adc(t0, l0, k);
    std::uint64_t x1 = adc(t1, l1, k);
    std::uint64_t x2 = adc(t2, l2, k);
    std::uint64_t x3 = adc(t3, l3, k);
    std::uint64_t x4 = adc(h3, 0, k);
    k = 0;
    x1 = adc(x1, h0, k);
    x2 = adc(x2, h1, k);
    x3 = adc(x3, h2, k);
    x4 = adc(x4, 0, k);

    const std::uint64_t m = x0 * INV;
    l0 = mul_wide(m, MOD.limb[0], h0);
    l1 = mul_wide(m, MOD.limb[1], h1);
    l2 = mul_wide(m, MOD.limb[2], h2);
    l3 = mul_wide(m, MOD.limb[3], h3);
    k = 0;
    adc(x0, l0, k);  // cancels to zero; only the carry is kept
    x1 = adc(x1, l1, k);
    x2 = adc(x2, l2, k);
    x3 = adc(x3, l3, k);
    x4 = adc(x4, h3, k);
    k = 0;
    t0 = adc(x1, h0, k);
    t1 = adc(x2, h1, k);
    t2 = adc(x3, h2, k);
    t3 = adc(x4, 0, k);
  }

  // No-carry CIOS Montgomery multiplication (Botrel and El Housni, ePrint
  // 2022/1400): returns a*b*R^-1 mod p. While p's top limb leaves a spare
  // bit, every round's t stays below 2p < 2^256, so four running words
  // hold it with no carry word, and reduce_below_2p finishes. The running
  // words are four scalars rather than an array, which GCC keeps in
  // registers across the rounds.
  static U256 mont_mul(const U256& a, const U256& b) {
    std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    mont_round(t0, t1, t2, t3, a, b.limb[0]);
    mont_round(t0, t1, t2, t3, a, b.limb[1]);
    mont_round(t0, t1, t2, t3, a, b.limb[2]);
    mont_round(t0, t1, t2, t3, a, b.limb[3]);
    return reduce_below_2p(U256{t0, t1, t2, t3});
  }

  U256 v_{};  // Montgomery form
};

}  // namespace zkdet::ff
