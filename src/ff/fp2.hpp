// Quadratic extension Fp2 = Fp[u] / (u^2 + 1) for BN-254 (p == 3 mod 4,
// so -1 is a non-residue). Elements are a + b*u.
#pragma once

#include "ff/bn254.hpp"

namespace zkdet::ff {

struct Fp2 {
  Fp a{};  // coefficient of 1
  Fp b{};  // coefficient of u

  constexpr Fp2() = default;
  Fp2(const Fp& a_, const Fp& b_) : a(a_), b(b_) {}

  [[nodiscard]] static Fp2 zero() { return {}; }
  [[nodiscard]] static Fp2 one() { return {Fp::one(), Fp::zero()}; }
  [[nodiscard]] static Fp2 from_u64(std::uint64_t x, std::uint64_t y) {
    return {Fp::from_u64(x), Fp::from_u64(y)};
  }

  [[nodiscard]] bool is_zero() const { return a.is_zero() && b.is_zero(); }
  bool operator==(const Fp2& o) const { return a == o.a && b == o.b; }
  bool operator!=(const Fp2& o) const { return !(*this == o); }

  Fp2 operator+(const Fp2& o) const { return {a + o.a, b + o.b}; }
  Fp2 operator-(const Fp2& o) const { return {a - o.a, b - o.b}; }
  Fp2 operator-() const { return {-a, -b}; }

  // Karatsuba: (a+bu)(c+du) = (ac - bd) + ((a+b)(c+d) - ac - bd)u
  Fp2 operator*(const Fp2& o) const {
    const Fp ac = a * o.a;
    const Fp bd = b * o.b;
    const Fp cross = (a + b) * (o.a + o.b);
    return {ac - bd, cross - ac - bd};
  }

  Fp2& operator+=(const Fp2& o) { return *this = *this + o; }
  Fp2& operator-=(const Fp2& o) { return *this = *this - o; }
  Fp2& operator*=(const Fp2& o) { return *this = *this * o; }

  [[nodiscard]] Fp2 square() const {
    // (a+bu)^2 = (a+b)(a-b) + 2ab u
    const Fp t = a * b;
    return {(a + b) * (a - b), t + t};
  }

  [[nodiscard]] Fp2 scale(const Fp& s) const { return {a * s, b * s}; }

  // Multiplication by xi = 9 + u (fp2_xi below) with additions only:
  // (a + bu)(9 + u) = (9a - b) + (a + 9b)u.
  [[nodiscard]] Fp2 mul_by_xi() const {
    const auto nine = [](const Fp& x) {
      const Fp x2 = x + x;
      const Fp x4 = x2 + x2;
      return x4 + x4 + x;
    };
    return {nine(a) - b, nine(b) + a};
  }

  [[nodiscard]] Fp2 conjugate() const { return {a, -b}; }

  // (a + bu)^-1 = (a - bu) / (a^2 + b^2); inverse of zero is zero.
  [[nodiscard]] Fp2 inverse() const {
    const Fp norm = a.square() + b.square();
    const Fp ninv = norm.inverse();
    return {a * ninv, -(b * ninv)};
  }

  [[nodiscard]] Fp2 pow(const U256& e) const {
    Fp2 result = one();
    const std::size_t n = e.bit_length();
    for (std::size_t i = n; i-- > 0;) {
      result = result.square();
      if (e.bit(i)) result = result * *this;
    }
    return result;
  }

  // Frobenius x -> x^p is conjugation in Fp2.
  [[nodiscard]] Fp2 frobenius() const { return conjugate(); }
};

// The sextic non-residue xi = 9 + u used for the Fp6/Fp12 tower and the
// D-type twist E': y^2 = x^3 + 3/xi.
inline const Fp2& fp2_xi() {
  static const Fp2 xi{Fp::from_u64(9), Fp::from_u64(1)};
  return xi;
}

}  // namespace zkdet::ff
