// The BN-254 pairing target field as a 2-3-2 tower:
//
//   Fp2  = Fp[u]  / (u^2 + 1)
//   Fp6  = Fp2[v] / (v^3 - xi),  xi = 9 + u
//   Fp12 = Fp6[w] / (w^2 - v)
//
// so w^6 = xi, and the untwist E'(Fp2) -> E(Fp12) is (x, y) -> (x w^2,
// y w^3). Multiplication is Karatsuba at every level (Fp6: 6 Fp2 muls,
// Fp12: 3 Fp6 muls); Fp6 squaring is Chung-Hasan SQR2 and Fp12 squaring
// the complex method. mul_by_034 multiplies by the sparse element
// a + b w + c w^3 a Miller-loop line evaluates to. In the cyclotomic
// subgroup (where every final-exponentiated value lives)
// cyclotomic_square is Granger-Scott's and the inverse is conjugate().
// The Frobenius coefficients xi^(i (p^k - 1) / 6) are derived at start-up
// from the modulus rather than hand-transcribed.
#pragma once

#include "ff/fp2.hpp"

namespace zkdet::ff {

struct Fp6 {
  Fp2 c0{}, c1{}, c2{};  // c0 + c1 v + c2 v^2

  [[nodiscard]] static Fp6 zero() { return {}; }
  [[nodiscard]] static Fp6 one() { return {Fp2::one(), Fp2{}, Fp2{}}; }

  [[nodiscard]] bool is_zero() const {
    return c0.is_zero() && c1.is_zero() && c2.is_zero();
  }
  bool operator==(const Fp6& o) const {
    return c0 == o.c0 && c1 == o.c1 && c2 == o.c2;
  }
  bool operator!=(const Fp6& o) const { return !(*this == o); }

  Fp6 operator+(const Fp6& o) const { return {c0 + o.c0, c1 + o.c1, c2 + o.c2}; }
  Fp6 operator-(const Fp6& o) const { return {c0 - o.c0, c1 - o.c1, c2 - o.c2}; }
  Fp6 operator-() const { return {-c0, -c1, -c2}; }
  Fp6 operator*(const Fp6& o) const;

  [[nodiscard]] Fp6 square() const;
  [[nodiscard]] Fp6 inverse() const;  // zero maps to zero
  // Multiplication by v: (c0, c1, c2) -> (xi c2, c0, c1).
  [[nodiscard]] Fp6 mul_by_v() const { return {c2 * fp2_xi(), c0, c1}; }
  // Sparse multiplication by b0 + b1 v.
  [[nodiscard]] Fp6 mul_by_01(const Fp2& b0, const Fp2& b1) const;
};

struct Fp12 {
  Fp6 c0{}, c1{};  // c0 + c1 w

  [[nodiscard]] static Fp12 zero() { return {}; }
  [[nodiscard]] static Fp12 one() { return {Fp6::one(), Fp6{}}; }

  [[nodiscard]] bool is_zero() const { return c0.is_zero() && c1.is_zero(); }
  [[nodiscard]] bool is_one() const { return c0 == Fp6::one() && c1.is_zero(); }
  bool operator==(const Fp12& o) const { return c0 == o.c0 && c1 == o.c1; }
  bool operator!=(const Fp12& o) const { return !(*this == o); }

  Fp12 operator+(const Fp12& o) const { return {c0 + o.c0, c1 + o.c1}; }
  Fp12 operator-(const Fp12& o) const { return {c0 - o.c0, c1 - o.c1}; }
  Fp12 operator*(const Fp12& o) const;
  Fp12& operator*=(const Fp12& o) { return *this = *this * o; }

  [[nodiscard]] Fp12 square() const;

  // x^(p^6): the inverse of any element of the cyclotomic subgroup.
  [[nodiscard]] Fp12 conjugate() const { return {c0, -c1}; }

  // x -> x^(p^power) for power in [0, 12).
  [[nodiscard]] Fp12 frobenius(unsigned power = 1) const;

  // Multiplicative inverse; zero maps to zero.
  [[nodiscard]] Fp12 inverse() const;

  [[nodiscard]] Fp12 pow(const U256& e) const;

  // Granger-Scott squaring; equals square() only on the cyclotomic
  // subgroup (x^(p^6 + 1) = 1, e.g. any output of the pairing's easy part).
  [[nodiscard]] Fp12 cyclotomic_square() const;

  // Sparse multiplication by a + b w + c w^3, the shape of a Miller-loop
  // line evaluated at a G1 point.
  [[nodiscard]] Fp12 mul_by_034(const Fp2& a, const Fp2& b, const Fp2& c) const;
};

// gamma_k[i] = xi^(i (p^k - 1) / 6) for k in [0, 12), i in [0, 6): the
// Frobenius coefficient of w^i (the pairing's Frobenius-twisted G2 points
// use gamma_1[2] and gamma_1[3]).
[[nodiscard]] const Fp2& frobenius_coeff(unsigned k, unsigned i);

}  // namespace zkdet::ff
