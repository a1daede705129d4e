#include "ff/fp12.hpp"

#include <array>

#include "check/check.hpp"

namespace zkdet::ff {

namespace {

// table[k][i] = xi^(i (p^k - 1) / 6). Row 1 is gamma^i with
// gamma = xi^((p-1)/6); since frob^k = frob o frob^(k-1), the
// coefficient recurses as table[k][i] = conj(table[k-1][i]) * table[1][i].
using FrobTable = std::array<std::array<Fp2, 6>, 12>;

const FrobTable& frob_table() {
  static const FrobTable table = [] {
    U256 e = Fp::MOD;
    u256_sub(e, e, U256{1});
    // exact division by 6: p == 1 mod 6 for BN primes
    U256 q{};
    unsigned __int128 rem = 0;
    for (int i = 3; i >= 0; --i) {
      const unsigned __int128 cur = (rem << 64) | e.limb[static_cast<std::size_t>(i)];
      q.limb[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(cur / 6);
      rem = cur % 6;
    }
    ZKDET_CHECK(rem == 0, "p - 1 must be divisible by 6");
    const Fp2 gamma = fp2_xi().pow(q);
    FrobTable t;
    for (std::size_t i = 0; i < 6; ++i) t[0][i] = Fp2::one();
    t[1][0] = Fp2::one();
    for (std::size_t i = 1; i < 6; ++i) t[1][i] = t[1][i - 1] * gamma;
    for (std::size_t k = 2; k < 12; ++k) {
      for (std::size_t i = 0; i < 6; ++i) t[k][i] = t[k - 1][i].conjugate() * t[1][i];
    }
    return t;
  }();
  return table;
}

// (a + b s)^2 in Fp4 = Fp2[s] / (s^2 - xi): returns (a^2 + xi b^2, 2ab).
void fp4_square(const Fp2& a, const Fp2& b, Fp2& out0, Fp2& out1) {
  const Fp2 ab = a * b;
  out0 = (a + b) * (a + b.mul_by_xi()) - ab - ab.mul_by_xi();
  out1 = ab + ab;
}

}  // namespace

const Fp2& frobenius_coeff(unsigned k, unsigned i) {
  ZKDET_CHECK(k < 12 && i < 6, "frobenius_coeff index out of range");
  return frob_table()[k][i];
}

// Karatsuba over Fp2: 6 Fp2 multiplications.
Fp6 Fp6::operator*(const Fp6& o) const {
  const Fp2 v0 = c0 * o.c0;
  const Fp2 v1 = c1 * o.c1;
  const Fp2 v2 = c2 * o.c2;
  return {((c1 + c2) * (o.c1 + o.c2) - v1 - v2).mul_by_xi() + v0,
          (c0 + c1) * (o.c0 + o.c1) - v0 - v1 + v2.mul_by_xi(),
          (c0 + c2) * (o.c0 + o.c2) - v0 - v2 + v1};
}

// Chung-Hasan SQR2: 2 Fp2 squarings and 3 multiplications.
Fp6 Fp6::square() const {
  const Fp2 s0 = c0.square();
  const Fp2 ab = c0 * c1;
  const Fp2 s1 = ab + ab;
  const Fp2 s2 = (c0 - c1 + c2).square();
  const Fp2 bc = c1 * c2;
  const Fp2 s3 = bc + bc;
  const Fp2 s4 = c2.square();
  return {s0 + s3.mul_by_xi(), s1 + s4.mul_by_xi(), s1 + s2 + s3 - s0 - s4};
}

Fp6 Fp6::inverse() const {
  const Fp2 t0 = c0.square() - (c1 * c2).mul_by_xi();
  const Fp2 t1 = c2.square().mul_by_xi() - c0 * c1;
  const Fp2 t2 = c1.square() - c0 * c2;
  const Fp2 den = c0 * t0 + (c2 * t1 + c1 * t2).mul_by_xi();
  const Fp2 inv = den.inverse();
  return {t0 * inv, t1 * inv, t2 * inv};
}

Fp6 Fp6::mul_by_01(const Fp2& b0, const Fp2& b1) const {
  const Fp2 v0 = c0 * b0;
  const Fp2 v1 = c1 * b1;
  return {((c1 + c2) * b1 - v1).mul_by_xi() + v0,
          (c0 + c1) * (b0 + b1) - v0 - v1,
          (c0 + c2) * b0 - v0 + v1};
}

// Karatsuba over Fp6: 3 Fp6 multiplications.
Fp12 Fp12::operator*(const Fp12& o) const {
  const Fp6 t0 = c0 * o.c0;
  const Fp6 t1 = c1 * o.c1;
  return {t0 + t1.mul_by_v(), (c0 + c1) * (o.c0 + o.c1) - t0 - t1};
}

// Complex squaring: (a + b w)^2 = (a + b)(a + v b) - ab - v ab + 2ab w.
Fp12 Fp12::square() const {
  const Fp6 ab = c0 * c1;
  return {(c0 + c1) * (c0 + c1.mul_by_v()) - ab - ab.mul_by_v(), ab + ab};
}

Fp12 Fp12::mul_by_034(const Fp2& a, const Fp2& b, const Fp2& c) const {
  const Fp6 t0{c0.c0 * a, c0.c1 * a, c0.c2 * a};
  const Fp6 t1 = c1.mul_by_01(b, c);
  return {t0 + t1.mul_by_v(), (c0 + c1).mul_by_01(a + b, c) - t0 - t1};
}

Fp12 Fp12::frobenius(unsigned power) const {
  power %= 12;
  const auto& g = frob_table()[power];
  const auto f = [power](const Fp2& x) {
    return (power % 2 == 1) ? x.conjugate() : x;
  };
  // Coefficient of w^i: c0 holds w^0, w^2, w^4 and c1 holds w^1, w^3, w^5.
  return {{f(c0.c0), f(c0.c1) * g[2], f(c0.c2) * g[4]},
          {f(c1.c0) * g[1], f(c1.c1) * g[3], f(c1.c2) * g[5]}};
}

Fp12 Fp12::inverse() const {
  // (a + b w)^-1 = (a - b w) / (a^2 - v b^2)
  const Fp6 inv = (c0.square() - c1.square().mul_by_v()).inverse();
  return {c0 * inv, -(c1 * inv)};
}

Fp12 Fp12::pow(const U256& e) const {
  Fp12 result = one();
  const std::size_t n = e.bit_length();
  for (std::size_t i = n; i-- > 0;) {
    result = result.square();
    if (e.bit(i)) result *= *this;
  }
  return result;
}

// Granger-Scott: view Fp12 as Fp4[w] / (w^3 - s) with s = w^3, so
// x = A + B w + C w^2 with A = g0 + g3 s, B = g1 + g4 s, C = g2 + g5 s
// (g_i the coefficient of w^i). On the cyclotomic subgroup
//   x^2 = (3A^2 - 2 conj(A)) + (3 s C^2 + 2 conj(B)) w + (3B^2 - 2 conj(C)) w^2
// which costs three Fp4 squarings instead of a full Fp12 squaring.
Fp12 Fp12::cyclotomic_square() const {
  Fp2 t0, t1, t2, t3, t4, t5;
  fp4_square(c0.c0, c1.c1, t0, t1);  // A^2
  fp4_square(c1.c0, c0.c2, t2, t3);  // B^2
  fp4_square(c0.c1, c1.c2, t4, t5);  // C^2
  const auto three_minus_two = [](const Fp2& t, const Fp2& z) {
    const Fp2 d = t - z;
    return d + d + t;  // 3t - 2z
  };
  const auto three_plus_two = [](const Fp2& t, const Fp2& z) {
    const Fp2 s = t + z;
    return s + s + t;  // 3t + 2z
  };
  Fp12 r;
  r.c0.c0 = three_minus_two(t0, c0.c0);
  r.c1.c1 = three_plus_two(t1, c1.c1);
  r.c1.c0 = three_plus_two(t5.mul_by_xi(), c1.c0);
  r.c0.c2 = three_minus_two(t4, c0.c2);
  r.c0.c1 = three_minus_two(t2, c0.c1);
  r.c1.c2 = three_plus_two(t3, c1.c2);
  return r;
}

}  // namespace zkdet::ff
