#include "ec/glv.hpp"

#include <array>
#include <utility>
#include <vector>

#include "check/check.hpp"

namespace zkdet::ec {

namespace {

using ff::Fp;
using Wide = std::array<std::uint64_t, 8>;  // 512 bits, little-endian

Wide widen(const U256& v) { return {v.limb[0], v.limb[1], v.limb[2], v.limb[3]}; }

// v * 2^256.
Wide shifted(const U256& v) {
  return {0, 0, 0, 0, v.limb[0], v.limb[1], v.limb[2], v.limb[3]};
}

U256 low(const Wide& w) { return U256{w[0], w[1], w[2], w[3]}; }
U256 high(const Wide& w) { return U256{w[4], w[5], w[6], w[7]}; }

bool wide_less(const Wide& a, const Wide& b) {
  return u256_less(high(a), high(b)) ||
         (high(a) == high(b) && u256_less(low(a), low(b)));
}

Wide wide_add(const Wide& a, const Wide& b) {
  Wide out{};
  ff::Carry carry = 0;
  for (std::size_t i = 0; i < 8; ++i) out[i] = ff::adc(a[i], b[i], carry);
  return out;
}

// floor(num / d), and num mod d into *rem, for 0 < d < 2^254, by shift
// and subtract. The quotient must fit 256 bits. Only the one-time
// derivation below divides.
U256 div_wide(const Wide& num, const U256& d, U256* rem) {
  U256 q{};
  U256 r{};
  for (std::size_t i = 512; i-- > 0;) {
    // r < d < 2^254, so 2r + 1 fits.
    u256_add(r, r, r);
    r.limb[0] |= (num[i / 64] >> (i % 64)) & 1;
    if (u256_geq(r, d)) {
      u256_sub(r, r, d);
      ZKDET_CHECK(i < 256, "glv: quotient does not fit 256 bits");
      q.limb[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  if (rem != nullptr) *rem = r;
  return q;
}

// (q - 1) / 3 for a field order q == 1 (mod 3).
U256 third_of_group_order(const U256& q) {
  U256 q_minus_1;
  u256_sub(q_minus_1, q, U256{1});
  U256 rem;
  const U256 third = div_wide(widen(q_minus_1), U256{3}, &rem);
  ZKDET_CHECK(rem.is_zero(), "glv: the field has no cube roots of unity");
  return third;
}

struct Constants {
  Fp beta;
  Fr lambda;
  // The short basis (a1, -b1), (a2, b2) of the lattice
  // {(x, y) : x + lambda y == 0 (mod r)}, with every entry held as a
  // magnitude: a1, a2, b1, b2 > 0 and a1 b2 + a2 b1 = r.
  U256 a1, b1, a2, b2;
  // floor(b2 2^256 / r) and floor(b1 2^256 / r): glv_split's rounding
  // multipliers.
  U256 g1, g2;
};

Constants derive() {
  Constants c;
  const U256& r = Fr::MOD;

  // Cube roots of unity: g^((q - 1) / 3) for a generator g. phi uses
  // beta; of lambda and lambda^2 = -1 - lambda, keep the root that phi
  // multiplies by.
  c.beta = Fp::generator().pow(third_of_group_order(Fp::MOD));
  ZKDET_CHECK(c.beta != Fp::one(), "glv: beta is not a primitive cube root");
  c.lambda = Fr::generator().pow(third_of_group_order(r));
  const G1 phi_g =
      G1::from_affine(c.beta * G1Traits::gen_x(), G1Traits::gen_y());
  if (G1::generator().mul(c.lambda) != phi_g) {
    c.lambda = -Fr::one() - c.lambda;
  }
  ZKDET_CHECK(G1::generator().mul(c.lambda) == phi_g,
              "glv: no lambda matches beta on G1");

  // Extended Euclid on (r, lambda): s_i r + t_i lambda = r_i, so every
  // (r_i, -t_i) is in the lattice. t_i alternates in sign (t_1 = 1), so
  // ts holds |t_i| and -t_i is negative for odd i. With m the last index
  // where r_m^2 >= r, v_{m+1} and the shorter of v_m, v_{m+2} are a
  // short basis.
  const U256 lambda = c.lambda.to_canonical();
  std::vector<U256> rs{r, lambda};
  std::vector<U256> ts{U256{0}, U256{1}};
  std::size_t first_short = 0;  // m + 1: the first index with r_i^2 < r
  for (std::size_t steps = 0; first_short == 0 || rs.size() < first_short + 2;
       ++steps) {
    ZKDET_CHECK(steps < 512, "glv: extended Euclid did not reach sqrt(r)");
    const std::size_t i = rs.size() - 1;
    if (first_short == 0 && wide_less(u256_mul_wide(rs[i], rs[i]), widen(r))) {
      first_short = i;
      continue;
    }
    ZKDET_CHECK(!rs[i].is_zero(), "glv: extended Euclid ran out");
    U256 rem;
    const U256 q = div_wide(widen(rs[i - 1]), rs[i], &rem);
    U256 t;
    u256_add(t, ts[i - 1], low(u256_mul_wide(q, ts[i])));
    rs.push_back(rem);
    ts.push_back(t);
  }
  ZKDET_CHECK(first_short >= 1, "glv: lambda is already below sqrt(r)");
  const auto norm2 = [&](std::size_t i) {
    return wide_add(u256_mul_wide(rs[i], rs[i]), u256_mul_wide(ts[i], ts[i]));
  };
  std::size_t v1 = first_short;
  std::size_t v2 = wide_less(norm2(first_short + 1), norm2(first_short - 1))
                       ? first_short + 1
                       : first_short - 1;
  // v1 and v2 differ in parity, so their second entries differ in sign;
  // order them so the first one's is negative.
  if (v1 % 2 == 0) std::swap(v1, v2);
  c.a1 = rs[v1];
  c.b1 = ts[v1];
  c.a2 = rs[v2];
  c.b2 = ts[v2];
  ZKDET_CHECK(wide_add(u256_mul_wide(c.a1, c.b2), u256_mul_wide(c.a2, c.b1)) ==
                  widen(r),
              "glv: the basis does not span the lattice");
  // glv_split's half-scalars are below 2 (a1 + a2) and 2 (b1 + b2).
  const U256 half_bound{0, std::uint64_t{1} << 63, 0, 0};  // 2^127
  U256 sum_a;
  U256 sum_b;
  u256_add(sum_a, c.a1, c.a2);
  u256_add(sum_b, c.b1, c.b2);
  static_assert(kGlvScalarBits == 128);
  ZKDET_CHECK(u256_less(sum_a, half_bound) && u256_less(sum_b, half_bound),
              "glv: basis too long for 128-bit half-scalars");
  c.g1 = div_wide(shifted(c.b2), r, nullptr);
  c.g2 = div_wide(shifted(c.b1), r, nullptr);
  return c;
}

const Constants& constants() {
  static const Constants c = derive();
  return c;
}

// |v| of a two's-complement value, and whether it was negative.
U256 magnitude(const U256& v, bool& negative) {
  negative = (v.limb[3] >> 63) != 0;
  if (!negative) return v;
  U256 out;
  u256_sub(out, U256{0}, v);
  return out;
}

}  // namespace

const Fp& glv_beta() { return constants().beta; }
const Fr& glv_lambda() { return constants().lambda; }

// Babai rounding against the short basis: c1 ~ k b2 / r and c2 ~ k b1 / r
// (the exact solution of (c1, c2) B = (k, 0)), then
//   k1 = k - c1 a1 - c2 a2,  k2 = c1 b1 - c2 b2.
// The multipliers g1, g2 make c1 and c2 floors that undershoot the exact
// quotients by d1, d2 in [0, 2), so k1 = d1 a1 + d2 a2 and
// k2 = d2 b2 - d1 b1: both below 2 (a1 + a2) and 2 (b1 + b2) < 2^128 in
// magnitude. They are computed mod 2^256 and read as two's complement.
GlvSplit glv_split(const U256& k) {
  const Constants& c = constants();
  const U256 c1 = high(u256_mul_wide(k, c.g1));
  const U256 c2 = high(u256_mul_wide(k, c.g2));
  U256 k1 = k;
  u256_sub(k1, k1, low(u256_mul_wide(c1, c.a1)));
  u256_sub(k1, k1, low(u256_mul_wide(c2, c.a2)));
  U256 k2 = low(u256_mul_wide(c1, c.b1));
  u256_sub(k2, k2, low(u256_mul_wide(c2, c.b2)));
  GlvSplit s;
  s.k1 = magnitude(k1, s.neg1);
  s.k2 = magnitude(k2, s.neg2);
  return s;
}

}  // namespace zkdet::ec
