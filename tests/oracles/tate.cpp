#include "oracles/tate.hpp"

#include "check/check.hpp"

namespace zkdet::oracle {

using ff::Fp;
using ff::Fp2;
using ff::Fr;

namespace {

struct AffineG1 {
  Fp x;
  Fp y;
};

// Line through T with slope lambda, evaluated at the untwisted
// Q = (xq w^2, yq w^3): (lambda x_t - y_t) - lambda xq w^2 + yq w^3.
Fp12 line_at(const Fp& lambda, const AffineG1& t, const Fp2& xq,
             const Fp2& yq) {
  Fp12 l;
  l.c0.c0 = Fp2{lambda * t.x - t.y, Fp::zero()};  // w^0
  l.c0.c1 = xq.scale(-lambda);                    // w^2 = v
  l.c1.c1 = yq;                                   // w^3 = v w
  return l;
}

}  // namespace

const BigUInt& tate_final_exponent() {
  static const BigUInt e = [] {
    BigUInt acc = BigUInt::from_u64(1);
    for (int i = 0; i < 12; ++i) acc.mul_u256(Fp::MOD);
    acc.sub_u64(1);
    U256 rem{};
    BigUInt q = bigint_div_u256(acc, Fr::MOD, &rem);
    ZKDET_CHECK(rem.is_zero(), "r must divide p^12 - 1");
    return q;
  }();
  return e;
}

Fp12 pow_big(const Fp12& x, const BigUInt& e) {
  Fp12 result = Fp12::one();
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = result.square();
    if (e.bit(i)) result *= x;
  }
  return result;
}

bool in_g2_subgroup_by_order(const G2& q) {
  return q.mul(Fr::MOD).is_identity();
}

Fp12 tate_miller_loop(const G1& p, const G2& q) {
  ZKDET_CHECK(p.on_curve(), "tate_miller_loop: G1 input not on the curve");
  ZKDET_CHECK(q.on_curve() && in_g2_subgroup_by_order(q),
              "tate_miller_loop: G2 input not in G2");
  if (p.is_identity() || q.is_identity()) return Fp12::one();
  AffineG1 pa;
  p.to_affine(pa.x, pa.y);
  Fp2 xq, yq;
  q.to_affine(xq, yq);

  const U256 r = Fr::MOD;
  Fp12 f = Fp12::one();
  AffineG1 t = pa;
  bool t_is_identity = false;
  for (std::size_t i = r.bit_length() - 1; i-- > 0;) {
    f = f.square();
    if (t_is_identity) continue;
    // doubling line at t: lambda = 3 x^2 / 2y
    const Fp lambda = (t.x.square() * Fp::from_u64(3)) * (t.y.dbl()).inverse();
    f *= line_at(lambda, t, xq, yq);
    const Fp x3 = lambda.square() - t.x.dbl();
    t = {x3, lambda * (t.x - x3) - t.y};
    if (!r.bit(i)) continue;
    if (t.x == pa.x && t.y == -pa.y) {
      // vertical line (t = -P): lies in Fp6, killed by the final
      // exponentiation; the sum is the identity.
      t_is_identity = true;
    } else {
      ZKDET_CHECK(!(t.x == pa.x && t.y == pa.y),
                  "unexpected doubling in Miller addition step");
      const Fp lambda_add = (pa.y - t.y) * (pa.x - t.x).inverse();
      f *= line_at(lambda_add, t, xq, yq);
      const Fp x3a = lambda_add.square() - t.x - pa.x;
      t = {x3a, lambda_add * (t.x - x3a) - t.y};
    }
  }
  ZKDET_CHECK(t_is_identity, "Miller loop must land on the identity (ord P = r)");
  return f;
}

Fp12 tate_final_exponentiation(const Fp12& f) {
  return pow_big(f, tate_final_exponent());
}

Fp12 tate_pairing(const G1& p, const G2& q) {
  return tate_final_exponentiation(tate_miller_loop(p, q));
}

bool tate_product_is_one(std::span<const std::pair<G1, G2>> pairs) {
  Fp12 f = Fp12::one();
  for (const auto& [p, q] : pairs) f *= tate_miller_loop(p, q);
  return tate_final_exponentiation(f).is_one();
}

}  // namespace zkdet::oracle
