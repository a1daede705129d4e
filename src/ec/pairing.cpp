#include "ec/pairing.hpp"

#include "check/check.hpp"
#include "check/invariants.hpp"

namespace zkdet::ec {

using ff::Fp;
using ff::Fp2;

namespace {

// Signed binary digits (non-adjacent form) of k, least significant first.
std::vector<int> naf(unsigned __int128 k) {
  std::vector<int> digits;
  while (k != 0) {
    int d = 0;
    if ((k & 1) != 0) {
      d = (k & 3) == 1 ? 1 : -1;
      if (d == 1) {
        k -= 1;
      } else {
        k += 1;
      }
    }
    digits.push_back(d);
    k >>= 1;
  }
  return digits;
}

// NAF of 6x + 2 (66 digits, 22 of them nonzero).
const std::vector<int>& ate_loop_naf() {
  static const std::vector<int> digits =
      naf(static_cast<unsigned __int128>(ff::kBnX) * 6 + 2);
  return digits;
}

const std::vector<int>& x_naf() {
  static const std::vector<int> digits = naf(ff::kBnX);
  return digits;
}

const Fp& two_inv() {
  static const Fp v = Fp::from_u64(2).inverse();
  return v;
}

// Homogeneous projective point on the twist: (x, y) = (X/Z, Y/Z).
struct ProjG2 {
  Fp2 X, Y, Z;
};

using Line = G2Prepared::Line;

// T <- 2T and the tangent line at T (Costello-Lange-Naehrig, in the
// form of Aranha et al. 2011 for a D-type twist), scaled by -2YZ:
//   -2YZ yP + 3X^2 xP w + (3b'Z^2 - Y^2) w^3.
Line doubling_step(ProjG2& t) {
  const Fp2 a = (t.X * t.Y).scale(two_inv());
  const Fp2 b = t.Y.square();
  const Fp2 c = t.Z.square();
  const Fp2 e = G2Traits::b() * (c + c + c);
  const Fp2 f = e + e + e;
  const Fp2 g = (b + f).scale(two_inv());
  const Fp2 h = (t.Y + t.Z).square() - (b + c);
  const Fp2 j = t.X.square();
  const Fp2 e2 = e.square();
  t.X = a * (b - f);
  t.Y = g.square() - (e2 + e2 + e2);
  t.Z = b * h;
  return {-h, j + j + j, e - b};
}

// T <- T + (qx, qy) and the line through both, scaled by
// lambda = X - qx Z: lambda yP - theta xP w + (theta qx - lambda qy) w^3.
Line addition_step(ProjG2& t, const Fp2& qx, const Fp2& qy) {
  const Fp2 theta = t.Y - qy * t.Z;
  const Fp2 lambda = t.X - qx * t.Z;
  const Fp2 c = theta.square();
  const Fp2 d = lambda.square();
  const Fp2 e = lambda * d;
  const Fp2 f = t.Z * c;
  const Fp2 g = t.X * d;
  const Fp2 h = e + f - (g + g);
  t.X = lambda * h;
  t.Y = theta * (g - h) - e * t.Y;
  t.Z = t.Z * e;
  return {lambda, -theta, theta * qx - lambda * qy};
}

const G2& validated(const G2& q) {
  // Always-on: bilinearity only holds on the order-r subgroup, so an
  // off-curve or wrong-subgroup point must be rejected, not paired.
  ZKDET_CHECK(check::on_g2_curve(q), "G2 pairing input not on the twist");
  ZKDET_CHECK(check::in_g2_subgroup(q),
              "G2 pairing input outside the order-r subgroup");
  return q;
}

// f^x on the cyclotomic subgroup, over the signed digits of x
// (conjugation is the inverse there).
Fp12 cyclotomic_exp_by_x(const Fp12& f) {
  const auto& digits = x_naf();
  const Fp12 f_inv = f.conjugate();
  Fp12 r = f;  // the top NAF digit is 1
  for (std::size_t i = digits.size() - 1; i-- > 0;) {
    r = r.cyclotomic_square();
    if (digits[i] == 1) r *= f;
    if (digits[i] == -1) r *= f_inv;
  }
  return r;
}

Fp12 exp_by_neg_x(const Fp12& f) { return cyclotomic_exp_by_x(f).conjugate(); }

}  // namespace

G2Prepared::G2Prepared(const G2& q) : G2Prepared(validated(q), Validated{}) {}

std::optional<G2Prepared> G2Prepared::try_prepare(const G2& q) {
  if (!check::in_g2(q)) return std::nullopt;
  return G2Prepared(q, Validated{});
}

G2Prepared::G2Prepared(const G2& q, Validated) : point_(q) {
  if (q.is_identity()) return;
  Fp2 qx, qy;
  q.to_affine(qx, qy);
  const Fp2 neg_qy = -qy;
  const auto& digits = ate_loop_naf();
  lines_.reserve(digits.size() + 24);
  ProjG2 t{qx, qy, Fp2::one()};
  for (std::size_t i = digits.size() - 1; i-- > 0;) {
    lines_.push_back(doubling_step(t));
    if (digits[i] == 1) lines_.push_back(addition_step(t, qx, qy));
    if (digits[i] == -1) lines_.push_back(addition_step(t, qx, neg_qy));
  }
  // T = [6x+2]Q; finish with T + pi(Q) and then - pi^2(Q). psi keeps an
  // affine point's Z = 1, so X, Y are the affine coordinates.
  const G2 q1 = g2_psi(G2::from_affine(qx, qy));
  const G2 q2 = -g2_psi(q1);
  lines_.push_back(addition_step(t, q1.X, q1.Y));
  lines_.push_back(addition_step(t, q2.X, q2.Y));
}

Fp12 miller_loop(std::span<const PreparedPair> pairs) {
  std::vector<G1> ps;
  std::vector<const G2Prepared*> qs;
  for (const auto& [p, q] : pairs) {
    ZKDET_CHECK(q != nullptr, "miller_loop: null prepared G2 point");
    ZKDET_CHECK(check::in_g1(p), "miller_loop: G1 input not on the curve");
    if (p.is_identity() || q->lines().empty()) continue;
    ps.push_back(p);
    qs.push_back(q);
  }
  // Affine G1 coordinates for all pairs with one shared inversion.
  const std::vector<G1Affine> aff = batch_normalize(ps);

  Fp12 f = Fp12::one();
  std::size_t line = 0;
  const auto step = [&] {
    for (std::size_t k = 0; k < qs.size(); ++k) {
      const Line& l = qs[k]->lines()[line];
      f = f.mul_by_034(l.a.scale(aff[k].y), l.b.scale(aff[k].x), l.c);
    }
    ++line;
  };
  const auto& digits = ate_loop_naf();
  for (std::size_t i = digits.size() - 1; i-- > 0;) {
    if (i + 2 != digits.size()) f = f.square();  // f == 1 on the first step
    step();
    if (digits[i] != 0) step();
  }
  step();  // pi(Q)
  step();  // -pi^2(Q)
  ZKDET_DCHECK(qs.empty() || line == qs.front()->lines().size(),
               "Miller loop consumed a different number of lines");
  return f;
}

Fp12 miller_loop(const G1& p, const G2& q) {
  const G2Prepared prepared(q);
  const PreparedPair pair{p, &prepared};
  return miller_loop(std::span<const PreparedPair>(&pair, 1));
}

Fp12 final_exponentiation(const Fp12& f) {
  // Easy part: r = f^((p^6 - 1)(p^2 + 1)), after which r lies in the
  // cyclotomic subgroup.
  Fp12 r = f.conjugate() * f.inverse();
  r = r.frobenius(2) * r;

  // Hard part (Fuentes-Castaneda, Knapp, Rodriguez-Henriquez 2011):
  // r^(l0 + l1 p + l2 p^2 + l3 p^3) with
  //   l0 = 12x^3 + 12x^2 + 6x + 1,  l1 = 12x^3 + 6x^2 + 4x,
  //   l2 = 12x^3 + 6x^2 + 6x,       l3 = 12x^3 + 6x^2 + 4x - 1,
  // which equals r^(2x(6x^2 + 3x + 1) (p^4 - p^2 + 1) / r).
  const Fp12 y0 = exp_by_neg_x(r);                   // r^-x
  const Fp12 y1 = y0.cyclotomic_square();            // r^-2x
  const Fp12 y2 = y1.cyclotomic_square();            // r^-4x
  const Fp12 y3 = y2 * y1;                           // r^-6x
  const Fp12 y4 = exp_by_neg_x(y3);                  // r^6x^2
  const Fp12 y5 = y4.cyclotomic_square();            // r^12x^2
  const Fp12 y6 = exp_by_neg_x(y5).conjugate();      // r^12x^3
  const Fp12 y7 = y6 * y4;                           // r^(12x^3 + 6x^2)
  const Fp12 y8 = y7 * y3.conjugate();               // r^(12x^3 + 6x^2 + 6x)  = l2
  const Fp12 y9 = y8 * y1;                           // r^(12x^3 + 6x^2 + 4x)  = l1
  const Fp12 y10 = y8 * y4;                          // r^(12x^3 + 12x^2 + 6x)
  const Fp12 y11 = y10 * r;                          // r^l0
  const Fp12 y13 = y9.frobenius(1) * y11;            // r^(l0 + l1 p)
  const Fp12 y14 = y8.frobenius(2) * y13;            // ... + l2 p^2
  const Fp12 y15 = (r.conjugate() * y9).frobenius(3);  // r^(l3 p^3)
  return y15 * y14;
}

Fp12 pairing(const G1& p, const G2& q) {
  return final_exponentiation(miller_loop(p, q));
}

bool pairing_product_is_one(std::span<const PreparedPair> pairs) {
  return final_exponentiation(miller_loop(pairs)).is_one();
}

bool pairing_product_is_one(std::span<const std::pair<G1, G2>> pairs) {
  std::vector<G2Prepared> prepared;
  prepared.reserve(pairs.size());
  for (const auto& pq : pairs) prepared.emplace_back(pq.second);
  std::vector<PreparedPair> terms;
  terms.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    terms.emplace_back(pairs[i].first, &prepared[i]);
  }
  return pairing_product_is_one(terms);
}

bool pairing_product_is_one(const G1& a1, const G2& a2, const G1& b1,
                            const G2& b2) {
  const std::pair<G1, G2> pairs[2] = {{a1, a2}, {b1, b2}};
  return pairing_product_is_one(pairs);
}

}  // namespace zkdet::ec
