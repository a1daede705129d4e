#include <gtest/gtest.h>

#include <random>

#include "ec/curve.hpp"
#include "ec/msm.hpp"
#include "ec/pairing.hpp"
#include "oracles/msm.hpp"

namespace zkdet::ec {
namespace {

using ff::Fr;
using ff::random_field;
using oracle::msm_naive;

TEST(G1, GeneratorOnCurve) {
  EXPECT_TRUE(G1::generator().on_curve());
  EXPECT_TRUE(G1::identity().on_curve());
  EXPECT_TRUE(G1::identity().is_identity());
}

TEST(G1, GeneratorHasOrderR) {
  EXPECT_TRUE(G1::generator().mul(Fr::MOD).is_identity());
  EXPECT_FALSE(G1::generator().mul(ff::U256{12345}).is_identity());
}

TEST(G1, GroupLaws) {
  std::mt19937_64 rng(1);
  const G1 g = G1::generator();
  const G1 p = g.mul(random_field<Fr>(rng));
  const G1 q = g.mul(random_field<Fr>(rng));
  const G1 r = g.mul(random_field<Fr>(rng));
  EXPECT_EQ(p + q, q + p);
  EXPECT_EQ((p + q) + r, p + (q + r));
  EXPECT_EQ(p + G1::identity(), p);
  EXPECT_TRUE((p - p).is_identity());
  EXPECT_EQ(p.dbl(), p + p);
}

TEST(G1, ScalarMulLinearity) {
  std::mt19937_64 rng(2);
  const G1 g = G1::generator();
  const Fr a = random_field<Fr>(rng);
  const Fr b = random_field<Fr>(rng);
  EXPECT_EQ(g.mul(a + b), g.mul(a) + g.mul(b));
  EXPECT_EQ(g.mul(a * b), g.mul(a).mul(b));
  EXPECT_EQ(g.mul(Fr::zero()), G1::identity());
  EXPECT_EQ(g.mul(Fr::one()), g);
}

TEST(G1, AddMixedRepresentations) {
  // Same affine point through different Jacobian Z coordinates.
  const G1 g = G1::generator();
  const G1 doubled = g.dbl();         // non-trivial Z
  const G1 direct = g + g;
  EXPECT_EQ(doubled, direct);
  ff::Fp x1, y1, x2, y2;
  doubled.to_affine(x1, y1);
  direct.to_affine(x2, y2);
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(y1, y2);
}

TEST(G1, OnCurveRejectsGarbage) {
  const G1 bad = G1::from_affine(ff::Fp::from_u64(5), ff::Fp::from_u64(5));
  EXPECT_FALSE(bad.on_curve());
}

TEST(G1, SerializationStable) {
  const auto b1 = g1_to_bytes(G1Affine::generator());
  const auto b2 = g1_to_bytes(
      G1Affine::from_jacobian(G1::generator().dbl() - G1::generator()));
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(b1.size(), 64u);
  const auto id = g1_to_bytes(G1Affine::from_jacobian(G1::identity()));
  EXPECT_TRUE(std::all_of(id.begin(), id.end(), [](auto b) { return b == 0; }));
}

TEST(G2, GeneratorOnCurve) {
  EXPECT_TRUE(G2::generator().on_curve());
}

TEST(G2, GeneratorHasOrderR) {
  EXPECT_TRUE(G2::generator().mul(Fr::MOD).is_identity());
}

TEST(G2, GroupLaws) {
  std::mt19937_64 rng(3);
  const G2 g = G2::generator();
  const G2 p = g.mul(random_field<Fr>(rng));
  const G2 q = g.mul(random_field<Fr>(rng));
  EXPECT_EQ(p + q, q + p);
  EXPECT_EQ(p.dbl(), p + p);
  EXPECT_TRUE((p - p).is_identity());
  EXPECT_EQ(g2_to_bytes(g).size(), 128u);
}

TEST(Msm, MatchesNaive) {
  std::mt19937_64 rng(4);
  const G1 g = G1::generator();
  for (const std::size_t n : {0u, 1u, 2u, 7u, 8u, 33u, 100u}) {
    std::vector<Fr> scalars(n);
    std::vector<G1> points(n);
    for (std::size_t i = 0; i < n; ++i) {
      scalars[i] = random_field<Fr>(rng);
      points[i] = g.mul(random_field<Fr>(rng));
    }
    EXPECT_EQ(msm(scalars, points), msm_naive(scalars, points)) << n;
  }
}

TEST(Msm, HandlesZeroScalars) {
  const G1 g = G1::generator();
  std::vector<Fr> scalars(20, Fr::zero());
  std::vector<G1> points(20, g);
  EXPECT_TRUE(msm(scalars, points).is_identity());
  scalars[7] = Fr::from_u64(3);
  EXPECT_EQ(msm(scalars, points), g.mul(Fr::from_u64(3)));
}

TEST(Msm, HandlesIdentityPoints) {
  std::mt19937_64 rng(5);
  std::vector<Fr> scalars(10);
  std::vector<G1> points(10, G1::identity());
  for (auto& s : scalars) s = random_field<Fr>(rng);
  EXPECT_TRUE(msm(scalars, points).is_identity());
}

TEST(Pairing, Bilinearity) {
  std::mt19937_64 rng(6);
  const G1 g = G1::generator();
  const G2 h = G2::generator();
  const Fr a = random_field<Fr>(rng);
  const Fr b = random_field<Fr>(rng);
  const ff::Fp12 lhs = pairing(g.mul(a), h.mul(b));
  const ff::Fp12 rhs = pairing(g, h).pow((a * b).to_canonical());
  EXPECT_EQ(lhs, rhs);
}

TEST(Pairing, BilinearInEachSlot) {
  const G1 g = G1::generator();
  const G2 h = G2::generator();
  const Fr a = Fr::from_u64(5);
  EXPECT_EQ(pairing(g.mul(a), h), pairing(g, h.mul(a)));
  // e(P+Q, R) = e(P,R) e(Q,R)
  const G1 p = g.mul(Fr::from_u64(3));
  const G1 q = g.mul(Fr::from_u64(8));
  EXPECT_EQ(pairing(p + q, h), pairing(p, h) * pairing(q, h));
  // e(P, R+S) = e(P,R) e(P,S)
  const G2 r = h.mul(Fr::from_u64(3));
  const G2 s = h.mul(Fr::from_u64(8));
  EXPECT_EQ(pairing(p, r + s), pairing(p, r) * pairing(p, s));
}

TEST(Pairing, NonDegenerate) {
  const ff::Fp12 e = pairing(G1::generator(), G2::generator());
  EXPECT_FALSE(e.is_one());
  EXPECT_FALSE(e.is_zero());
  // e lies in the order-r subgroup: e^r == 1
  EXPECT_TRUE(e.pow(Fr::MOD).is_one());
}

TEST(Pairing, IdentityInputs) {
  EXPECT_TRUE(pairing(G1::identity(), G2::generator()).is_one());
  EXPECT_TRUE(pairing(G1::generator(), G2::identity()).is_one());
}

TEST(Pairing, ProductCheck) {
  std::mt19937_64 rng(7);
  const G1 g = G1::generator();
  const G2 h = G2::generator();
  const Fr a = random_field<Fr>(rng);
  const Fr b = random_field<Fr>(rng);
  // e(aG, bH) e(-(ab)G, H) == 1
  EXPECT_TRUE(pairing_product_is_one(g.mul(a), h.mul(b), -g.mul(a * b), h));
  // and a wrong product is caught
  EXPECT_FALSE(
      pairing_product_is_one(g.mul(a), h.mul(b), -g.mul(a * b + Fr::one()), h));
}

class PairingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairingSweep, ScalarCompatibility) {
  const Fr s = Fr::from_u64(GetParam());
  const G1 g = G1::generator();
  const G2 h = G2::generator();
  EXPECT_EQ(pairing(g.mul(s), h), pairing(g, h).pow(s.to_canonical()));
}

INSTANTIATE_TEST_SUITE_P(SmallScalars, PairingSweep,
                         ::testing::Values(1, 2, 3, 7, 65537));

}  // namespace
}  // namespace zkdet::ec
