// The GLV endomorphism of G1 (ec/glv.hpp): the cube roots behind it, the
// identity phi(P) = lambda P it rests on, and the scalar split
// k = k1 + lambda k2 with |k1|, |k2| < 2^128 that the G1 MSM feeds its
// engine.
#include "ec/glv.hpp"

#include <gtest/gtest.h>

#include <random>

#include "ec/msm.hpp"  // g1_mul_generator

namespace zkdet::ec {
namespace {

using ff::Fp;
using ff::random_field;

TEST(Glv, CubeRootsOfUnity) {
  const Fp& beta = glv_beta();
  EXPECT_NE(beta, Fp::one());
  EXPECT_EQ(beta * beta * beta, Fp::one());
  const Fr& lambda = glv_lambda();
  EXPECT_NE(lambda, Fr::one());
  EXPECT_TRUE((lambda * lambda + lambda + Fr::one()).is_zero());
}

// phi(P) = (beta x, y), as the G1 MSM forms it; the identity stays.
G1 phi(const G1& p) {
  if (p.is_identity()) return p;
  const G1Affine a = batch_normalize(std::span<const G1>(&p, 1))[0];
  return G1::from_affine(glv_beta() * a.x, a.y);
}

TEST(Glv, EndomorphismIsLambdaMultiple) {
  const Fr& lambda = glv_lambda();
  EXPECT_EQ(phi(G1::generator()), G1::generator().mul(lambda));
  EXPECT_TRUE(phi(G1::identity()).is_identity());
  std::mt19937_64 rng(61);
  for (int i = 0; i < 20; ++i) {
    const G1 p = g1_mul_generator(random_field<Fr>(rng));
    EXPECT_EQ(phi(p), p.mul(lambda)) << i;
    EXPECT_TRUE(phi(p).on_curve()) << i;
  }
}

Fr signed_fr(const U256& magnitude, bool negative) {
  const Fr v = Fr::from_canonical(magnitude);
  return negative ? -v : v;
}

// k1 + lambda k2 == k (mod r), with both magnitudes below 2^128.
void expect_split(const Fr& k) {
  const U256 kc = k.to_canonical();
  const GlvSplit s = glv_split(kc);
  EXPECT_LT(s.k1.bit_length(), kGlvScalarBits + 1) << kc.limb[0];
  EXPECT_LT(s.k2.bit_length(), kGlvScalarBits + 1) << kc.limb[0];
  EXPECT_EQ(signed_fr(s.k1, s.neg1) + glv_lambda() * signed_fr(s.k2, s.neg2),
            k)
      << u256_to_hex(kc);
}

Fr pow2(std::size_t e) { return Fr::from_u64(2).pow(U256{e}); }

TEST(Glv, SplitRecomposesWithinBound) {
  const Fr& lambda = glv_lambda();
  const Fr edges[] = {Fr::zero(), Fr::one(), -Fr::one(), lambda,
                      -lambda,    pow2(127), pow2(128)};
  for (const Fr& k : edges) expect_split(k);
  std::mt19937_64 rng(62);
  for (int i = 0; i < 20000; ++i) {
    expect_split(random_field<Fr>(rng));
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace zkdet::ec
