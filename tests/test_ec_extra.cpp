#include <gtest/gtest.h>

#include <random>

#include "ec/msm.hpp"
#include "oracles/msm.hpp"

namespace zkdet::ec {
namespace {

using ff::Fr;
using ff::random_field;
using oracle::msm_naive;

TEST(FixedBase, G1MatchesGenericMul) {
  std::mt19937_64 rng(1);
  EXPECT_EQ(g1_mul_generator(Fr::zero()), G1::identity());
  EXPECT_EQ(g1_mul_generator(Fr::one()), G1::generator());
  for (int i = 0; i < 20; ++i) {
    const Fr k = random_field<Fr>(rng);
    EXPECT_EQ(g1_mul_generator(k), G1::generator().mul(k));
  }
}

TEST(FixedBase, G2MatchesGenericMul) {
  std::mt19937_64 rng(2);
  EXPECT_EQ(g2_mul_generator(Fr::zero()), G2::identity());
  EXPECT_EQ(g2_mul_generator(Fr::one()), G2::generator());
  for (int i = 0; i < 10; ++i) {
    const Fr k = random_field<Fr>(rng);
    EXPECT_EQ(g2_mul_generator(k), G2::generator().mul(k));
  }
}

TEST(FixedBase, ByteBoundaryScalars) {
  // scalars that exercise single window entries and carries
  for (const std::uint64_t v : {255ull, 256ull, 257ull, 65535ull, 65536ull}) {
    const Fr k = Fr::from_u64(v);
    EXPECT_EQ(g1_mul_generator(k), G1::generator().mul(k)) << v;
  }
}

TEST(MsmG2, MatchesNaiveSum) {
  std::mt19937_64 rng(3);
  for (const std::size_t n : {0u, 1u, 5u, 9u, 40u}) {
    std::vector<Fr> scalars(n);
    std::vector<G2> points(n);
    G2 expect = G2::identity();
    for (std::size_t i = 0; i < n; ++i) {
      scalars[i] = random_field<Fr>(rng);
      points[i] = G2::generator().mul(random_field<Fr>(rng));
      expect += points[i].mul(scalars[i]);
    }
    EXPECT_EQ(msm_g2(scalars, points), expect) << n;
  }
}

TEST(MsmG1, LargeRandomInstance) {
  std::mt19937_64 rng(4);
  const std::size_t n = 300;
  std::vector<Fr> scalars(n);
  std::vector<G1> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    scalars[i] = random_field<Fr>(rng);
    points[i] = g1_mul_generator(random_field<Fr>(rng));
  }
  EXPECT_EQ(msm(scalars, points), msm_naive(scalars, points));
}

TEST(MsmG1, LinearInScalars) {
  // msm(a + b, P) == msm(a, P) + msm(b, P)
  std::mt19937_64 rng(5);
  const std::size_t n = 20;
  std::vector<Fr> a(n), b(n), ab(n);
  std::vector<G1> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = random_field<Fr>(rng);
    b[i] = random_field<Fr>(rng);
    ab[i] = a[i] + b[i];
    points[i] = g1_mul_generator(random_field<Fr>(rng));
  }
  EXPECT_EQ(msm(ab, points), msm(a, points) + msm(b, points));
}

}  // namespace
}  // namespace zkdet::ec
