#include <gtest/gtest.h>

#include <random>

#include "ff/fp12.hpp"
#include "oracles/tate.hpp"

namespace zkdet::ff {
namespace {

Fp2 random_fp2(std::mt19937_64& rng) {
  return Fp2{random_field<Fp>(rng), random_field<Fp>(rng)};
}

Fp6 random_fp6(std::mt19937_64& rng) {
  return Fp6{random_fp2(rng), random_fp2(rng), random_fp2(rng)};
}

Fp12 random_fp12(std::mt19937_64& rng) {
  return Fp12{random_fp6(rng), random_fp6(rng)};
}

// An element of the cyclotomic subgroup: the pairing's easy part
// f^((p^6 - 1)(p^2 + 1)) of a random f.
Fp12 random_cyclotomic(std::mt19937_64& rng) {
  const Fp12 f = random_fp12(rng);
  const Fp12 r = f.conjugate() * f.inverse();
  return r.frobenius(2) * r;
}

TEST(Fp2, FieldAxioms) {
  std::mt19937_64 rng(1);
  for (int i = 0; i < 50; ++i) {
    const Fp2 a = random_fp2(rng);
    const Fp2 b = random_fp2(rng);
    const Fp2 c = random_fp2(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.square(), a * a);
  }
}

TEST(Fp2, UnitSquaresToMinusOne) {
  const Fp2 u{Fp::zero(), Fp::one()};
  const Fp2 minus_one{-Fp::one(), Fp::zero()};
  EXPECT_EQ(u.square(), minus_one);
}

TEST(Fp2, Inverse) {
  std::mt19937_64 rng(2);
  for (int i = 0; i < 50; ++i) {
    const Fp2 a = random_fp2(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fp2::one());
  }
  EXPECT_TRUE(Fp2::zero().inverse().is_zero());
}

TEST(Fp2, ConjugateIsFrobenius) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 10; ++i) {
    const Fp2 a = random_fp2(rng);
    EXPECT_EQ(a.frobenius(), a.pow(Fp::MOD));
  }
}

TEST(Fp2, ConjugateMultiplicative) {
  std::mt19937_64 rng(4);
  const Fp2 a = random_fp2(rng);
  const Fp2 b = random_fp2(rng);
  EXPECT_EQ((a * b).conjugate(), a.conjugate() * b.conjugate());
}

TEST(Fp12, RingAxioms) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 20; ++i) {
    const Fp12 a = random_fp12(rng);
    const Fp12 b = random_fp12(rng);
    const Fp12 c = random_fp12(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * Fp12::one(), a);
  }
}

TEST(Fp12, Inverse) {
  std::mt19937_64 rng(6);
  for (int i = 0; i < 20; ++i) {
    const Fp12 a = random_fp12(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fp12::one());
  }
}

TEST(Fp12, FrobeniusIsPthPower) {
  std::mt19937_64 rng(7);
  const Fp12 a = random_fp12(rng);
  EXPECT_EQ(a.frobenius(1), a.pow(Fp::MOD));
}

TEST(Fp12, FrobeniusOrder12) {
  std::mt19937_64 rng(8);
  const Fp12 a = random_fp12(rng);
  EXPECT_EQ(a.frobenius(12), a);
  EXPECT_NE(a.frobenius(6), a);  // overwhelmingly likely for random a
}

TEST(Fp12, FrobeniusIsRingHomomorphism) {
  std::mt19937_64 rng(9);
  const Fp12 a = random_fp12(rng);
  const Fp12 b = random_fp12(rng);
  EXPECT_EQ((a * b).frobenius(1), a.frobenius(1) * b.frobenius(1));
  EXPECT_EQ((a + b).frobenius(1), a.frobenius(1) + b.frobenius(1));
}

TEST(Fp12, MulBy034MatchesFullMul) {
  std::mt19937_64 rng(10);
  for (int i = 0; i < 20; ++i) {
    const Fp12 a = random_fp12(rng);
    const Fp2 l0 = random_fp2(rng);
    const Fp2 l1 = random_fp2(rng);
    const Fp2 l3 = random_fp2(rng);
    Fp12 line;
    line.c0.c0 = l0;  // w^0
    line.c1.c0 = l1;  // w^1
    line.c1.c1 = l3;  // w^3 = v w
    EXPECT_EQ(a.mul_by_034(l0, l1, l3), a * line);
  }
}

TEST(Fp12, PowSmallExponents) {
  std::mt19937_64 rng(11);
  const Fp12 a = random_fp12(rng);
  EXPECT_EQ(a.pow(U256{0}), Fp12::one());
  EXPECT_EQ(a.pow(U256{1}), a);
  EXPECT_EQ(a.pow(U256{2}), a.square());
  EXPECT_EQ(a.pow(U256{3}), a * a * a);
}

TEST(Fp12, OraclePowBigMatchesU256) {
  std::mt19937_64 rng(12);
  const Fp12 a = random_fp12(rng);
  const U256 e{0xdeadbeef12345678ull, 0x42, 0, 0};
  EXPECT_EQ(a.pow(e), oracle::pow_big(a, oracle::BigUInt::from_u256(e)));
}

// --- the Fp2 -> Fp6 -> Fp12 tower ----------------------------------------

TEST(Fp6, FieldAxioms) {
  std::mt19937_64 rng(13);
  for (int i = 0; i < 20; ++i) {
    const Fp6 a = random_fp6(rng);
    const Fp6 b = random_fp6(rng);
    const Fp6 c = random_fp6(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * Fp6::one(), a);
    EXPECT_EQ(a.square(), a * a);
    EXPECT_EQ(a * a.inverse(), Fp6::one());
  }
  EXPECT_TRUE(Fp6::zero().inverse().is_zero());
}

TEST(Fp6, VCubedIsXi) {
  const Fp6 v{Fp2{}, Fp2::one(), Fp2{}};
  EXPECT_EQ(v * v * v, (Fp6{fp2_xi(), Fp2{}, Fp2{}}));
  std::mt19937_64 rng(14);
  const Fp6 a = random_fp6(rng);
  EXPECT_EQ(a.mul_by_v(), a * v);
}

TEST(Fp6, MulBy01MatchesFullMul) {
  std::mt19937_64 rng(15);
  for (int i = 0; i < 20; ++i) {
    const Fp6 a = random_fp6(rng);
    const Fp2 b0 = random_fp2(rng);
    const Fp2 b1 = random_fp2(rng);
    EXPECT_EQ(a.mul_by_01(b0, b1), (a * Fp6{b0, b1, Fp2{}}));
  }
}

TEST(Fp2, MulByXiMatchesMul) {
  std::mt19937_64 rng(16);
  for (int i = 0; i < 20; ++i) {
    const Fp2 a = random_fp2(rng);
    EXPECT_EQ(a.mul_by_xi(), a * fp2_xi());
  }
}

TEST(Fp12, WSquaredIsVAndWToTheSixIsXi) {
  const Fp12 w{Fp6{}, Fp6::one()};
  const Fp12 w2 = w * w;
  EXPECT_EQ(w2, (Fp12{Fp6{Fp2{}, Fp2::one(), Fp2{}}, Fp6{}}));
  EXPECT_EQ(w2 * w2 * w2, (Fp12{Fp6{fp2_xi(), Fp2{}, Fp2{}}, Fp6{}}));
}

TEST(Fp12, SquareMatchesMul) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 20; ++i) {
    const Fp12 a = random_fp12(rng);
    EXPECT_EQ(a.square(), a * a);
  }
}

TEST(Fp12, FrobeniusPowersCompose) {
  std::mt19937_64 rng(18);
  const Fp12 a = random_fp12(rng);
  Fp12 iterated = a;
  for (unsigned k = 1; k < 12; ++k) {
    iterated = iterated.frobenius(1);
    EXPECT_EQ(a.frobenius(k), iterated) << "k=" << k;
  }
  EXPECT_EQ(iterated.frobenius(1), a);  // order 12
  EXPECT_EQ(a.frobenius(6), a.conjugate());
}

TEST(Fp12, CyclotomicSquareMatchesSquareOnCyclotomicSubgroup) {
  std::mt19937_64 rng(19);
  for (int i = 0; i < 10; ++i) {
    const Fp12 x = random_cyclotomic(rng);
    // In the cyclotomic subgroup: x^(p^6) = x^-1.
    EXPECT_EQ(x * x.conjugate(), Fp12::one());
    EXPECT_EQ(x.cyclotomic_square(), x.square());
    EXPECT_EQ(x.cyclotomic_square().cyclotomic_square(), x.pow(U256{4}));
  }
  // Off the subgroup the shortcut does not hold: it is not a general square.
  const Fp12 y = random_fp12(rng);
  EXPECT_NE(y.cyclotomic_square(), y.square());
}

}  // namespace
}  // namespace zkdet::ff
