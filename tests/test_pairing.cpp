// Optimal ate pairing beyond the bilinearity tests in test_curve.cpp:
// prepared vs unprepared agreement, and differential checks against the
// test-only Tate oracle (tests/oracles/tate.hpp) and the [r]Q subgroup
// check.
#include <gtest/gtest.h>

#include <random>

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "curve_attack_helpers.hpp"
#include "ec/pairing.hpp"
#include "oracles/tate.hpp"

namespace zkdet::ec {
namespace {

using ff::Fp;
using ff::Fp12;
using ff::Fp2;
using ff::random_field;

TEST(BnParameter, GeneratesBothModuli) {
  // p = 36x^4 + 36x^3 + 24x^2 + 6x + 1, r = 36x^4 + 36x^3 + 18x^2 + 6x + 1,
  // checked in Fp and Fr arithmetic: both must vanish.
  const auto poly = [](auto x, std::uint64_t c2) {
    using F = decltype(x);
    const F x2 = x * x;
    return F::from_u64(36) * x2 * x2 + F::from_u64(36) * x2 * x +
           F::from_u64(c2) * x2 + F::from_u64(6) * x + F::one();
  };
  EXPECT_TRUE(poly(Fp::from_u64(ff::kBnX), 24).is_zero());
  EXPECT_TRUE(poly(Fr::from_u64(ff::kBnX), 18).is_zero());
}

TEST(Pairing, PreparedMatchesUnprepared) {
  std::mt19937_64 rng(23);
  const G1 p1 = G1::generator().mul(random_field<Fr>(rng));
  const G1 p2 = G1::generator().mul(random_field<Fr>(rng));
  const G2 q1 = G2::generator().mul(random_field<Fr>(rng));
  const G2 q2 = G2::generator().mul(random_field<Fr>(rng));
  const G2Prepared pq1(q1);
  const G2Prepared pq2(q2);
  EXPECT_EQ(pq1.point(), q1);
  const PreparedPair one[1] = {{p1, &pq1}};
  EXPECT_EQ(miller_loop(one), miller_loop(p1, q1));
  // The multi-pair loop shares one accumulator: same value as the product
  // of single loops.
  const PreparedPair both[2] = {{p1, &pq1}, {p2, &pq2}};
  EXPECT_EQ(miller_loop(both), miller_loop(p1, q1) * miller_loop(p2, q2));
  EXPECT_EQ(final_exponentiation(miller_loop(both)),
            pairing(p1, q1) * pairing(p2, q2));
  // Identity terms contribute 1.
  const G2Prepared pid(G2::identity());
  EXPECT_TRUE(pid.lines().empty());
  const PreparedPair with_ids[3] = {
      {p1, &pq1}, {G1::identity(), &pq2}, {p2, &pid}};
  EXPECT_EQ(miller_loop(with_ids), miller_loop(p1, q1));
}

TEST(Pairing, TryPrepareRejectsInvalidPoints) {
  EXPECT_TRUE(G2Prepared::try_prepare(G2::generator()).has_value());
  EXPECT_TRUE(G2Prepared::try_prepare(G2::identity()).has_value());
  EXPECT_FALSE(G2Prepared::try_prepare(test::off_curve_g2()).has_value());
  EXPECT_FALSE(G2Prepared::try_prepare(test::wrong_subgroup_g2()).has_value());
  check::ScopedThrowHandler guard;
  EXPECT_THROW(G2Prepared{test::wrong_subgroup_g2()}, check::CheckFailure);
}

TEST(Pairing, FinalExponentiationIsAFixedPowerOfTheTateOne) {
  // The hard-part chain computes f^(m (p^12 - 1) / r) with
  // m = 2x(6x^2 + 3x + 1) < 2^191, coprime to r.
  const unsigned __int128 x = ff::kBnX;
  const unsigned __int128 inner = 6 * x * x + 3 * x + 1;  // < 2^127
  // m = 2x * inner as a U256: 64x128-bit schoolbook.
  const std::uint64_t two_x_lo = static_cast<std::uint64_t>(2 * x);
  const std::uint64_t two_x_hi = static_cast<std::uint64_t>((2 * x) >> 64);
  ASSERT_EQ(two_x_hi, 0u);
  const unsigned __int128 lo =
      static_cast<unsigned __int128>(two_x_lo) * static_cast<std::uint64_t>(inner);
  const unsigned __int128 hi =
      static_cast<unsigned __int128>(two_x_lo) *
          static_cast<std::uint64_t>(inner >> 64) +
      (lo >> 64);
  const U256 m{static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi),
               static_cast<std::uint64_t>(hi >> 64), 0};
  std::mt19937_64 rng(24);
  Fp12 f;
  f.c0.c0 = Fp2{random_field<Fp>(rng), random_field<Fp>(rng)};
  f.c0.c2 = Fp2{random_field<Fp>(rng), random_field<Fp>(rng)};
  f.c1.c1 = Fp2{random_field<Fp>(rng), random_field<Fp>(rng)};
  EXPECT_EQ(final_exponentiation(f),
            oracle::tate_final_exponentiation(f).pow(m));
}

// Random true and perturbed product relations: the optimal ate verdict
// must equal the Tate oracle's.
TEST(PairingDifferential, ProductVerdictsMatchTateOracle) {
  std::mt19937_64 rng(25);
  const G1 g = G1::generator();
  const G2 h = G2::generator();
  for (int i = 0; i < 4; ++i) {
    const Fr a = random_field<Fr>(rng);
    const Fr b = random_field<Fr>(rng);
    const Fr c = random_field<Fr>(rng);
    const Fr d = random_field<Fr>(rng);
    // e(aG, bH) e(cG, dH) e(-(ab + cd)G, H) == 1, and three perturbations.
    const std::vector<std::vector<std::pair<G1, G2>>> relations = {
        {{g.mul(a), h.mul(b)}, {g.mul(c), h.mul(d)}, {-g.mul(a * b + c * d), h}},
        {{g.mul(a), h.mul(b)}, {g.mul(c), h.mul(d)},
         {-g.mul(a * b + c * d + Fr::one()), h}},
        {{g.mul(a), h.mul(d)}, {g.mul(c), h.mul(b)}, {-g.mul(a * b + c * d), h}},
        {{g.mul(a), h.mul(b)}, {-g.mul(a * b), h}},
    };
    const bool expected[] = {true, false, false, true};
    for (std::size_t k = 0; k < relations.size(); ++k) {
      const bool fast = pairing_product_is_one(relations[k]);
      EXPECT_EQ(fast, expected[k]) << "relation " << k;
      EXPECT_EQ(fast, oracle::tate_product_is_one(relations[k]))
          << "relation " << k;
    }
  }
}

// The BN endomorphism subgroup test psi(Q) == [6x^2]Q against the
// defining test [r]Q == O.
TEST(G2Subgroup, EndomorphismCheckMatchesOrderCheck) {
  std::mt19937_64 rng(26);
  const G2 h = G2::generator();
  for (int i = 0; i < 5; ++i) {
    const G2 q = h.mul(random_field<Fr>(rng));
    EXPECT_TRUE(oracle::in_g2_subgroup_by_order(q));
    EXPECT_TRUE(check::in_g2_subgroup(q));
  }
  EXPECT_TRUE(check::in_g2_subgroup(G2::identity()));
  const G2 rogue = test::wrong_subgroup_g2();
  EXPECT_FALSE(oracle::in_g2_subgroup_by_order(rogue));
  EXPECT_FALSE(check::in_g2_subgroup(rogue));
  // Random twist points: overwhelmingly outside G2, and so are their sums
  // with subgroup points. Both tests must agree on every one.
  int tested = 0;
  for (int i = 0; i < 40 && tested < 12; ++i) {
    const Fp2 x{random_field<Fp>(rng), random_field<Fp>(rng)};
    Fp2 y;
    if (!test::fp2_sqrt(x.square() * x + G2Traits::b(), y)) continue;
    const G2 p = G2::from_affine(x, y);
    ASSERT_TRUE(p.on_curve());
    ++tested;
    EXPECT_EQ(check::in_g2_subgroup(p), oracle::in_g2_subgroup_by_order(p));
    EXPECT_FALSE(check::in_g2_subgroup(p));
    const G2 mixed = p + h.mul(random_field<Fr>(rng));
    EXPECT_EQ(check::in_g2_subgroup(mixed),
              oracle::in_g2_subgroup_by_order(mixed));
  }
  EXPECT_GE(tested, 6);
}

TEST(G2Subgroup, PsiActsAsMultiplicationByP) {
  std::mt19937_64 rng(27);
  const G2 q = G2::generator().mul(random_field<Fr>(rng));
  // psi == [p] on G2, so psi^12 == [p^12] == [1] there.
  EXPECT_EQ(g2_psi(q), q.mul(Fp::MOD));
  G2 t = q;
  for (int i = 0; i < 12; ++i) t = g2_psi(t);
  EXPECT_EQ(t, q);
}

}  // namespace
}  // namespace zkdet::ec
