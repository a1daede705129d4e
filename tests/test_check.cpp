#include <gtest/gtest.h>

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "curve_attack_helpers.hpp"
#include "ec/curve.hpp"
#include "ff/bn254.hpp"
#include "ff/fp12.hpp"

namespace zkdet {
namespace {

using check::CheckFailure;
using check::ScopedThrowHandler;
using ec::G1;
using ec::G2;
using ff::Fp;
using ff::Fp2;
using ff::Fp12;
using ff::Fr;
using ff::U256;

// --- macro tiers --------------------------------------------------------

TEST(CheckMacros, PassingCheckIsSilent) {
  ScopedThrowHandler guard;
  EXPECT_NO_THROW(ZKDET_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(ZKDET_CHECK(true, "message is not evaluated"));
}

TEST(CheckMacros, FailingCheckRoutesToHandler) {
  ScopedThrowHandler guard;
  EXPECT_THROW(ZKDET_CHECK(false), CheckFailure);
}

TEST(CheckMacros, FailureReportCarriesExpressionAndMessage) {
  ScopedThrowHandler guard;
  try {
    ZKDET_CHECK(2 + 2 == 5, "orwell was ", 42, " percent right");
    FAIL() << "check did not fire";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("orwell was 42 percent right"), std::string::npos)
        << what;
  }
}

TEST(CheckMacros, MessageArgumentsOnlyEvaluatedOnFailure) {
  ScopedThrowHandler guard;
  int evals = 0;
  const auto count = [&evals] {
    ++evals;
    return "x";
  };
  ZKDET_CHECK(true, count());
  EXPECT_EQ(evals, 0);
  EXPECT_THROW(ZKDET_CHECK(false, count()), CheckFailure);
  EXPECT_EQ(evals, 1);
}

TEST(CheckMacros, AssertTierMatchesBuildConfig) {
  ScopedThrowHandler guard;
#ifdef ZKDET_CHECKED
  EXPECT_THROW(ZKDET_ASSERT(false), CheckFailure);
#else
  // Disabled tier: the condition must not be evaluated at all.
  bool evaluated = false;
  const auto probe = [&evaluated] {
    evaluated = true;
    return false;
  };
  EXPECT_NO_THROW(ZKDET_ASSERT(probe()));
  EXPECT_FALSE(evaluated);
#endif
}

TEST(CheckMacros, DcheckActiveInDebugOrCheckedBuilds) {
  ScopedThrowHandler guard;
#if defined(ZKDET_CHECKED) || !defined(NDEBUG)
  EXPECT_THROW(ZKDET_DCHECK(false), CheckFailure);
#else
  EXPECT_NO_THROW(ZKDET_DCHECK(false));
#endif
}

TEST(CheckMacros, HandlerIsRestoredAfterScope) {
  const auto before = check::set_failure_handler(nullptr);  // default
  check::set_failure_handler(before);
  {
    ScopedThrowHandler guard;
    EXPECT_THROW(ZKDET_CHECK(false), CheckFailure);
  }
  const auto after = check::set_failure_handler(nullptr);
  check::set_failure_handler(after);
  EXPECT_EQ(before, after);
}

// --- field canonicality -------------------------------------------------

TEST(Invariants, CanonicalFieldElements) {
  EXPECT_TRUE(check::is_canonical(Fr::zero()));
  EXPECT_TRUE(check::is_canonical(Fr::one()));
  EXPECT_TRUE(check::is_canonical(-Fr::one()));
  EXPECT_TRUE(check::is_canonical(Fp::from_dec("12345678901234567890")));
}

TEST(Invariants, NonCanonicalMontgomeryValueDetected) {
  // from_raw trusts the caller; the modulus itself is the smallest
  // out-of-range representation.
  const Fr bad = Fr::from_raw(Fr::MOD);
  EXPECT_FALSE(check::is_canonical(bad));
  U256 above = Fr::MOD;
  ff::u256_add(above, above, U256{7});
  EXPECT_FALSE(check::is_canonical(Fr::from_raw(above)));
}

TEST(Invariants, TowerConsistency) {
  EXPECT_TRUE(check::is_canonical(Fp2::one()));
  EXPECT_TRUE(check::is_canonical(Fp12::one()));
  const Fp bad = Fp::from_raw(Fp::MOD);
  EXPECT_FALSE(check::is_canonical(Fp2{bad, Fp::zero()}));
  Fp12 x = Fp12::one();
  x.c1.c2 = Fp2{Fp::zero(), bad};
  EXPECT_FALSE(check::is_canonical(x));
}

TEST(Invariants, AllCanonicalSpans) {
  const std::vector<Fr> good = {Fr::one(), Fr::from_u64(9)};
  EXPECT_TRUE(check::all_canonical(std::span<const Fr>(good)));
  const std::vector<Fr> mixed = {Fr::one(), Fr::from_raw(Fr::MOD)};
  EXPECT_FALSE(check::all_canonical(std::span<const Fr>(mixed)));
}

// --- curve membership ---------------------------------------------------

TEST(Invariants, GroupMembershipAcceptsHonestPoints) {
  EXPECT_TRUE(check::in_g1(G1::identity()));
  EXPECT_TRUE(check::in_g1(G1::generator()));
  EXPECT_TRUE(check::in_g1(G1::generator().mul(Fr::from_u64(123456))));
  EXPECT_TRUE(check::in_g2(G2::identity()));
  EXPECT_TRUE(check::in_g2(G2::generator()));
  EXPECT_TRUE(check::in_g2(G2::generator().dbl()));
}

TEST(Invariants, OffCurvePointsDetected) {
  EXPECT_FALSE(check::in_g1(test::off_curve_g1()));
  EXPECT_FALSE(check::on_g2_curve(test::off_curve_g2()));
  EXPECT_FALSE(check::in_g2(test::off_curve_g2()));
}

TEST(Invariants, WrongSubgroupG2Detected) {
  const G2 rogue = test::wrong_subgroup_g2();
  ASSERT_FALSE(rogue.is_identity()) << "helper failed to build a twist point";
  EXPECT_TRUE(check::on_g2_curve(rogue));
  EXPECT_FALSE(check::in_g2_subgroup(rogue));
  EXPECT_FALSE(check::in_g2(rogue));
}

// --- NTT domains --------------------------------------------------------

TEST(Invariants, NttDomainPreconditions) {
  EXPECT_TRUE(check::valid_ntt_domain(1));
  EXPECT_TRUE(check::valid_ntt_domain(2));
  EXPECT_TRUE(check::valid_ntt_domain(1u << 20));
  EXPECT_TRUE(check::valid_ntt_domain(std::size_t{1} << Fr::TWO_ADICITY));
  EXPECT_FALSE(check::valid_ntt_domain(0));
  EXPECT_FALSE(check::valid_ntt_domain(3));
  EXPECT_FALSE(check::valid_ntt_domain(6));
  EXPECT_FALSE(check::valid_ntt_domain(std::size_t{1} << (Fr::TWO_ADICITY + 1)));
}

// --- Plonk permutation --------------------------------------------------

TEST(Invariants, PermutationAudit) {
  const std::vector<std::uint32_t> id = {0, 1, 2, 3, 4, 5};
  EXPECT_TRUE(
      check::is_permutation(std::span<const std::uint32_t>(id), id.size()));
  const std::vector<std::uint32_t> rot = {1, 2, 0};
  EXPECT_TRUE(
      check::is_permutation(std::span<const std::uint32_t>(rot), rot.size()));
  const std::vector<std::uint32_t> dup = {0, 1, 1};
  EXPECT_FALSE(
      check::is_permutation(std::span<const std::uint32_t>(dup), dup.size()));
  const std::vector<std::uint32_t> oob = {0, 1, 3};
  EXPECT_FALSE(
      check::is_permutation(std::span<const std::uint32_t>(oob), oob.size()));
  const std::vector<std::uint32_t> short_sigma = {0, 1};
  EXPECT_FALSE(check::is_permutation(std::span<const std::uint32_t>(short_sigma),
                                     3));
}

TEST(Invariants, GrandProductClosing) {
  EXPECT_TRUE(check::grand_product_closes(Fr::one()));
  EXPECT_FALSE(check::grand_product_closes(Fr::from_u64(2)));
}

}  // namespace
}  // namespace zkdet
