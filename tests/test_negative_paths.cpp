// Negative-path coverage for the soundness-critical entry points: an
// off-curve or wrong-subgroup point fed to the pairing, batch
// verification, or proof deserialization must be rejected
// deterministically — never silently folded into an unsound result.
// These tests pass identically under checked and unchecked builds:
// every rejection below rides on an always-on ZKDET_CHECK or an
// explicit nullopt/false path.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "curve_attack_helpers.hpp"
#include "ec/pairing.hpp"
#include "plonk/plonk.hpp"

namespace zkdet {
namespace {

using check::CheckFailure;
using check::ScopedThrowHandler;
using crypto::Drbg;
using ec::G1;
using ec::G2;
using ff::Fr;
using plonk::BatchEntry;
using plonk::ConstraintSystem;
using plonk::Proof;
using plonk::Srs;
using plonk::Var;

// --- pairing ------------------------------------------------------------

TEST(PairingNegative, OffCurveG1Rejected) {
  ScopedThrowHandler guard;
  EXPECT_THROW((void)ec::pairing(test::off_curve_g1(), G2::generator()),
               CheckFailure);
  EXPECT_THROW((void)ec::miller_loop(test::off_curve_g1(), G2::generator()),
               CheckFailure);
}

TEST(PairingNegative, OffCurveG2Rejected) {
  ScopedThrowHandler guard;
  EXPECT_THROW((void)ec::pairing(G1::generator(), test::off_curve_g2()),
               CheckFailure);
}

TEST(PairingNegative, WrongSubgroupG2Rejected) {
  ScopedThrowHandler guard;
  const G2 rogue = test::wrong_subgroup_g2();
  ASSERT_FALSE(rogue.is_identity());
  EXPECT_THROW((void)ec::pairing(G1::generator(), rogue), CheckFailure);
}

TEST(PairingNegative, ProductCheckRejectsBadPoints) {
  ScopedThrowHandler guard;
  EXPECT_THROW((void)ec::pairing_product_is_one(
                   test::off_curve_g1(), G2::generator(), G1::generator(),
                   G2::generator()),
               CheckFailure);
  const std::vector<std::pair<G1, G2>> pairs = {
      {G1::generator(), test::wrong_subgroup_g2()}};
  EXPECT_THROW((void)ec::pairing_product_is_one(
                   std::span<const std::pair<G1, G2>>(pairs)),
               CheckFailure);
}

TEST(PairingNegative, HonestInputsStillAccepted) {
  ScopedThrowHandler guard;
  // e(aP, Q) == e(P, aQ): validation must not disturb bilinearity.
  const Fr a = Fr::from_u64(77);
  EXPECT_EQ(ec::pairing(G1::generator().mul(a), G2::generator()),
            ec::pairing(G1::generator(), G2::generator().mul(a)));
}

// --- proof deserialization ----------------------------------------------

TEST(DeserializationNegative, OffCurveG1BytesRejected) {
  auto bytes = ec::g1_to_bytes(ec::G1Affine::generator());
  bytes[63] ^= 1;  // perturb y: leaves the curve (or goes non-canonical)
  EXPECT_FALSE(ec::g1_from_bytes(bytes).has_value());
}

TEST(DeserializationNegative, WrongSubgroupG2BytesRejected) {
  const G2 rogue = test::wrong_subgroup_g2();
  ASSERT_FALSE(rogue.is_identity());
  const auto bytes = ec::g2_to_bytes(rogue);
  // On the twist, canonical encoding — only the subgroup check can (and
  // must) refuse it.
  EXPECT_FALSE(ec::g2_from_bytes(bytes).has_value());
  EXPECT_TRUE(
      ec::g2_from_bytes(ec::g2_to_bytes(G2::generator())).has_value());
}

TEST(DeserializationNegative, ProofWithOffCurvePointRejected) {
  // A valid-length byte string whose first commitment is off the curve.
  const auto bad_point = test::off_curve_g1();
  std::vector<std::uint8_t> bytes(Proof::size_bytes(), 0);
  // x = 1, y = 1 big-endian in the first 64 bytes.
  bytes[31] = 1;
  bytes[63] = 1;
  EXPECT_FALSE(Proof::from_bytes(bytes).has_value());
  (void)bad_point;
}

TEST(DeserializationNegative, NonCanonicalScalarRejected) {
  std::vector<std::uint8_t> bytes(Proof::size_bytes(), 0);
  // All nine G1 slots are the identity (all zeros, accepted); make the
  // first Fr slot equal to the modulus (non-canonical).
  const auto mod = ff::u256_to_bytes(Fr::MOD);
  std::copy(mod.begin(), mod.end(), bytes.begin() + 9 * 64);
  EXPECT_FALSE(Proof::from_bytes(bytes).has_value());
}

// --- batch verification -------------------------------------------------

// x = w^3 + w + 5 with public x (the fixture circuit of test_plonk).
struct CubicCircuit {
  ConstraintSystem cs;
  std::vector<Fr> witness;

  explicit CubicCircuit(std::uint64_t w_val) {
    const Var w = cs.add_variable();
    const Var w2 = cs.add_variable();
    const Var w3 = cs.add_variable();
    const Var x = cs.add_variable();
    cs.set_public(x);
    cs.add_gate({Fr::one(), Fr::zero(), Fr::zero(), -Fr::one(), Fr::zero(), w,
                 w, w2});
    cs.add_gate({Fr::one(), Fr::zero(), Fr::zero(), -Fr::one(), Fr::zero(), w2,
                 w, w3});
    cs.add_gate({Fr::zero(), Fr::one(), Fr::one(), -Fr::one(), Fr::from_u64(5),
                 w3, w, x});
    const Fr wf = Fr::from_u64(w_val);
    witness = {Fr::zero(), wf, wf * wf, wf * wf * wf,
               wf * wf * wf + wf + Fr::from_u64(5)};
  }
};

class BatchNegativeFixture : public ::testing::Test {
 protected:
  static const Srs& srs() {
    static const Srs s = [] {
      Drbg rng(41);
      return Srs::setup(1 << 8, rng);
    }();
    return s;
  }
};

TEST_F(BatchNegativeFixture, OffCurveProofPointMakesBatchFalse) {
  CubicCircuit c(3);
  auto keys = preprocess(c.cs, srs());
  ASSERT_TRUE(keys.has_value());
  Drbg rng(42);
  auto proof = prove(keys->pk, c.cs, srs(), c.witness, rng);
  ASSERT_TRUE(proof.has_value());
  const std::vector<Fr> pub = {c.witness[4]};

  Proof tampered = *proof;
  tampered.cm_a = test::off_curve_g1_affine();
  const BatchEntry entries[] = {{&keys->vk, &pub, &tampered}};
  EXPECT_FALSE(plonk::batch_verify(entries));
  EXPECT_FALSE(plonk::verify(keys->vk, pub, tampered));
}

TEST_F(BatchNegativeFixture, WrongSubgroupVkG2MakesBatchFalse) {
  CubicCircuit c(3);
  auto keys = preprocess(c.cs, srs());
  ASSERT_TRUE(keys.has_value());
  Drbg rng(43);
  auto proof = prove(keys->pk, c.cs, srs(), c.witness, rng);
  ASSERT_TRUE(proof.has_value());
  const std::vector<Fr> pub = {c.witness[4]};

  plonk::VerifyingKey bad_vk = keys->vk;
  bad_vk.g2_tau = test::wrong_subgroup_g2();
  ASSERT_FALSE(bad_vk.g2_tau.is_identity());
  const BatchEntry entries[] = {{&bad_vk, &pub, &*proof}};
  EXPECT_FALSE(plonk::batch_verify(entries));
  EXPECT_FALSE(plonk::verify(bad_vk, pub, *proof));

  plonk::VerifyingKey off_vk = keys->vk;
  off_vk.g2_gen = test::off_curve_g2();
  const BatchEntry entries2[] = {{&off_vk, &pub, &*proof}};
  EXPECT_FALSE(plonk::batch_verify(entries2));
}

TEST_F(BatchNegativeFixture, TamperedEntryDoesNotPoisonHonestOnes) {
  CubicCircuit c(3);
  auto keys = preprocess(c.cs, srs());
  ASSERT_TRUE(keys.has_value());
  Drbg rng(44);
  auto proof = prove(keys->pk, c.cs, srs(), c.witness, rng);
  ASSERT_TRUE(proof.has_value());
  const std::vector<Fr> pub = {c.witness[4]};

  // Honest batch accepts; adding a tampered entry flips it to false.
  const BatchEntry honest[] = {{&keys->vk, &pub, &*proof}};
  EXPECT_TRUE(plonk::batch_verify(honest));

  Proof tampered = *proof;
  tampered.cm_z = test::off_curve_g1_affine();
  const BatchEntry mixed[] = {{&keys->vk, &pub, &*proof},
                              {&keys->vk, &pub, &tampered}};
  EXPECT_FALSE(plonk::batch_verify(mixed));
}

}  // namespace
}  // namespace zkdet
