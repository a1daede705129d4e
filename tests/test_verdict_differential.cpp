// Verifier verdicts against the test-only Tate oracle.
//
// Every accept/reject case of test_plonk.cpp, test_negative_paths.cpp
// and test_groth16.cpp is rebuilt here and decided twice: by the
// production verifier (optimal ate pairing over prepared G2 points) and
// by an oracle verifier that shares the transcript/scalar reduction but
// validates G2 with [r]Q == O and runs the reduced Tate pairing. The two
// verdicts must agree, and both must match the expected one.
#include <gtest/gtest.h>

#include "curve_attack_helpers.hpp"
#include "ec/msm.hpp"
#include "oracles/tate.hpp"
#include "plonk/groth16.hpp"
#include "plonk/plonk.hpp"

namespace zkdet::plonk {
namespace {

using crypto::Drbg;
using ec::G1;
using ec::G2;
using ff::Fr;

bool oracle_g2_ok(const G2& q) {
  return q.on_curve() && oracle::in_g2_subgroup_by_order(q);
}

bool oracle_verify(const VerifyingKey& vk, const std::vector<Fr>& pub,
                   const Proof& proof) {
  if (!oracle_g2_ok(vk.g2_gen) || !oracle_g2_ok(vk.g2_tau)) return false;
  const auto c = verify_prepare(vk, pub, proof);
  if (!c) return false;
  const std::pair<G1, G2> pairs[2] = {{c->lhs, vk.g2_tau}, {-c->rhs, vk.g2_gen}};
  return oracle::tate_product_is_one(pairs);
}

// Mirrors groth16::verify with the oracle pairing.
bool oracle_verify(const groth16::VerifyingKey& vk, const std::vector<Fr>& pub,
                   const groth16::Proof& proof) {
  if (pub.size() + 1 != vk.ic.size()) return false;
  if (!proof.a.on_curve() || !proof.b.on_curve() || !proof.c.on_curve()) {
    return false;
  }
  if (!oracle::in_g2_subgroup_by_order(proof.b)) return false;
  const G1 vk_x =
      vk.ic[0].to_jacobian() +
      ec::msm(pub, std::span<const ec::G1Affine>(vk.ic.data() + 1, pub.size()));
  const std::pair<G1, G2> pairs[4] = {{proof.a, proof.b},
                                      {-vk.alpha_g1, vk.beta_g2},
                                      {-vk_x, vk.gamma_g2},
                                      {-proof.c, vk.delta_g2}};
  return oracle::tate_product_is_one(pairs);
}

template <typename Vk, typename P>
void expect_verdict(const Vk& vk, const std::vector<Fr>& pub, const P& proof,
                    bool expected, const char* what) {
  bool fast = false;
  if constexpr (std::is_same_v<Vk, VerifyingKey>) {
    fast = verify(vk, pub, proof);
  } else {
    fast = groth16::verify(vk, pub, proof);
  }
  EXPECT_EQ(fast, expected) << what;
  EXPECT_EQ(fast, oracle_verify(vk, pub, proof)) << what << " (oracle)";
}

// x = w^3 + w + 5 with public x.
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

// x = w^2 with public x.
struct SquareCircuit {
  ConstraintSystem cs;
  SquareCircuit() {
    const Var w = cs.add_variable();
    const Var x = cs.add_variable();
    cs.set_public(x);
    cs.add_gate({Fr::one(), Fr::zero(), Fr::zero(), -Fr::one(), Fr::zero(), w,
                 w, x});
  }
};

const Srs& srs() {
  static const Srs s = [] {
    Drbg rng(1);
    return Srs::setup(1 << 7, rng);
  }();
  return s;
}

TEST(VerdictDifferential, PlonkSingleProofCases) {
  CubicCircuit c(3);
  const auto keys = preprocess(c.cs, srs());
  ASSERT_TRUE(keys);
  Drbg rng(2);
  const auto proof = prove(keys->pk, c.cs, srs(), c.witness, rng);
  ASSERT_TRUE(proof);
  const std::vector<Fr> pub{c.witness[4]};
  const VerifyingKey& vk = keys->vk;

  expect_verdict(vk, pub, *proof, true, "honest");
  expect_verdict(vk, {c.witness[4] + Fr::one()}, *proof, false, "wrong public");
  expect_verdict(vk, {}, *proof, false, "no publics");
  expect_verdict(vk, {c.witness[4], Fr::one()}, *proof, false, "extra public");

  for (G1Affine Proof::*field :
       {&Proof::cm_a, &Proof::cm_b, &Proof::cm_c, &Proof::cm_z, &Proof::cm_t_lo,
        &Proof::cm_t_mid, &Proof::cm_t_hi, &Proof::w_zeta,
        &Proof::w_zeta_omega}) {
    Proof bad = *proof;
    bad.*field = G1Affine::from_jacobian(G1::generator() + bad.*field);
    expect_verdict(vk, pub, bad, false, "tampered G1 field");
  }
  for (Fr Proof::*field : {&Proof::eval_a, &Proof::eval_b, &Proof::eval_c,
                           &Proof::eval_s1, &Proof::eval_s2,
                           &Proof::eval_z_omega}) {
    Proof bad = *proof;
    bad.*field += Fr::one();
    expect_verdict(vk, pub, bad, false, "tampered Fr field");
  }

  // test_negative_paths: off-curve proof point, bad VK G2 points.
  Proof off = *proof;
  off.cm_a = test::off_curve_g1_affine();
  expect_verdict(vk, pub, off, false, "off-curve commitment");
  VerifyingKey bad_tau = vk;
  bad_tau.g2_tau = test::wrong_subgroup_g2();
  expect_verdict(bad_tau, pub, *proof, false, "wrong-subgroup [tau]_2");
  VerifyingKey bad_gen = vk;
  bad_gen.g2_gen = test::off_curve_g2();
  expect_verdict(bad_gen, pub, *proof, false, "off-curve [1]_2");

  // Randomized proofs, and the w / -w witnesses of x = w^2.
  Drbg rng2(3);
  const auto proof2 = prove(keys->pk, c.cs, srs(), c.witness, rng2);
  ASSERT_TRUE(proof2);
  expect_verdict(vk, pub, *proof2, true, "second randomized proof");
  SquareCircuit sq;
  const auto sq_keys = preprocess(sq.cs, srs());
  ASSERT_TRUE(sq_keys);
  const Fr w = Fr::from_u64(6);
  const auto ps = prove(sq_keys->pk, sq.cs, srs(), {Fr::zero(), w, w * w}, rng);
  const auto pn = prove(sq_keys->pk, sq.cs, srs(), {Fr::zero(), -w, w * w}, rng);
  ASSERT_TRUE(ps && pn);
  expect_verdict(sq_keys->vk, {w * w}, *ps, true, "witness w");
  expect_verdict(sq_keys->vk, {w * w}, *pn, true, "witness -w");
  // Proofs swapped between statements/keys.
  expect_verdict(sq_keys->vk, {w * w}, *proof, false, "proof under foreign vk");
  expect_verdict(vk, pub, *ps, false, "foreign proof");
}

TEST(VerdictDifferential, PlonkManyPublicInputsAndForeignSrs) {
  // 20 public summands and their public total (test_plonk ManyPublicInputs).
  ConstraintSystem cs;
  std::vector<Var> pubs;
  std::vector<Fr> wit{Fr::zero()};
  Fr sum = Fr::zero();
  for (int i = 0; i < 20; ++i) {
    const Var v = cs.add_variable();
    cs.set_public(v);
    pubs.push_back(v);
    wit.push_back(Fr::from_u64(static_cast<std::uint64_t>(i) * 3 + 1));
    sum += wit.back();
  }
  Var acc = pubs[0];
  for (std::size_t i = 1; i < pubs.size(); ++i) {
    const Var nxt = cs.add_variable();
    cs.add_gate({Fr::zero(), Fr::one(), Fr::one(), -Fr::one(), Fr::zero(), acc,
                 pubs[i], nxt});
    wit.push_back(wit[acc] + wit[pubs[i]]);
    acc = nxt;
  }
  const Var total = cs.add_variable();
  cs.set_public(total);
  wit.push_back(sum);
  cs.add_gate({Fr::zero(), Fr::one(), -Fr::one(), Fr::zero(), Fr::zero(), acc,
               total, 0});
  const auto keys = preprocess(cs, srs());
  ASSERT_TRUE(keys);
  Drbg rng(4);
  const auto proof = prove(keys->pk, cs, srs(), wit, rng);
  ASSERT_TRUE(proof);
  std::vector<Fr> pub = cs.extract_public_inputs(wit);
  expect_verdict(keys->vk, pub, *proof, true, "21 public inputs");
  pub[20] += Fr::one();
  expect_verdict(keys->vk, pub, *proof, false, "21 public inputs, wrong total");
  pub[20] -= Fr::one();
  pub[0] += Fr::one();
  expect_verdict(keys->vk, pub, *proof, false, "21 public inputs, wrong first");

  // A second SRS: valid under its own key, rejected under the first's.
  Drbg srs_rng(77);
  const Srs srs2 = Srs::setup(1 << 7, srs_rng);
  CubicCircuit c(4);
  const auto k1 = preprocess(c.cs, srs());
  const auto k2 = preprocess(c.cs, srs2);
  ASSERT_TRUE(k1 && k2);
  const auto p2 = prove(k2->pk, c.cs, srs2, c.witness, rng);
  ASSERT_TRUE(p2);
  expect_verdict(k2->vk, {c.witness[4]}, *p2, true, "own SRS");
  expect_verdict(k1->vk, {c.witness[4]}, *p2, false, "foreign SRS");
  // A prepared pair that does not match the key's points is ignored: with
  // the first SRS's lines the honest proof would be rejected.
  VerifyingKey stale = k2->vk;
  stale.g2_prepared = k1->vk.g2_prepared;
  expect_verdict(stale, {c.witness[4]}, *p2, true, "stale prepared pair");
  VerifyingKey mixed = k1->vk;
  mixed.g2_tau = k2->vk.g2_tau;
  expect_verdict(mixed, {c.witness[4]}, *p2, false, "mixed SRS points");
}

TEST(VerdictDifferential, PlonkBatchVerdictsMatchPerEntryOracle) {
  std::vector<CubicCircuit> circs;
  for (std::uint64_t w = 2; w <= 4; ++w) circs.emplace_back(w);
  const auto keys = preprocess(circs[0].cs, srs());
  ASSERT_TRUE(keys);
  Drbg rng(5);
  std::vector<Proof> proofs;
  std::vector<std::vector<Fr>> pubs;
  for (const auto& c : circs) {
    proofs.push_back(*prove(keys->pk, c.cs, srs(), c.witness, rng));
    pubs.push_back({c.witness[4]});
  }
  Proof bad = proofs[1];
  bad.eval_a += Fr::one();
  Proof off = proofs[2];
  off.cm_z = test::off_curve_g1_affine();
  VerifyingKey rogue_vk = keys->vk;
  rogue_vk.g2_tau = test::wrong_subgroup_g2();

  const std::vector<std::vector<BatchEntry>> batches = {
      {{&keys->vk, &pubs[0], &proofs[0]},
       {&keys->vk, &pubs[1], &proofs[1]},
       {&keys->vk, &pubs[2], &proofs[2]}},
      {{&keys->vk, &pubs[0], &proofs[0]},
       {&keys->vk, &pubs[1], &bad},
       {&keys->vk, &pubs[0], &proofs[0]}},
      {{&keys->vk, &pubs[1], &bad}, {&keys->vk, &pubs[1], &bad},
       {&keys->vk, &pubs[2], &off}, {&rogue_vk, &pubs[0], &proofs[0]}},
      {{&keys->vk, &pubs[0], &proofs[1]}, {&keys->vk, &pubs[1], &proofs[0]}},
  };
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const BatchResult r = batch_verify_attributed(batches[b]);
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      const BatchEntry& e = batches[b][i];
      EXPECT_EQ(r.ok[i] != 0, oracle_verify(*e.vk, *e.public_inputs, *e.proof))
          << "batch " << b << " entry " << i;
    }
  }
}

TEST(VerdictDifferential, Groth16Cases) {
  Drbg rng(6);
  CubicCircuit c(3);
  const auto keys = groth16::setup(c.cs, rng);
  ASSERT_TRUE(keys);
  const auto proof = groth16::prove(keys->pk, c.cs, c.witness, rng);
  ASSERT_TRUE(proof);
  const std::vector<Fr> pub{c.witness[4]};
  expect_verdict(keys->vk, pub, *proof, true, "groth16 honest");
  expect_verdict(keys->vk, {c.witness[4] + Fr::one()}, *proof, false,
                 "groth16 wrong public");
  expect_verdict(keys->vk, {}, *proof, false, "groth16 no publics");
  expect_verdict(keys->vk, {c.witness[4], Fr::one()}, *proof, false,
                 "groth16 extra public");
  groth16::Proof bad = *proof;
  bad.a = bad.a + G1::generator();
  expect_verdict(keys->vk, pub, bad, false, "groth16 tampered A");
  bad = *proof;
  bad.b = bad.b + G2::generator();
  expect_verdict(keys->vk, pub, bad, false, "groth16 tampered B");
  bad = *proof;
  bad.c = bad.c + G1::generator();
  expect_verdict(keys->vk, pub, bad, false, "groth16 tampered C");

  // Keys of another circuit shape.
  SquareCircuit sq;
  const auto keys2 = groth16::setup(sq.cs, rng);
  ASSERT_TRUE(keys2);
  const auto proof2 = groth16::prove(
      keys2->pk, sq.cs, {Fr::zero(), Fr::from_u64(4), Fr::from_u64(16)}, rng);
  ASSERT_TRUE(proof2);
  expect_verdict(keys2->vk, {Fr::from_u64(16)}, *proof2, true,
                 "groth16 own keys");
  expect_verdict(keys->vk, {Fr::from_u64(16)}, *proof2, false,
                 "groth16 foreign keys");
}

}  // namespace
}  // namespace zkdet::plonk
