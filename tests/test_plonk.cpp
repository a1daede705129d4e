#include <gtest/gtest.h>

#include <chrono>

#include "plonk/plonk.hpp"

#include "core/circuits.hpp"
#include "crypto/sha256.hpp"
#include "ec/pairing.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::plonk {
namespace {

using crypto::Drbg;
using ff::Fr;

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

class PlonkFixture : public ::testing::Test {
 protected:
  static const Srs& srs() {
    static const Srs s = [] {
      Drbg rng(1);
      return Srs::setup(1 << 11, rng);
    }();
    return s;
  }
};

TEST_F(PlonkFixture, RoundtripCubic) {
  CubicCircuit c(3);
  ASSERT_TRUE(c.cs.is_satisfied(c.witness));
  auto keys = preprocess(c.cs, srs());
  ASSERT_TRUE(keys.has_value());
  Drbg rng(2);
  auto proof = prove(keys->pk, c.cs, srs(), c.witness, rng);
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(verify(keys->vk, {c.witness[4]}, *proof));
}

TEST_F(PlonkFixture, WrongPublicInputRejected) {
  CubicCircuit c(3);
  auto keys = preprocess(c.cs, srs());
  Drbg rng(3);
  auto proof = prove(keys->pk, c.cs, srs(), c.witness, rng);
  ASSERT_TRUE(proof.has_value());
  EXPECT_FALSE(verify(keys->vk, {c.witness[4] + Fr::one()}, *proof));
  EXPECT_FALSE(verify(keys->vk, {}, *proof));
  EXPECT_FALSE(verify(keys->vk, {c.witness[4], Fr::one()}, *proof));
}

TEST_F(PlonkFixture, UnsatisfiedWitnessRejectedByProver) {
  CubicCircuit c(3);
  auto keys = preprocess(c.cs, srs());
  c.witness[4] += Fr::one();
  Drbg rng(4);
  EXPECT_FALSE(prove(keys->pk, c.cs, srs(), c.witness, rng).has_value());
}

TEST_F(PlonkFixture, EveryProofFieldIsBindings) {
  CubicCircuit c(3);
  auto keys = preprocess(c.cs, srs());
  Drbg rng(5);
  auto proof = prove(keys->pk, c.cs, srs(), c.witness, rng);
  ASSERT_TRUE(proof.has_value());
  const std::vector<Fr> pub{c.witness[4]};
  const auto tamper_g1 = [&](ec::G1 Proof::* field) {
    Proof bad = *proof;
    bad.*field = (bad.*field) + ec::G1::generator();
    return verify(keys->vk, pub, bad);
  };
  EXPECT_FALSE(tamper_g1(&Proof::cm_a));
  EXPECT_FALSE(tamper_g1(&Proof::cm_b));
  EXPECT_FALSE(tamper_g1(&Proof::cm_c));
  EXPECT_FALSE(tamper_g1(&Proof::cm_z));
  EXPECT_FALSE(tamper_g1(&Proof::cm_t_lo));
  EXPECT_FALSE(tamper_g1(&Proof::cm_t_mid));
  EXPECT_FALSE(tamper_g1(&Proof::cm_t_hi));
  EXPECT_FALSE(tamper_g1(&Proof::w_zeta));
  EXPECT_FALSE(tamper_g1(&Proof::w_zeta_omega));
  const auto tamper_fr = [&](Fr Proof::* field) {
    Proof bad = *proof;
    bad.*field += Fr::one();
    return verify(keys->vk, pub, bad);
  };
  EXPECT_FALSE(tamper_fr(&Proof::eval_a));
  EXPECT_FALSE(tamper_fr(&Proof::eval_b));
  EXPECT_FALSE(tamper_fr(&Proof::eval_c));
  EXPECT_FALSE(tamper_fr(&Proof::eval_s1));
  EXPECT_FALSE(tamper_fr(&Proof::eval_s2));
  EXPECT_FALSE(tamper_fr(&Proof::eval_z_omega));
}

TEST_F(PlonkFixture, ProofIsConstantSize) {
  CubicCircuit c(3);
  auto keys = preprocess(c.cs, srs());
  Drbg rng(6);
  auto proof = prove(keys->pk, c.cs, srs(), c.witness, rng);
  ASSERT_TRUE(proof.has_value());
  EXPECT_EQ(proof->to_bytes().size(), Proof::size_bytes());
  EXPECT_EQ(Proof::size_bytes(), 9u * 64u + 6u * 32u);
}

TEST_F(PlonkFixture, ProofsAreRandomized) {
  // zero-knowledge smoke: two proofs of the same statement differ.
  CubicCircuit c(3);
  auto keys = preprocess(c.cs, srs());
  Drbg rng1(7), rng2(8);
  auto p1 = prove(keys->pk, c.cs, srs(), c.witness, rng1);
  auto p2 = prove(keys->pk, c.cs, srs(), c.witness, rng2);
  ASSERT_TRUE(p1 && p2);
  EXPECT_NE(p1->to_bytes(), p2->to_bytes());
  EXPECT_TRUE(verify(keys->vk, {c.witness[4]}, *p1));
  EXPECT_TRUE(verify(keys->vk, {c.witness[4]}, *p2));
}

TEST_F(PlonkFixture, DifferentWitnessSamePublicBothVerify) {
  // The relation w^2 = x has two witnesses w and -w; both must prove.
  ConstraintSystem cs;
  const Var w = cs.add_variable();
  const Var x = cs.add_variable();
  cs.set_public(x);
  cs.add_gate({Fr::one(), Fr::zero(), Fr::zero(), -Fr::one(), Fr::zero(), w, w,
               x});
  auto keys = preprocess(cs, srs());
  ASSERT_TRUE(keys);
  Drbg rng(9);
  const Fr wv = Fr::from_u64(6);
  const Fr xv = wv * wv;
  auto p1 = prove(keys->pk, cs, srs(), {Fr::zero(), wv, xv}, rng);
  auto p2 = prove(keys->pk, cs, srs(), {Fr::zero(), -wv, xv}, rng);
  ASSERT_TRUE(p1 && p2);
  EXPECT_TRUE(verify(keys->vk, {xv}, *p1));
  EXPECT_TRUE(verify(keys->vk, {xv}, *p2));
}

TEST_F(PlonkFixture, SrsTooSmallFailsGracefully) {
  ConstraintSystem cs;
  const Var a = cs.add_variable();
  for (int i = 0; i < 3000; ++i) {
    cs.add_gate({Fr::zero(), Fr::one(), Fr::zero(), Fr::zero(), Fr::zero(), a,
                 0, 0});
  }
  // domain 4096 > srs 2048
  EXPECT_FALSE(preprocess(cs, srs()).has_value());
}

TEST_F(PlonkFixture, ManyPublicInputs) {
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
  // sum constraint via chain
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

  auto keys = preprocess(cs, srs());
  ASSERT_TRUE(keys);
  Drbg rng(10);
  ASSERT_TRUE(cs.is_satisfied(wit));
  auto proof = prove(keys->pk, cs, srs(), wit, rng);
  ASSERT_TRUE(proof);
  std::vector<Fr> pub_vals = cs.extract_public_inputs(wit);
  EXPECT_EQ(pub_vals.size(), 21u);
  EXPECT_TRUE(verify(keys->vk, pub_vals, *proof));
  pub_vals[20] += Fr::one();
  EXPECT_FALSE(verify(keys->vk, pub_vals, *proof));
}

// --- attributed batch verification (batched settlement substrate) ---

// x = w^2 + 1 with public x: a second circuit shape, so batches can mix
// different verifying keys under one SRS.
struct SquareCircuit {
  ConstraintSystem cs;
  std::vector<Fr> witness;

  explicit SquareCircuit(std::uint64_t w_val) {
    const Var w = cs.add_variable();
    const Var x = cs.add_variable();
    cs.set_public(x);
    cs.add_gate({Fr::one(), Fr::zero(), Fr::zero(), -Fr::one(), Fr::one(), w,
                 w, x});
    const Fr wf = Fr::from_u64(w_val);
    witness = {Fr::zero(), wf, wf * wf + Fr::one()};
  }
};

// One proved statement, self-contained so BatchEntry pointers stay
// valid for the fixture's lifetime.
struct ProvedCubic {
  CubicCircuit circ;
  KeyPairResult keys;
  std::vector<Fr> publics;
  Proof proof;

  ProvedCubic(std::uint64_t w, const Srs& srs, std::uint64_t seed)
      : circ(w), keys(*preprocess(circ.cs, srs)) {
    Drbg rng(seed);
    proof = *prove(keys.pk, circ.cs, srs, circ.witness, rng);
    publics = {circ.witness[4]};
  }

  [[nodiscard]] BatchEntry entry() const {
    return {&keys.vk, &publics, &proof};
  }
};

// Structurally valid but unsound proof: survives verify_prepare, fails
// the pairing — the case that exercises fold-failure bisection.
Proof tampered(const Proof& p) {
  Proof bad = p;
  bad.eval_a += Fr::one();
  return bad;
}

TEST_F(PlonkFixture, BatchEmptyIsVacuouslyOk) {
  const BatchResult r = batch_verify_attributed({});
  EXPECT_TRUE(r.all_ok());
  EXPECT_EQ(r.invalid_count(), 0u);
  EXPECT_EQ(r.pairing_checks, 0u);
  EXPECT_TRUE(batch_verify({}));
}

TEST_F(PlonkFixture, BatchOfOneMatchesIndividualVerifyOutcome) {
  const ProvedCubic a(3, srs(), 101);
  {
    const BatchEntry e = a.entry();
    const BatchResult r = batch_verify_attributed({&e, 1});
    EXPECT_EQ(r.ok[0] != 0, verify(a.keys.vk, a.publics, a.proof));
    EXPECT_TRUE(r.all_ok());
    EXPECT_EQ(r.pairing_checks, 1u);  // no fold, the direct check only
    EXPECT_EQ(r.srs_groups, 1u);
  }
  {
    const Proof bad = tampered(a.proof);
    const BatchEntry e{&a.keys.vk, &a.publics, &bad};
    const BatchResult r = batch_verify_attributed({&e, 1});
    EXPECT_EQ(r.ok[0] != 0, verify(a.keys.vk, a.publics, bad));
    EXPECT_FALSE(r.all_ok());
    EXPECT_EQ(r.invalid_count(), 1u);
    EXPECT_EQ(r.pairing_checks, 1u);
  }
}

TEST_F(PlonkFixture, BatchAttributesOneBadAmongGoodAtEveryPosition) {
  // Distinct statements (different witnesses) under one vk. The bad
  // proof is tried at every position; only it may be rejected.
  std::vector<ProvedCubic> good;
  good.reserve(4);
  for (std::uint64_t w = 2; w <= 5; ++w) {
    good.emplace_back(w, srs(), 200 + w);
  }
  for (std::size_t bad_at = 0; bad_at < good.size(); ++bad_at) {
    const Proof bad = tampered(good[bad_at].proof);
    std::vector<BatchEntry> entries;
    for (std::size_t i = 0; i < good.size(); ++i) {
      entries.push_back(good[i].entry());
      if (i == bad_at) entries.back().proof = &bad;
    }
    const BatchResult r = batch_verify_attributed(entries);
    for (std::size_t i = 0; i < good.size(); ++i) {
      EXPECT_EQ(r.ok[i] != 0, i != bad_at) << "bad_at=" << bad_at;
    }
    EXPECT_EQ(r.invalid_count(), 1u);
    EXPECT_GT(r.pairing_checks, 1u);  // fold failed, bisection ran
    EXPECT_FALSE(batch_verify(entries));
  }
}

TEST_F(PlonkFixture, BatchAllBadAttributesEveryEntry) {
  std::vector<ProvedCubic> good;
  for (std::uint64_t w = 2; w <= 4; ++w) good.emplace_back(w, srs(), 300 + w);
  std::vector<Proof> bads;
  for (const auto& g : good) bads.push_back(tampered(g.proof));
  std::vector<BatchEntry> entries;
  for (std::size_t i = 0; i < good.size(); ++i) {
    entries.push_back(good[i].entry());
    entries[i].proof = &bads[i];
  }
  const BatchResult r = batch_verify_attributed(entries);
  EXPECT_EQ(r.invalid_count(), entries.size());
  for (const auto v : r.ok) EXPECT_EQ(v, 0u);
}

TEST_F(PlonkFixture, BatchMixedVksFoldSoundlyAndSwapIsAttributed) {
  // Two circuits, two verifying keys, one SRS: the honest batch folds
  // into one pairing product; swapping the proofs between the two
  // statements must reject BOTH entries (each proof is bound to its own
  // statement by the fold weights).
  CubicCircuit ca(3);
  SquareCircuit cb(6);
  auto ka = *preprocess(ca.cs, srs());
  auto kb = *preprocess(cb.cs, srs());
  Drbg ra(401);
  Drbg rb(402);
  const Proof pa = *prove(ka.pk, ca.cs, srs(), ca.witness, ra);
  const Proof pb = *prove(kb.pk, cb.cs, srs(), cb.witness, rb);
  const std::vector<Fr> puba = {ca.witness[4]};
  const std::vector<Fr> pubb = {cb.witness[2]};

  const std::vector<BatchEntry> honest = {{&ka.vk, &puba, &pa},
                                          {&kb.vk, &pubb, &pb}};
  const BatchResult hr = batch_verify_attributed(honest);
  EXPECT_TRUE(hr.all_ok());
  EXPECT_EQ(hr.srs_groups, 1u);
  EXPECT_EQ(hr.pairing_checks, 1u);  // one fold covered both circuits

  const std::vector<BatchEntry> swapped = {{&ka.vk, &puba, &pb},
                                           {&kb.vk, &pubb, &pa}};
  const BatchResult sr = batch_verify_attributed(swapped);
  EXPECT_EQ(sr.ok[0], 0u);
  EXPECT_EQ(sr.ok[1], 0u);
  EXPECT_EQ(sr.invalid_count(), 2u);
  EXPECT_FALSE(batch_verify(swapped));
}

TEST_F(PlonkFixture, BatchWrongSrsEntryIsAttributedNotFatal) {
  // An entry preprocessed under a DIFFERENT SRS used to reject the
  // whole batch; now it folds in its own (g2_gen, g2_tau) group and
  // only its own validity decides its verdict.
  const ProvedCubic a(3, srs(), 501);
  Drbg rng2(77);
  const Srs srs2 = Srs::setup(1 << 11, rng2);
  CubicCircuit c2(4);
  auto k2 = *preprocess(c2.cs, srs2);
  Drbg rp(502);
  const Proof p2 = *prove(k2.pk, c2.cs, srs2, c2.witness, rp);
  const std::vector<Fr> pub2 = {c2.witness[4]};

  {
    const std::vector<BatchEntry> entries = {a.entry(), {&k2.vk, &pub2, &p2}};
    const BatchResult r = batch_verify_attributed(entries);
    EXPECT_TRUE(r.all_ok());  // both valid under their own SRS
    EXPECT_EQ(r.srs_groups, 2u);
    EXPECT_EQ(r.pairing_checks, 2u);  // one product per group
  }
  {
    const Proof bad = tampered(p2);
    const std::vector<BatchEntry> entries = {a.entry(), {&k2.vk, &pub2, &bad}};
    const BatchResult r = batch_verify_attributed(entries);
    EXPECT_EQ(r.ok[0], 1u);  // honest entry unaffected
    EXPECT_EQ(r.ok[1], 0u);  // foreign-SRS forgery attributed to itself
    EXPECT_FALSE(batch_verify(entries));
  }
}

TEST_F(PlonkFixture, BatchDuplicateEntriesCannotMaskAThirdInvalid) {
  // The same (vk, inputs, proof) submitted twice draws two DIFFERENT
  // fold weights (each challenge is bound to the entry's position and
  // the chained transcript state), so weighted cancellation cannot hide
  // another entry's invalidity.
  const ProvedCubic good(3, srs(), 601);
  const ProvedCubic other(4, srs(), 602);
  const Proof bad = tampered(other.proof);

  {
    // [good, good, bad]: duplicates stay valid, the forgery is caught.
    std::vector<BatchEntry> entries = {good.entry(), good.entry(),
                                       other.entry()};
    entries[2].proof = &bad;
    const BatchResult r = batch_verify_attributed(entries);
    EXPECT_EQ(r.ok[0], 1u);
    EXPECT_EQ(r.ok[1], 1u);
    EXPECT_EQ(r.ok[2], 0u);
  }
  {
    // [bad, bad, good]: a duplicated forgery cannot cancel itself out.
    std::vector<BatchEntry> entries = {other.entry(), other.entry(),
                                       good.entry()};
    entries[0].proof = &bad;
    entries[1].proof = &bad;
    const BatchResult r = batch_verify_attributed(entries);
    EXPECT_EQ(r.ok[0], 0u);
    EXPECT_EQ(r.ok[1], 0u);
    EXPECT_EQ(r.ok[2], 1u);
    EXPECT_EQ(r.invalid_count(), 2u);
  }
}

TEST_F(PlonkFixture, BatchSharedKeyMergesBasesAndRejectsAForgery) {
  // Three statements under ONE key object: the fold merges their eight
  // key commitments (and the generator) into one scalar per base. The
  // honest fold still passes in one product; a forged evaluation or a
  // forged proof point at any position is caught and attributed.
  std::vector<ProvedCubic> good;
  good.reserve(3);
  for (std::uint64_t w = 7; w <= 9; ++w) good.emplace_back(w, srs(), 700 + w);
  std::vector<BatchEntry> honest;
  for (const auto& g : good) honest.push_back(g.entry());
  // One key shared by value would not merge; point every entry at one.
  for (auto& e : honest) e.vk = &good[0].keys.vk;
  const BatchResult hr = batch_verify_attributed(honest);
  EXPECT_TRUE(hr.all_ok());
  EXPECT_EQ(hr.pairing_checks, 1u);

  for (std::size_t bad_at = 0; bad_at < good.size(); ++bad_at) {
    for (int forgery = 0; forgery < 2; ++forgery) {
      Proof bad = good[bad_at].proof;
      if (forgery == 0) {
        bad.eval_c += Fr::one();
      } else {
        bad.cm_t_lo += G1::generator();
      }
      std::vector<BatchEntry> entries = honest;
      entries[bad_at].proof = &bad;
      const BatchResult r = batch_verify_attributed(entries);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(r.ok[i] != 0, i != bad_at)
            << "bad_at=" << bad_at << " forgery=" << forgery;
        EXPECT_EQ(r.ok[i] != 0, verify(*entries[i].vk, *entries[i].public_inputs,
                                       *entries[i].proof));
      }
    }
  }
}

TEST_F(PlonkFixture, FoldWeightsAreDistinctForDuplicateEntries) {
  const ProvedCubic a(3, srs(), 801);
  Transcript t("zkdet-plonk");
  a.keys.vk.bind_transcript(t);
  const Transcript::State s = t.state();
  const Transcript::State other = Transcript("other").state();

  // The same statement at two positions draws two weights.
  const std::vector<Transcript::State> dup = {s, s};
  const std::vector<std::size_t> pos = {0, 1};
  const std::vector<Fr> w = fold_weights(dup, pos);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NE(w[0], w[1]);
  EXPECT_FALSE(w[0].is_zero());
  EXPECT_EQ(fold_weights(dup, pos), w);  // deterministic

  // Every weight depends on every (position, state) of the batch.
  const std::vector<Transcript::State> mixed = {s, other};
  EXPECT_NE(fold_weights(mixed, pos)[0], w[0]);
  const std::vector<std::size_t> moved = {0, 2};
  EXPECT_NE(fold_weights(dup, moved)[0], w[0]);
}

TEST_F(PlonkFixture, BatchOfOneCountsVerifyTimeOnce) {
  // batch_verify_attributed times itself into verify_ns, as verify()
  // does; a batch of one must not also go through verify()'s timer.
  const ProvedCubic a(3, srs(), 901);
  const BatchEntry e = a.entry();
  const auto before = runtime::stats();
  const auto t0 = std::chrono::steady_clock::now();
  const BatchResult r = batch_verify_attributed({&e, 1});
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  const auto after = runtime::stats();
  EXPECT_TRUE(r.all_ok());
  const std::uint64_t counted = after.verify_ns - before.verify_ns;
  EXPECT_GT(counted, 0u);
  EXPECT_LE(counted, static_cast<std::uint64_t>(wall));
}

TEST(ConstraintSystem, SatisfiabilityChecks) {
  ConstraintSystem cs;
  const Var a = cs.add_variable();
  const Var b = cs.add_variable();
  cs.add_gate({Fr::one(), Fr::zero(), Fr::zero(), -Fr::one(), Fr::zero(), a, a,
               b});
  EXPECT_TRUE(cs.is_satisfied({Fr::zero(), Fr::from_u64(3), Fr::from_u64(9)}));
  EXPECT_FALSE(cs.is_satisfied({Fr::zero(), Fr::from_u64(3), Fr::from_u64(8)}));
  // nonzero zero-var rejected
  EXPECT_FALSE(cs.is_satisfied({Fr::one(), Fr::from_u64(3), Fr::from_u64(9)}));
  // short witness rejected
  EXPECT_FALSE(cs.is_satisfied({Fr::zero()}));
}

// Golden proofs: the SHA-256 of the proof bytes for a fixed SRS seed,
// witness and prover Drbg. t(X) is unique, so a prover change that keeps
// the math (domain sizes, NTT schedule, worker count) must keep these
// digests; a change to the circuits or the transcript re-records them.
//
// Proves `cs` at pool widths 1 and 4 and returns the hex SHA-256 of the
// proof bytes, failing the test if the widths disagree or the proof does
// not verify.
std::string proof_digest(const ConstraintSystem& cs,
                         const std::vector<Fr>& witness, std::size_t srs_degree,
                         std::uint64_t prover_seed) {
  Drbg srs_rng(1);
  const Srs srs = Srs::setup(srs_degree, srs_rng);
  auto keys = preprocess(cs, srs);
  EXPECT_TRUE(keys.has_value());
  if (!keys) return {};
  auto& pool = runtime::ThreadPool::instance();
  const std::size_t saved = pool.concurrency();
  std::string first;
  for (const std::size_t workers : {1u, 4u}) {
    pool.configure(workers);
    Drbg rng(prover_seed);
    const auto proof = prove(keys->pk, cs, srs, witness, rng);
    EXPECT_TRUE(proof.has_value());
    if (!proof) break;
    EXPECT_TRUE(verify(keys->vk, cs.extract_public_inputs(witness), *proof));
    const std::string digest = crypto::hex_encode(
        crypto::Sha256::digest(std::span<const std::uint8_t>(proof->to_bytes())));
    if (first.empty()) first = digest;
    EXPECT_EQ(digest, first) << "workers=" << workers;
  }
  pool.configure(saved);
  return first;
}

// Three rows, padded to the smallest domain n = 8, where deg t = 3n + 5
// = 29 sits just under 4n = 32.
TEST(PlonkGolden, CubicAtSmallestDomain) {
  const CubicCircuit c(3);
  ASSERT_EQ(c.cs.domain_size(), 8u);
  EXPECT_EQ(proof_digest(c.cs, c.witness, 64, 2),
            "257d534010615c06a9fac2f2fa144326e249ba838044b01ad35e87adc3c04e35");
}

// pi_e over `entries` entries, proved at domain n.
std::string encryption_proof_digest(std::size_t entries, std::size_t n) {
  Drbg rng("golden-pi-e", 2);
  std::vector<Fr> plain;
  for (std::size_t i = 0; i < entries; ++i) plain.push_back(rng.random_fr());
  const Fr key = rng.random_fr();
  const Fr nonce = rng.random_fr();
  const Fr blinder = rng.random_fr();
  const gadgets::CircuitBuilder bld =
      core::build_encryption_circuit(plain, key, nonce, blinder);
  EXPECT_EQ(bld.cs().domain_size(), n);
  return proof_digest(bld.cs(), bld.witness(), n + 8, 3);
}

// pi_e over two entries: n = 2048, below the parallel NTT threshold.
TEST(PlonkGolden, EncryptionProofTwoEntries) {
  EXPECT_EQ(encryption_proof_digest(2, 2048),
            "25645c10c9da468d3a6b8b77ff1c923347b8b6ddb27de28c5affe1d92b67d742");
}

// pi_e over four entries: n = 4096, the parallel NTT threshold.
TEST(PlonkGolden, EncryptionProofFourEntries) {
  EXPECT_EQ(encryption_proof_digest(4, 4096),
            "aae563ae90e83b24586f7028cbc1c04292f8b29ede28057c804f56ea570669a9");
}

TEST(ConstraintSystem, DomainSizePadding) {
  ConstraintSystem cs;
  EXPECT_EQ(cs.domain_size(), 8u);
  const Var a = cs.add_variable();
  for (int i = 0; i < 9; ++i) {
    cs.add_gate({Fr::zero(), Fr::one(), Fr::zero(), Fr::zero(), Fr::zero(), a,
                 0, 0});
    // The prover's 4n quotient coset holds deg t = 3n + 5 only for n >= 6,
    // so no circuit may pad below 8 rows.
    EXPECT_GE(cs.domain_size(), 8u) << "rows=" << cs.num_rows();
  }
  EXPECT_EQ(cs.domain_size(), 16u);
}

TEST(Transcript, DeterministicAndOrderSensitive) {
  Transcript t1("test");
  Transcript t2("test");
  t1.absorb_u64(5);
  t2.absorb_u64(5);
  EXPECT_EQ(t1.challenge("c"), t2.challenge("c"));
  Transcript t3("test");
  t3.absorb_u64(6);
  EXPECT_NE(t1.challenge("d"), t3.challenge("d"));
}

TEST(Transcript, LabelSeparation) {
  Transcript t1("test");
  Transcript t2("test");
  EXPECT_NE(t1.challenge("alpha"), t2.challenge("beta"));
}

TEST(Srs, CommitmentIsHomomorphic) {
  Drbg rng(11);
  const Srs srs = Srs::setup(16, rng);
  const ff::Polynomial p{{Fr::from_u64(1), Fr::from_u64(2)}};
  const ff::Polynomial q{{Fr::from_u64(5), Fr::zero(), Fr::from_u64(3)}};
  EXPECT_EQ(srs.commit(p + q), srs.commit(p) + srs.commit(q));
}

TEST(Srs, EmptySrsHasZeroMaxDegree) {
  // Regression: max_degree() on a default-constructed Srs used to
  // compute g1_powers.size() - 1 == 2^64 - 1 (unsigned underflow),
  // making every "does the circuit fit" check pass vacuously.
  const Srs empty;
  EXPECT_EQ(empty.max_degree(), 0u);
}

TEST(Srs, PreprocessRejectsEmptySrs) {
  // Pre-fix, the underflowed max_degree() let preprocess proceed and
  // index past the end of the empty power table.
  CubicCircuit c(3);
  const Srs empty;
  EXPECT_FALSE(preprocess(c.cs, empty).has_value());
}

TEST(Srs, CommitEmptyPolynomialIsIdentity) {
  // Regression: commit() formatted coeffs.size() - 1 into its degree
  // check for empty input (underflow again); the zero polynomial must
  // commit to the identity instead.
  Drbg rng(13);
  const Srs srs = Srs::setup(8, rng);
  EXPECT_EQ(srs.commit(std::span<const Fr>{}), ec::G1::identity());
  EXPECT_EQ(srs.commit(ff::Polynomial{}), srs.commit(std::span<const Fr>{}));
}

TEST(Srs, AffinePowersMatchJacobian) {
  Drbg rng(14);
  const Srs srs = Srs::setup(8, rng);
  const auto affine = srs.g1_powers_affine();
  ASSERT_EQ(affine.size(), srs.g1_powers.size());
  for (std::size_t i = 0; i < affine.size(); ++i) {
    EXPECT_EQ(affine[i].to_jacobian(), srs.g1_powers[i]) << i;
  }
  // Copies share the lazily built cache (shared_ptr member).
  const Srs copy = srs;
  EXPECT_EQ(copy.g1_powers_affine().size(), affine.size());
}

TEST(Srs, PowersConsistent) {
  Drbg rng(12);
  const Srs srs = Srs::setup(8, rng);
  EXPECT_EQ(srs.g1_powers.size(), 9u);
  EXPECT_EQ(srs.g1_powers[0], ec::G1::generator());
  // e(tau^i G, H) == e(tau^(i-1) G, tau H)
  for (int i = 1; i < 4; ++i) {
    EXPECT_TRUE(ec::pairing_product_is_one(
        srs.g1_powers[static_cast<std::size_t>(i)], srs.g2_gen,
        -srs.g1_powers[static_cast<std::size_t>(i - 1)], srs.g2_tau));
  }
}

}  // namespace
}  // namespace zkdet::plonk
