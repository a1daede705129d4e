#include <gtest/gtest.h>

#include "core/circuits.hpp"
#include "crypto/mimc.hpp"
#include "crypto/rng.hpp"
#include "plonk/plonk.hpp"

namespace zkdet::core {
namespace {

using crypto::Drbg;
using ff::Fr;
using gadgets::CircuitBuilder;

struct CircuitFixture : ::testing::Test {
  static const plonk::Srs& srs() {
    static const plonk::Srs s = [] {
      Drbg rng(1);
      return plonk::Srs::setup((1 << 14) + 16, rng);
    }();
    return s;
  }

  Drbg rng{2};

  // Proves and verifies a builder circuit; returns (verified-ok,
  // tampered-public-rejected).
  std::pair<bool, bool> roundtrip(const CircuitBuilder& bld) {
    auto keys = plonk::preprocess(bld.cs(), srs());
    if (!keys) return {false, false};
    auto proof =
        plonk::prove(keys->pk, bld.cs(), srs(), bld.witness(), rng);
    if (!proof) return {false, false};
    std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
    const bool ok = plonk::verify(keys->vk, pubs, *proof);
    pubs[0] += Fr::one();
    const bool tampered = plonk::verify(keys->vk, pubs, *proof);
    return {ok, !tampered};
  }

  std::vector<Fr> make_data(std::size_t n) {
    std::vector<Fr> d;
    for (std::size_t i = 0; i < n; ++i) d.push_back(rng.random_fr());
    return d;
  }
};

TEST_F(CircuitFixture, EncryptionCircuitMatchesNativeCiphertext) {
  const std::vector<Fr> plain = make_data(4);
  const Fr key = rng.random_fr();
  const Fr nonce = rng.random_fr();
  const Fr blinder = rng.random_fr();
  CircuitBuilder bld = build_encryption_circuit(plain, key, nonce, blinder);
  EXPECT_TRUE(bld.witness_consistent());

  const std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  // layout: nonce, commitment, ciphertext...
  ASSERT_EQ(pubs.size(), 2 + plain.size());
  EXPECT_EQ(pubs[0], nonce);
  EXPECT_EQ(pubs[1], commit_dataset(plain, blinder));
  const auto native_ct = crypto::mimc_ctr_encrypt(key, nonce, plain);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(pubs[2 + i], native_ct[i]);
  }
  const auto [ok, tamper_rejected] = roundtrip(bld);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(tamper_rejected);
}

TEST_F(CircuitFixture, EncryptionCircuitWrongCommitmentFails) {
  const std::vector<Fr> plain = make_data(4);
  CircuitBuilder bld = build_encryption_circuit(plain, rng.random_fr(),
                                                rng.random_fr(),
                                                rng.random_fr());
  auto keys = plonk::preprocess(bld.cs(), srs());
  ASSERT_TRUE(keys);
  auto proof = plonk::prove(keys->pk, bld.cs(), srs(), bld.witness(), rng);
  ASSERT_TRUE(proof);
  std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  pubs[1] += Fr::one();  // claim a different dataset commitment
  EXPECT_FALSE(plonk::verify(keys->vk, pubs, *proof));
  // or a different ciphertext element
  std::vector<Fr> pubs2 = bld.cs().extract_public_inputs(bld.witness());
  pubs2[3] += Fr::one();
  EXPECT_FALSE(plonk::verify(keys->vk, pubs2, *proof));
}

TEST_F(CircuitFixture, DuplicationCircuit) {
  const std::vector<Fr> src = make_data(4);
  const Fr o_s = rng.random_fr();
  const Fr o_d = rng.random_fr();
  CircuitBuilder bld = build_duplication_circuit(src, o_s, o_d);
  EXPECT_TRUE(bld.witness_consistent());
  const std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  ASSERT_EQ(pubs.size(), 2u);
  EXPECT_EQ(pubs[0], commit_dataset(src, o_s));
  EXPECT_EQ(pubs[1], commit_dataset(src, o_d));
  EXPECT_NE(pubs[0], pubs[1]);  // blinders differ -> hiding
  const auto [ok, tamper_rejected] = roundtrip(bld);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(tamper_rejected);
}

TEST_F(CircuitFixture, AggregationCircuitConcatenates) {
  const std::vector<std::vector<Fr>> sources{make_data(2), make_data(3),
                                             make_data(1)};
  const std::vector<Fr> blinders{rng.random_fr(), rng.random_fr(),
                                 rng.random_fr()};
  const Fr o_d = rng.random_fr();
  CircuitBuilder bld = build_aggregation_circuit(sources, blinders, o_d);
  EXPECT_TRUE(bld.witness_consistent());
  const std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  ASSERT_EQ(pubs.size(), 4u);
  std::vector<Fr> concat;
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(pubs[k], commit_dataset(sources[k], blinders[k]));
    concat.insert(concat.end(), sources[k].begin(), sources[k].end());
  }
  EXPECT_EQ(pubs[3], commit_dataset(concat, o_d));
  const auto [ok, tamper_rejected] = roundtrip(bld);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(tamper_rejected);
}

TEST_F(CircuitFixture, PartitionCircuitSplits) {
  const std::vector<Fr> src = make_data(6);
  const std::vector<std::size_t> sizes{2, 3, 1};
  const Fr o_s = rng.random_fr();
  const std::vector<Fr> o_d{rng.random_fr(), rng.random_fr(), rng.random_fr()};
  CircuitBuilder bld = build_partition_circuit(src, sizes, o_s, o_d);
  EXPECT_TRUE(bld.witness_consistent());
  const std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  ASSERT_EQ(pubs.size(), 4u);
  EXPECT_EQ(pubs[0], commit_dataset(src, o_s));
  EXPECT_EQ(pubs[1], commit_dataset({src[0], src[1]}, o_d[0]));
  EXPECT_EQ(pubs[2], commit_dataset({src[2], src[3], src[4]}, o_d[1]));
  EXPECT_EQ(pubs[3], commit_dataset({src[5]}, o_d[2]));
  const auto [ok, tamper_rejected] = roundtrip(bld);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(tamper_rejected);
}

TEST_F(CircuitFixture, ProcessingCircuitWithCustomTransform) {
  const std::vector<Fr> src = make_data(3);
  const Fr o_s = rng.random_fr();
  const Fr o_d = rng.random_fr();
  // transform: derived = [sum of squares]
  const TransformGadget square_sum =
      [](CircuitBuilder& bld,
         std::span<const gadgets::Wire> s) -> std::vector<gadgets::Wire> {
    gadgets::Wire acc = bld.zero();
    for (const auto w : s) acc = bld.add(acc, bld.mul(w, w));
    return {acc};
  };
  CircuitBuilder bld = build_processing_circuit(src, o_s, o_d, square_sum);
  EXPECT_TRUE(bld.witness_consistent());
  Fr expect = Fr::zero();
  for (const Fr& x : src) expect += x * x;
  const std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  EXPECT_EQ(pubs[1], commit_dataset({expect}, o_d));
  const auto [ok, tamper_rejected] = roundtrip(bld);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(tamper_rejected);
}

TEST_F(CircuitFixture, ExchangeDataCircuitWithPredicate) {
  // phi: every entry below 2^32 (range predicate a seller might publish)
  std::vector<Fr> plain;
  for (int i = 0; i < 4; ++i) {
    plain.push_back(Fr::from_u64(1000 + static_cast<std::uint64_t>(i)));
  }
  const Predicate phi = [](CircuitBuilder& bld,
                           std::span<const gadgets::Wire> data) {
    for (const auto w : data) bld.assert_range(w, 32);
  };
  CircuitBuilder bld = build_exchange_data_circuit(
      plain, rng.random_fr(), rng.random_fr(), rng.random_fr(), phi);
  EXPECT_TRUE(bld.witness_consistent());
  const auto [ok, tamper_rejected] = roundtrip(bld);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(tamper_rejected);
}

TEST_F(CircuitFixture, ExchangeDataCircuitPredicateViolationUnprovable) {
  // An entry outside the range: the witness no longer satisfies the
  // circuit, so the prover refuses (seller cannot prove false phi).
  std::vector<Fr> plain{Fr::from_u64(5), -Fr::one(), Fr::from_u64(7),
                        Fr::from_u64(8)};
  const Predicate phi = [](CircuitBuilder& bld,
                           std::span<const gadgets::Wire> data) {
    for (const auto w : data) bld.assert_range(w, 32);
  };
  CircuitBuilder bld = build_exchange_data_circuit(
      plain, rng.random_fr(), rng.random_fr(), rng.random_fr(), phi);
  EXPECT_FALSE(bld.witness_consistent());
  auto keys = plonk::preprocess(bld.cs(), srs());
  ASSERT_TRUE(keys);
  EXPECT_FALSE(
      plonk::prove(keys->pk, bld.cs(), srs(), bld.witness(), rng).has_value());
}

TEST_F(CircuitFixture, KeyCircuitRelation) {
  const Fr k = rng.random_fr();
  const Fr o = rng.random_fr();
  const Fr k_v = rng.random_fr();
  CircuitBuilder bld = build_key_circuit(k, o, k_v);
  EXPECT_TRUE(bld.witness_consistent());
  const std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  ASSERT_EQ(pubs.size(), 3u);
  EXPECT_EQ(pubs[0], k + k_v);
  EXPECT_EQ(pubs[1], commit_key(k, o));
  EXPECT_EQ(pubs[2], hash_key(k_v));
  const auto [ok, tamper_rejected] = roundtrip(bld);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(tamper_rejected);
}

TEST_F(CircuitFixture, KeyCircuitBindsEachPublicInput) {
  const Fr k = rng.random_fr();
  const Fr o = rng.random_fr();
  const Fr k_v = rng.random_fr();
  CircuitBuilder bld = build_key_circuit(k, o, k_v);
  auto keys = plonk::preprocess(bld.cs(), srs());
  auto proof = plonk::prove(keys->pk, bld.cs(), srs(), bld.witness(), rng);
  ASSERT_TRUE(proof);
  const std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<Fr> bad = pubs;
    bad[i] += Fr::one();
    EXPECT_FALSE(plonk::verify(keys->vk, bad, *proof)) << "public " << i;
  }
}

TEST_F(CircuitFixture, CircuitShapeIsValueIndependent) {
  // Two instances with different values must produce identical gate
  // structure (needed for key caching).
  const auto shape = [](const CircuitBuilder& bld) {
    return std::make_pair(bld.cs().num_rows(), bld.cs().num_variables());
  };
  const auto same_gates = [](const CircuitBuilder& x, const CircuitBuilder& y) {
    const auto& gx = x.cs().gates();
    const auto& gy = y.cs().gates();
    if (gx.size() != gy.size()) return false;
    for (std::size_t i = 0; i < gx.size(); ++i) {
      const plonk::Gate& a = gx[i];
      const plonk::Gate& b = gy[i];
      if (a.qm != b.qm || a.ql != b.ql || a.qr != b.qr || a.qo != b.qo ||
          a.qc != b.qc || a.a != b.a || a.b != b.b || a.c != b.c) {
        return false;
      }
    }
    return x.cs().public_vars() == y.cs().public_vars();
  };
  CircuitBuilder a =
      build_key_circuit(rng.random_fr(), rng.random_fr(), rng.random_fr());
  CircuitBuilder b = build_key_circuit(Fr::one(), Fr::one(), Fr::one());
  EXPECT_EQ(shape(a), shape(b));

  const std::vector<Fr> d1 = make_data(4);
  const std::vector<Fr> d2(4, Fr::from_u64(9));
  CircuitBuilder e1 = build_encryption_circuit(d1, rng.random_fr(),
                                               rng.random_fr(),
                                               rng.random_fr());
  CircuitBuilder e2 =
      build_encryption_circuit(d2, Fr::one(), Fr::one(), Fr::one());
  EXPECT_EQ(shape(e1), shape(e2));
  EXPECT_TRUE(same_gates(a, b));
  EXPECT_TRUE(same_gates(e1, e2));

  CircuitBuilder t1 =
      build_duplication_circuit(d1, rng.random_fr(), rng.random_fr());
  CircuitBuilder t2 = build_duplication_circuit(d2, Fr::one(), Fr::zero());
  EXPECT_TRUE(same_gates(t1, t2));

  CircuitBuilder g1 = build_aggregation_circuit(
      {make_data(2), make_data(3)}, {rng.random_fr(), rng.random_fr()},
      rng.random_fr());
  CircuitBuilder g2 = build_aggregation_circuit(
      {{Fr::zero(), Fr::zero()}, {Fr::one(), Fr::one(), Fr::one()}},
      {Fr::one(), Fr::one()}, Fr::zero());
  EXPECT_TRUE(same_gates(g1, g2));

  const std::vector<std::size_t> sizes{1, 3};
  CircuitBuilder p1 = build_partition_circuit(
      d1, sizes, rng.random_fr(), {rng.random_fr(), rng.random_fr()});
  CircuitBuilder p2 =
      build_partition_circuit(d2, sizes, Fr::zero(), {Fr::one(), Fr::one()});
  EXPECT_TRUE(same_gates(p1, p2));
}

// Row budget of the proofs in one exchange (publish pi_e, offer pi_p,
// settle pi_k) and of pi_t: each must stay in the power-of-two domain
// the Poseidon gadget's row count gives it.
TEST_F(CircuitFixture, ExchangeProofsStayInTheirDomains) {
  const auto pi_e = [&](std::size_t entries) {
    return build_encryption_circuit(make_data(entries), rng.random_fr(),
                                    rng.random_fr(), rng.random_fr());
  };
  const auto pi_p = [&](std::size_t entries) {
    return build_exchange_data_circuit(make_data(entries), rng.random_fr(),
                                       rng.random_fr(), rng.random_fr(),
                                       nullptr);
  };
  const auto n = [](const CircuitBuilder& bld) {
    return bld.cs().domain_size();
  };
  EXPECT_EQ(n(pi_e(2)), 2048u);
  EXPECT_EQ(n(pi_p(2)), 2048u);
  EXPECT_EQ(n(pi_e(8)), 8192u);
  EXPECT_EQ(n(pi_p(8)), 8192u);
  EXPECT_EQ(n(build_duplication_circuit(make_data(8), rng.random_fr(),
                                        rng.random_fr())),
            8192u);
  EXPECT_EQ(n(build_key_circuit(rng.random_fr(), rng.random_fr(),
                                rng.random_fr())),
            2048u);
}

TEST_F(CircuitFixture, KeysCanBeReusedAcrossInstances) {
  // Keys preprocessed from one instance verify proofs of another.
  CircuitBuilder a =
      build_key_circuit(Fr::one(), Fr::from_u64(2), Fr::from_u64(3));
  auto keys = plonk::preprocess(a.cs(), srs());
  ASSERT_TRUE(keys);
  const Fr k = rng.random_fr(), o = rng.random_fr(), kv = rng.random_fr();
  CircuitBuilder b = build_key_circuit(k, o, kv);
  auto proof = plonk::prove(keys->pk, b.cs(), srs(), b.witness(), rng);
  ASSERT_TRUE(proof);
  EXPECT_TRUE(plonk::verify(keys->vk,
                            b.cs().extract_public_inputs(b.witness()), *proof));
}

}  // namespace
}  // namespace zkdet::core
