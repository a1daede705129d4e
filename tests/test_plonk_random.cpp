// Property tests: randomly generated circuits must roundtrip through
// both proof systems, and every mutation class must be rejected.
#include <gtest/gtest.h>

#include <random>

#include "gadgets/builder.hpp"
#include "plonk/groth16.hpp"
#include "plonk/plonk.hpp"

namespace zkdet::plonk {
namespace {

using crypto::Drbg;
using ff::Fr;
using gadgets::CircuitBuilder;
using gadgets::Wire;

// Builds a random arithmetic circuit: a pool of wires grown by randomly
// chosen operations, with a random subset of intermediate values
// exposed as public inputs.
CircuitBuilder random_circuit(std::uint64_t seed, std::size_t ops) {
  std::mt19937_64 rng(seed);
  CircuitBuilder bld;
  std::vector<Wire> pool;
  for (int i = 0; i < 4; ++i) {
    pool.push_back(bld.add_witness(Fr::from_u64(rng() % 1000)));
  }
  for (std::size_t i = 0; i < ops; ++i) {
    const Wire a = pool[rng() % pool.size()];
    const Wire b = pool[rng() % pool.size()];
    switch (rng() % 5) {
      case 0: pool.push_back(bld.add(a, b)); break;
      case 1: pool.push_back(bld.sub(a, b)); break;
      case 2: pool.push_back(bld.mul(a, b)); break;
      case 3: pool.push_back(bld.scale(a, Fr::from_u64(rng() % 97 + 1))); break;
      case 4: pool.push_back(bld.add_constant(a, Fr::from_u64(rng() % 97))); break;
    }
    if (rng() % 7 == 0) {
      // expose this intermediate value publicly
      const Wire pub = bld.add_public_input(bld.value(pool.back()));
      bld.assert_equal(pub, pool.back());
    }
  }
  // always expose the final value
  const Wire out = bld.add_public_input(bld.value(pool.back()));
  bld.assert_equal(out, pool.back());
  return bld;
}

class RandomCircuitSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuitSweep, PlonkRoundtripAndTamper) {
  Drbg rng(GetParam());
  const CircuitBuilder bld = random_circuit(GetParam(), 40);
  ASSERT_TRUE(bld.witness_consistent());
  const Srs srs = Srs::setup(bld.cs().domain_size() + 16, rng);
  const auto keys = preprocess(bld.cs(), srs);
  ASSERT_TRUE(keys);
  const auto proof = prove(keys->pk, bld.cs(), srs, bld.witness(), rng);
  ASSERT_TRUE(proof);
  std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  EXPECT_TRUE(verify(keys->vk, pubs, *proof));
  // mutate each public input in turn
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    std::vector<Fr> bad = pubs;
    bad[i] += Fr::one();
    EXPECT_FALSE(verify(keys->vk, bad, *proof)) << "public input " << i;
  }
}

TEST_P(RandomCircuitSweep, Groth16RoundtripAndTamper) {
  Drbg rng(GetParam() + 1000);
  const CircuitBuilder bld = random_circuit(GetParam() + 1000, 30);
  ASSERT_TRUE(bld.witness_consistent());
  const auto keys = groth16::setup(bld.cs(), rng);
  ASSERT_TRUE(keys);
  const auto proof = groth16::prove(keys->pk, bld.cs(), bld.witness(), rng);
  ASSERT_TRUE(proof);
  std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  EXPECT_TRUE(groth16::verify(keys->vk, pubs, *proof));
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    std::vector<Fr> bad = pubs;
    bad[i] += Fr::one();
    EXPECT_FALSE(groth16::verify(keys->vk, bad, *proof)) << "public " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(PlonkEdgeCases, NoPublicInputs) {
  // A circuit with zero public inputs verifies against an empty vector.
  Drbg rng(1);
  CircuitBuilder bld;
  const Wire a = bld.add_witness(Fr::from_u64(6));
  const Wire b = bld.add_witness(Fr::from_u64(7));
  const Wire c = bld.mul(a, b);
  bld.assert_constant(c, Fr::from_u64(42));
  const Srs srs = Srs::setup(bld.cs().domain_size() + 16, rng);
  const auto keys = preprocess(bld.cs(), srs);
  ASSERT_TRUE(keys);
  const auto proof = prove(keys->pk, bld.cs(), srs, bld.witness(), rng);
  ASSERT_TRUE(proof);
  EXPECT_TRUE(verify(keys->vk, {}, *proof));
  EXPECT_FALSE(verify(keys->vk, {Fr::one()}, *proof));
}

TEST(PlonkEdgeCases, SingleGateCircuit) {
  Drbg rng(2);
  ConstraintSystem cs;
  const Var a = cs.add_variable();
  cs.set_public(a);
  cs.add_gate({Fr::zero(), Fr::one(), Fr::zero(), Fr::zero(), -Fr::from_u64(9),
               a, 0, 0});
  const Srs srs = Srs::setup(cs.domain_size() + 16, rng);
  const auto keys = preprocess(cs, srs);
  ASSERT_TRUE(keys);
  const auto proof = prove(keys->pk, cs, srs, {Fr::zero(), Fr::from_u64(9)},
                           rng);
  ASSERT_TRUE(proof);
  EXPECT_TRUE(verify(keys->vk, {Fr::from_u64(9)}, *proof));
}

TEST(PlonkEdgeCases, ProofSerializationRoundtrip) {
  Drbg rng(4);
  const CircuitBuilder bld = random_circuit(789, 25);
  const Srs srs = Srs::setup(bld.cs().domain_size() + 16, rng);
  const auto keys = preprocess(bld.cs(), srs);
  ASSERT_TRUE(keys);
  const auto proof = prove(keys->pk, bld.cs(), srs, bld.witness(), rng);
  ASSERT_TRUE(proof);
  const auto bytes = proof->to_bytes();
  const auto back = Proof::from_bytes(bytes);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->to_bytes(), bytes);
  const std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());
  EXPECT_TRUE(verify(keys->vk, pubs, *back));
  // malformed encodings rejected
  EXPECT_FALSE(Proof::from_bytes({bytes.data(), bytes.size() - 1}));
  auto corrupt = bytes;
  corrupt[3] ^= 0xFF;  // breaks the first point's x coordinate
  EXPECT_FALSE(Proof::from_bytes(corrupt).has_value());
  auto bad_fr = bytes;
  std::fill(bad_fr.end() - 32, bad_fr.end(), 0xFF);  // non-canonical Fr
  EXPECT_FALSE(Proof::from_bytes(bad_fr).has_value());
}

TEST(PlonkEdgeCases, PointSerializationRejectsOffCurve) {
  std::vector<std::uint8_t> junk(64, 0x01);
  EXPECT_FALSE(ec::g1_from_bytes(junk).has_value());
  const auto id = ec::g1_from_bytes(std::vector<std::uint8_t>(64, 0));
  ASSERT_TRUE(id);
  EXPECT_TRUE(id->is_identity());
  const auto gen = ec::g1_from_bytes(ec::g1_to_bytes(ec::G1Affine::generator()));
  ASSERT_TRUE(gen);
  EXPECT_EQ(*gen, ec::G1Affine::generator());
  const auto gen2 = ec::g2_from_bytes(ec::g2_to_bytes(ec::G2::generator()));
  ASSERT_TRUE(gen2);
  EXPECT_EQ(*gen2, ec::G2::generator());
}

TEST(PlonkEdgeCases, ProofForOneCircuitRejectsAnotherVk) {
  Drbg rng(3);
  const CircuitBuilder bld1 = random_circuit(123, 20);
  const CircuitBuilder bld2 = random_circuit(456, 20);
  const Srs srs = Srs::setup(
      std::max(bld1.cs().domain_size(), bld2.cs().domain_size()) + 16, rng);
  const auto k1 = preprocess(bld1.cs(), srs);
  const auto k2 = preprocess(bld2.cs(), srs);
  ASSERT_TRUE(k1 && k2);
  const auto proof = prove(k1->pk, bld1.cs(), srs, bld1.witness(), rng);
  ASSERT_TRUE(proof);
  // verifying against the wrong circuit's keys must fail even with the
  // right-arity public input vector
  std::vector<Fr> pubs2(bld2.cs().public_vars().size(), Fr::one());
  EXPECT_FALSE(verify(k2->vk, pubs2, *proof));
}

}  // namespace
}  // namespace zkdet::plonk
