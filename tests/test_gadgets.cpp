#include <gtest/gtest.h>

#include "crypto/mimc.hpp"
#include "crypto/rng.hpp"
#include "crypto/poseidon.hpp"
#include "gadgets/builder.hpp"
#include "gadgets/hash_gadgets.hpp"

namespace zkdet::gadgets {
namespace {

using ff::Fr;

TEST(Builder, ArithmeticTracksValues) {
  CircuitBuilder bld;
  const Wire a = bld.add_witness(Fr::from_u64(7));
  const Wire b = bld.add_witness(Fr::from_u64(5));
  EXPECT_EQ(bld.value(bld.add(a, b)), Fr::from_u64(12));
  EXPECT_EQ(bld.value(bld.sub(a, b)), Fr::from_u64(2));
  EXPECT_EQ(bld.value(bld.mul(a, b)), Fr::from_u64(35));
  EXPECT_EQ(bld.value(bld.neg(a)), -Fr::from_u64(7));
  EXPECT_EQ(bld.value(bld.scale(a, Fr::from_u64(3))), Fr::from_u64(21));
  EXPECT_EQ(bld.value(bld.add_constant(a, Fr::from_u64(100))),
            Fr::from_u64(107));
  EXPECT_EQ(bld.value(bld.mul_add(a, b, a)), Fr::from_u64(42));
  // 2*7*5 + 3*7 + 4*5 + 6
  EXPECT_EQ(bld.value(bld.arith(a, b, Fr::from_u64(2), Fr::from_u64(3),
                                Fr::from_u64(4), Fr::from_u64(6))),
            Fr::from_u64(117));
  EXPECT_TRUE(bld.witness_consistent());
}

TEST(Builder, ConstantsAndZero) {
  CircuitBuilder bld;
  EXPECT_EQ(bld.value(bld.zero()), Fr::zero());
  EXPECT_EQ(bld.value(bld.one()), Fr::one());
  EXPECT_EQ(bld.value(bld.constant(Fr::from_u64(42))), Fr::from_u64(42));
  EXPECT_TRUE(bld.witness_consistent());
}

TEST(Builder, SumAndInnerProduct) {
  CircuitBuilder bld;
  std::vector<Wire> xs, ys;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    xs.push_back(bld.add_witness(Fr::from_u64(i)));
    ys.push_back(bld.add_witness(Fr::from_u64(i * 10)));
  }
  EXPECT_EQ(bld.value(bld.sum(xs)), Fr::from_u64(15));
  // 1*10 + 2*20 + 3*30 + 4*40 + 5*50 = 550
  EXPECT_EQ(bld.value(bld.inner_product(xs, ys)), Fr::from_u64(550));
  EXPECT_TRUE(bld.witness_consistent());
}

TEST(Builder, AssertionsHoldAndBreak) {
  {
    CircuitBuilder bld;
    const Wire a = bld.add_witness(Fr::from_u64(5));
    bld.assert_constant(a, Fr::from_u64(5));
    EXPECT_TRUE(bld.witness_consistent());
  }
  {
    CircuitBuilder bld;
    const Wire a = bld.add_witness(Fr::from_u64(5));
    bld.assert_constant(a, Fr::from_u64(6));  // wrong
    EXPECT_FALSE(bld.witness_consistent());
  }
  {
    CircuitBuilder bld;
    const Wire a = bld.add_witness(Fr::from_u64(2));
    bld.assert_bool(a);  // 2 is not boolean
    EXPECT_FALSE(bld.witness_consistent());
  }
}

TEST(Builder, LogicGates) {
  for (const std::uint64_t av : {0u, 1u}) {
    for (const std::uint64_t bv : {0u, 1u}) {
      CircuitBuilder bld;
      const Wire a = bld.add_witness(Fr::from_u64(av));
      const Wire b = bld.add_witness(Fr::from_u64(bv));
      EXPECT_EQ(bld.value(bld.logic_and(a, b)), Fr::from_u64(av & bv));
      EXPECT_EQ(bld.value(bld.logic_or(a, b)), Fr::from_u64(av | bv));
      EXPECT_EQ(bld.value(bld.logic_xor(a, b)), Fr::from_u64(av ^ bv));
      EXPECT_EQ(bld.value(bld.logic_not(a)), Fr::from_u64(1 - av));
      EXPECT_TRUE(bld.witness_consistent());
    }
  }
}

TEST(Builder, Select) {
  CircuitBuilder bld;
  const Wire t = bld.add_witness(Fr::from_u64(10));
  const Wire f = bld.add_witness(Fr::from_u64(20));
  const Wire c1 = bld.add_witness(Fr::one());
  const Wire c0 = bld.add_witness(Fr::zero());
  EXPECT_EQ(bld.value(bld.select(c1, t, f)), Fr::from_u64(10));
  EXPECT_EQ(bld.value(bld.select(c0, t, f)), Fr::from_u64(20));
  EXPECT_TRUE(bld.witness_consistent());
}

TEST(Builder, IsZeroAndIsEqual) {
  CircuitBuilder bld;
  const Wire z = bld.add_witness(Fr::zero());
  const Wire nz = bld.add_witness(Fr::from_u64(77));
  EXPECT_EQ(bld.value(bld.is_zero(z)), Fr::one());
  EXPECT_EQ(bld.value(bld.is_zero(nz)), Fr::zero());
  const Wire a = bld.add_witness(Fr::from_u64(5));
  const Wire b = bld.add_witness(Fr::from_u64(5));
  const Wire c = bld.add_witness(Fr::from_u64(6));
  EXPECT_EQ(bld.value(bld.is_equal(a, b)), Fr::one());
  EXPECT_EQ(bld.value(bld.is_equal(a, c)), Fr::zero());
  EXPECT_TRUE(bld.witness_consistent());
}

TEST(Builder, IsZeroCannotBeForged) {
  // A dishonest witness claiming 77 == 0 must violate a constraint. We
  // emulate by rebuilding the witness vector with a flipped output bit.
  CircuitBuilder bld;
  const Wire nz = bld.add_witness(Fr::from_u64(77));
  const Wire out = bld.is_zero(nz);
  std::vector<Fr> forged = bld.witness();
  forged[out.var] = Fr::one();  // claim "is zero"
  EXPECT_FALSE(bld.cs().is_satisfied(forged));
}

TEST(Builder, BitsRoundtrip) {
  CircuitBuilder bld;
  const Wire a = bld.add_witness(Fr::from_u64(0b1011011));
  const auto bits = bld.to_bits(a, 8);
  ASSERT_EQ(bits.size(), 8u);
  EXPECT_EQ(bld.value(bits[0]), Fr::one());
  EXPECT_EQ(bld.value(bits[2]), Fr::zero());
  const Wire back = bld.from_bits(bits);
  EXPECT_EQ(bld.value(back), Fr::from_u64(0b1011011));
  EXPECT_TRUE(bld.witness_consistent());
}

TEST(Builder, RangeCheckRejectsOverflow) {
  CircuitBuilder bld;
  const Wire a = bld.add_witness(Fr::from_u64(256));
  bld.assert_range(a, 8);  // 256 needs 9 bits
  EXPECT_FALSE(bld.witness_consistent());
}

TEST(Builder, Comparisons) {
  const auto check = [](std::uint64_t x, std::uint64_t y, bool expect_lt) {
    CircuitBuilder bld;
    const Wire a = bld.add_witness(Fr::from_u64(x));
    const Wire b = bld.add_witness(Fr::from_u64(y));
    const Wire lt = bld.less_than(a, b, 16);
    EXPECT_EQ(bld.value(lt), expect_lt ? Fr::one() : Fr::zero())
        << x << " < " << y;
    EXPECT_TRUE(bld.witness_consistent());
  };
  check(3, 5, true);
  check(5, 3, false);
  check(4, 4, false);
  check(0, 1, true);
  check(65535, 65535, false);
  check(0, 65535, true);
}

TEST(Builder, AssertLeq) {
  {
    CircuitBuilder bld;
    const Wire a = bld.add_witness(Fr::from_u64(7));
    const Wire b = bld.add_witness(Fr::from_u64(7));
    bld.assert_leq(a, b, 8);
    EXPECT_TRUE(bld.witness_consistent());
  }
  {
    CircuitBuilder bld;
    const Wire a = bld.add_witness(Fr::from_u64(8));
    const Wire b = bld.add_witness(Fr::from_u64(7));
    bld.assert_leq(a, b, 8);
    EXPECT_FALSE(bld.witness_consistent());
  }
}

// --- hash gadget / native consistency (the load-bearing property: what
// is proven in-circuit is exactly what the protocol computes natively) ---

class HashGadgetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HashGadgetSweep, MimcMatchesNative) {
  crypto::Drbg rng(GetParam());
  const Fr k = rng.random_fr();
  const Fr m = rng.random_fr();
  CircuitBuilder bld;
  const Wire kw = bld.add_witness(k);
  const Wire mw = bld.add_witness(m);
  const Wire out = mimc_block_gadget(bld, kw, mw);
  EXPECT_EQ(bld.value(out), crypto::mimc_encrypt_block(k, m));
  EXPECT_TRUE(bld.witness_consistent());
}

TEST_P(HashGadgetSweep, MimcCtrMatchesNative) {
  crypto::Drbg rng(GetParam() + 100);
  const Fr k = rng.random_fr();
  const Fr nonce = rng.random_fr();
  std::vector<Fr> plain;
  for (int i = 0; i < 3; ++i) plain.push_back(rng.random_fr());
  CircuitBuilder bld;
  const Wire kw = bld.add_witness(k);
  const Wire nw = bld.add_witness(nonce);
  std::vector<Wire> pw;
  for (const Fr& p : plain) pw.push_back(bld.add_witness(p));
  const auto ct = mimc_ctr_encrypt_gadget(bld, kw, nw, pw);
  const auto native = crypto::mimc_ctr_encrypt(k, nonce, plain);
  ASSERT_EQ(ct.size(), native.size());
  for (std::size_t i = 0; i < ct.size(); ++i) {
    EXPECT_EQ(bld.value(ct[i]), native[i]);
  }
  EXPECT_TRUE(bld.witness_consistent());
}

std::vector<Wire> witnesses(CircuitBuilder& bld, const std::vector<Fr>& xs) {
  std::vector<Wire> out;
  for (const Fr& x : xs) out.push_back(bld.add_witness(x));
  return out;
}

std::vector<Fr> random_frs(crypto::Drbg& rng, std::size_t n) {
  std::vector<Fr> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.random_fr());
  return out;
}

// Lengths 0-17 cover no input, one and two inputs in the first
// permutation, and up to nine permutations.
TEST_P(HashGadgetSweep, PoseidonMatchesNative) {
  crypto::Drbg rng(GetParam() + 200);
  for (const std::uint64_t tag : {9ull, 2ull}) {
    for (std::size_t len = 0; len <= 17; ++len) {
      const std::vector<Fr> input = random_frs(rng, len);
      CircuitBuilder bld;
      const Wire out = poseidon_hash_gadget(bld, witnesses(bld, input), tag);
      EXPECT_EQ(bld.value(out), crypto::poseidon_hash(input, tag))
          << "len=" << len << " tag=" << tag;
      EXPECT_TRUE(bld.witness_consistent()) << "len=" << len;
    }
  }
}

TEST_P(HashGadgetSweep, PoseidonCommitMatchesNative) {
  crypto::Drbg rng(GetParam() + 300);
  for (const std::size_t entries : {2u, 3u, 4u, 8u, 16u}) {
    const std::vector<Fr> msg = random_frs(rng, entries);
    const Fr blinder = rng.random_fr();
    CircuitBuilder bld;
    const std::vector<Wire> mw = witnesses(bld, msg);
    const Wire c = poseidon_commit_gadget(bld, mw, bld.add_witness(blinder));
    EXPECT_EQ(bld.value(c),
              crypto::PoseidonCommitment::commit_with(msg, blinder))
        << "entries=" << entries;
    EXPECT_TRUE(bld.witness_consistent());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashGadgetSweep, ::testing::Values(1, 2, 3));

// The gadget's gates form a straight-line program: each creates one
// wire as its output (qo != 0) from wires created before it, so the
// inputs determine every wire and the hash. A wire taken from the
// witness without a defining gate would fail this even when it still
// feeds a gate. Also, changing any single created wire fails the
// circuit. Three inputs cover an absorb into the lazy state between two
// permutations.
TEST(PoseidonGadget, EveryCreatedWireIsDeterminedByTheInputs) {
  crypto::Drbg rng(402);
  CircuitBuilder bld;
  const std::vector<Wire> in = witnesses(bld, random_frs(rng, 3));
  const std::size_t first = bld.cs().num_variables();
  (void)poseidon_hash_gadget(bld, in, /*domain_tag=*/5);
  ASSERT_TRUE(bld.witness_consistent());

  std::vector<Fr> w = bld.witness();
  std::vector<std::size_t> defining(w.size(), 0);
  for (const plonk::Gate& g : bld.cs().gates()) {
    ASSERT_GE(g.c, first);
    ASSERT_FALSE(g.qo.is_zero());
    ASSERT_LT(g.a, g.c);
    ASSERT_LT(g.b, g.c);
    ++defining[g.c];
  }
  std::size_t accepted = 0;
  for (std::size_t v = first; v < w.size(); ++v) {
    EXPECT_EQ(defining[v], 1u) << "wire " << v;
    w[v] += Fr::one();
    if (bld.cs().is_satisfied(w)) ++accepted;
    w[v] -= Fr::one();
  }
  EXPECT_EQ(accepted, 0u) << "of " << w.size() - first << " created wires";
}

// Row budget: a later gadget edit must not push a proof back over a
// power of two (tests/test_circuits.cpp pins the domains).
TEST(PoseidonGadget, RowsPerPermutation) {
  const auto rows = [](std::size_t len) {
    CircuitBuilder bld;
    const std::vector<Wire> in =
        witnesses(bld, std::vector<Fr>(len, Fr::from_u64(3)));
    (void)poseidon_hash_gadget(bld, in, /*domain_tag=*/0);
    return bld.num_gates();
  };
  EXPECT_LE(rows(1), 545u);
  EXPECT_LE(rows(2), 545u);
  // Each further pair of inputs is one more permutation.
  EXPECT_LE(rows(4) - rows(2), 545u);
  EXPECT_LE(rows(16) - rows(14), 545u);
}

TEST(MerkleGadget, RootMatchesNative) {
  crypto::Drbg rng(9);
  // depth-3 tree over 8 leaves, verify leaf 5's path
  std::vector<Fr> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(rng.random_fr());
  std::vector<Fr> level = leaves;
  std::vector<std::vector<Fr>> levels{level};
  while (level.size() > 1) {
    std::vector<Fr> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      next.push_back(crypto::poseidon_hash2(level[i], level[i + 1]));
    }
    level = next;
    levels.push_back(level);
  }
  const Fr root = level[0];
  const std::size_t leaf_idx = 5;
  std::vector<Fr> siblings;
  std::vector<bool> dirs;
  std::size_t idx = leaf_idx;
  for (std::size_t d = 0; d < 3; ++d) {
    siblings.push_back(levels[d][idx ^ 1]);
    dirs.push_back((idx & 1) != 0);  // 1 = current node is right child
    idx >>= 1;
  }
  CircuitBuilder bld;
  const Wire leaf = bld.add_witness(leaves[leaf_idx]);
  std::vector<Wire> sw, dw;
  for (std::size_t d = 0; d < 3; ++d) {
    sw.push_back(bld.add_witness(siblings[d]));
    dw.push_back(bld.add_witness(dirs[d] ? Fr::one() : Fr::zero()));
  }
  const Wire computed = merkle_root_gadget(bld, leaf, sw, dw);
  EXPECT_EQ(bld.value(computed), root);
  EXPECT_TRUE(bld.witness_consistent());
}

TEST(MerkleGadget, WrongSiblingChangesRoot) {
  crypto::Drbg rng(10);
  CircuitBuilder bld;
  const Wire leaf = bld.add_witness(rng.random_fr());
  const Wire sib = bld.add_witness(rng.random_fr());
  const Wire dir = bld.add_witness(Fr::zero());
  const Wire root1 = merkle_root_gadget(bld, leaf, {&sib, 1}, {&dir, 1});
  const Wire sib2 = bld.add_witness(bld.value(sib) + Fr::one());
  const Wire root2 = merkle_root_gadget(bld, leaf, {&sib2, 1}, {&dir, 1});
  EXPECT_NE(bld.value(root1), bld.value(root2));
}

}  // namespace
}  // namespace zkdet::gadgets
