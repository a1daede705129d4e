// ZkdetSystem deployment, key-cache behavior, and arbiter sharding.
#include <gtest/gtest.h>

#include "core/circuits.hpp"
#include "core/exchange.hpp"
#include "core/system.hpp"

namespace zkdet::core {
namespace {

using crypto::Drbg;
using crypto::KeyPair;
using ff::Fr;

struct SystemFixture : ::testing::Test {
  static ZkdetSystem& sys() {
    static ZkdetSystem s(1 << 12, 99);
    return s;
  }
};

TEST_F(SystemFixture, DeploysAllContracts) {
  EXPECT_EQ(sys().nft().name(), "DataNFT");
  EXPECT_EQ(sys().auction().name(), "ClockAuction");
  EXPECT_EQ(sys().arbiter().name(), "KeySecureArbiter");
  EXPECT_EQ(sys().zkcp_arbiter().name(), "ZkcpArbiter");
  EXPECT_EQ(sys().key_verifier().name(), "PlonkVerifier(pi_k)");
  // deployments are recorded as blocks
  EXPECT_GE(sys().chain().blocks().size(), 6u);
  EXPECT_TRUE(sys().chain().validate_chain());
}

TEST_F(SystemFixture, PiKShapePreprocessedAtBoot) {
  // The key circuit's keys exist without anyone proving yet.
  EXPECT_NE(sys().find_keys("pi_k"), nullptr);
  EXPECT_EQ(sys().find_keys("nonexistent-shape"), nullptr);
}

TEST_F(SystemFixture, KeyCacheReturnsSameInstance) {
  gadgets::CircuitBuilder a =
      build_key_circuit(Fr::one(), Fr::from_u64(2), Fr::from_u64(3));
  const auto& k1 = sys().keys_for("pi_k", a.cs());
  const auto& k2 = sys().keys_for("pi_k", a.cs());
  EXPECT_EQ(&k1, &k2);  // cached, not re-preprocessed
}

// A job submitted straight to the prover service preprocesses its shape
// on the worker; the system's lookups see those keys, the same instance
// keys_for hands out.
TEST_F(SystemFixture, FindKeysSeesKeysPreprocessedByAJob) {
  const gadgets::CircuitBuilder bld =
      build_key_circuit(Fr::from_u64(4), Fr::from_u64(5), Fr::from_u64(6));
  const std::string shape = "pi_k/submitted";
  ASSERT_EQ(sys().find_keys(shape), nullptr);
  runtime::ProofJob job;
  job.circuit_id = shape;
  job.cs = std::make_shared<const plonk::ConstraintSystem>(bld.cs());
  job.witness = bld.witness();
  job.rng = Drbg(31);
  ASSERT_TRUE(sys().prover().submit(std::move(job)).get().proof.has_value());
  const plonk::KeyPairResult* keys = sys().find_keys(shape);
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(keys, &sys().keys_for(shape, bld.cs()));
}

TEST_F(SystemFixture, OversizedCircuitThrows) {
  gadgets::CircuitBuilder bld;
  gadgets::Wire x = bld.add_witness(Fr::one());
  for (int i = 0; i < 5000; ++i) x = bld.add_constant(x, Fr::one());
  EXPECT_THROW(sys().keys_for("too-big", bld.cs()), std::runtime_error);
}

TEST_F(SystemFixture, SrsSupportsStatedBound) {
  EXPECT_GE(sys().srs().max_degree(), (1u << 12) + 8u);
}

TEST_F(SystemFixture, VerifierVkMatchesCachedKeys) {
  const auto* keys = sys().find_keys("pi_k");
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(sys().key_verifier().vk().n, keys->vk.n);
  EXPECT_EQ(sys().key_verifier().vk().ell, keys->vk.ell);
}

// --- arbiter sharding + pooled exchange -------------------------------

struct ShardedFixture : ::testing::Test {
  static ZkdetSystem& sys() {
    static ZkdetSystem s(1 << 14, 77, /*data_dir=*/"", {},
                         /*arbiter_shards=*/2);
    return s;
  }
  static TransformationProtocol& tp() {
    static TransformationProtocol t(sys());
    return t;
  }
};

TEST_F(ShardedFixture, DeploysRequestedShardCount) {
  ASSERT_EQ(sys().arbiter_shards(), 2u);
  EXPECT_EQ(&sys().arbiter(), &sys().arbiter_shard(0));
  EXPECT_NE(&sys().arbiter_shard(0), &sys().arbiter_shard(1));
  EXPECT_TRUE(sys().chain().validate_chain());
}

// End-to-end pooled exchange across two shards: token ids route to
// different arbiters, exchange ids stay globally unique, and both
// exchanges settle through TxPool with the buyer recovering the data.
TEST_F(ShardedFixture, PooledExchangeSettlesAcrossShards) {
  Drbg rng("sharded-exchange", 5);
  const KeyPair seller = KeyPair::generate(rng);
  const KeyPair buyer = KeyPair::generate(rng);
  sys().chain().create_account(seller, 1'000'000);
  sys().chain().create_account(buyer, 1'000'000);
  KeySecureExchange ex(sys(), tp());

  std::vector<std::uint64_t> exchange_ids;
  for (int round = 0; round < 2; ++round) {
    auto asset = tp().publish(
        seller, {Fr::from_u64(100 + round), Fr::from_u64(200 + round)});
    ASSERT_TRUE(asset.has_value());
    auto offer = ex.make_offer(*asset, nullptr, "any");
    ASSERT_TRUE(offer.has_value());
    ASSERT_TRUE(ex.verify_offer(*offer));

    auto session = ex.lock_payment(buyer, *offer, /*amount=*/500,
                                   /*timeout_blocks=*/10);
    ASSERT_TRUE(session.has_value());
    const std::uint64_t id = session->exchange_id;
    exchange_ids.push_back(id);
    // The exchange lives on the shard that owns the token id, and ONLY
    // on that shard.
    auto& owner = sys().arbiter_for_token(asset->token_id);
    EXPECT_EQ(&owner, &sys().arbiter_for_exchange(id));
    ASSERT_TRUE(owner.exchange(id).has_value());
    auto& other =
        sys().arbiter_shard(1 - (asset->token_id % sys().arbiter_shards()));
    EXPECT_FALSE(other.exchange(id).has_value());
    // Cross-shard h_v lookup (crash-recovery path) finds it too.
    const auto by_hv = sys().find_exchange_by_hv(hash_key(session->k_v));
    ASSERT_TRUE(by_hv.has_value());
    EXPECT_EQ(by_hv->id, id);

    ASSERT_TRUE(ex.settle(seller, *asset, id, session->k_v));
    const auto data = ex.recover_data(*session);
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ(*data, asset->plain);
  }
  // Globally unique ids on distinct shard progressions.
  ASSERT_EQ(exchange_ids.size(), 2u);
  EXPECT_NE(exchange_ids[0], exchange_ids[1]);
  EXPECT_NE(exchange_ids[0] % 2, exchange_ids[1] % 2);
  EXPECT_TRUE(sys().chain().validate_chain());
}

}  // namespace
}  // namespace zkdet::core
