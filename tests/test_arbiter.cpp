#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "chain/arbiter.hpp"
#include "chain/claim.hpp"
#include "core/circuits.hpp"
#include "core/system.hpp"
#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ledger/ledger.hpp"
#include "runtime/stats.hpp"
#include "txpool/intent.hpp"

namespace zkdet::chain {
namespace {

using core::build_key_circuit;
using core::commit_key;
using core::hash_key;
using crypto::Drbg;
using crypto::KeyPair;
using ff::Fr;

// One shared system (SRS + pi_k keys + contracts) for all arbiter tests.
struct ArbiterFixture : ::testing::Test {
  static core::ZkdetSystem& sys() {
    static core::ZkdetSystem s(1 << 12, 5);
    return s;
  }

  Drbg rng{7};
  KeyPair seller_keys = KeyPair::generate(rng);
  KeyPair buyer_keys = KeyPair::generate(rng);
  Address seller = sys().chain().create_account(seller_keys, 100000);
  Address buyer = sys().chain().create_account(buyer_keys, 100000);

  // Asset-key material for a fake exchange.
  Fr k = rng.random_fr();
  Fr o = rng.random_fr();
  Fr key_cm = commit_key(k, o);

  std::uint64_t lock(std::uint64_t amount, const Fr& h_v,
                     std::uint64_t timeout = 50) {
    std::uint64_t id = 0;
    const Receipt r = sys().chain().call(
        buyer_keys, "lock",
        [&](CallContext& ctx) {
          id = sys().arbiter().lock(ctx, seller, h_v, key_cm, timeout);
        },
        amount, sys().arbiter().address());
    EXPECT_TRUE(r.success) << r.error;
    return id;
  }

  std::optional<plonk::Proof> prove_key(const Fr& k_v) {
    gadgets::CircuitBuilder bld = build_key_circuit(k, o, k_v);
    const auto& keys = sys().keys_for("pi_k", bld.cs());
    return plonk::prove(keys.pk, bld.cs(), sys().srs(), bld.witness(), rng);
  }
};

TEST_F(ArbiterFixture, HonestSettleTransfersPayment) {
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(700, hash_key(k_v));
  const std::uint64_t seller_before = sys().chain().balance(seller);
  auto proof = prove_key(k_v);
  ASSERT_TRUE(proof);
  const Fr k_c = k + k_v;
  const Receipt r = sys().chain().call(
      seller_keys, "settle", [&](CallContext& ctx) {
        sys().arbiter().settle(ctx, id, k_c, *proof);
      });
  EXPECT_TRUE(r.success) << r.error;
  EXPECT_EQ(sys().chain().balance(seller), seller_before + 700);
  const auto info = sys().arbiter().exchange(id);
  EXPECT_EQ(info->state, ExchangeState::kSettled);
  EXPECT_EQ(info->k_c, k_c);  // buyer reads k_c off-chain
  // the raw key never appears in the exchange record
  EXPECT_NE(info->k_c, k);
}

TEST_F(ArbiterFixture, SettleWithWrongKcRejected) {
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(500, hash_key(k_v));
  auto proof = prove_key(k_v);
  ASSERT_TRUE(proof);
  const Receipt r = sys().chain().call(
      seller_keys, "settle-bad", [&](CallContext& ctx) {
        sys().arbiter().settle(ctx, id, k + k_v + Fr::one(), *proof);
      });
  EXPECT_FALSE(r.success);
  EXPECT_EQ(sys().arbiter().exchange(id)->state, ExchangeState::kLocked);
}

TEST_F(ArbiterFixture, SettleWithForeignKeyRejected) {
  // A seller who does not know the committed key cannot settle: the
  // proof is generated for a different key and fails against c.
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(500, hash_key(k_v));
  const Fr wrong_k = rng.random_fr();
  gadgets::CircuitBuilder bld = build_key_circuit(wrong_k, o, k_v);
  const auto& keys = sys().keys_for("pi_k", bld.cs());
  auto proof = plonk::prove(keys.pk, bld.cs(), sys().srs(), bld.witness(), rng);
  ASSERT_TRUE(proof);
  const Receipt r = sys().chain().call(
      seller_keys, "settle-foreign", [&](CallContext& ctx) {
        sys().arbiter().settle(ctx, id, wrong_k + k_v, *proof);
      });
  EXPECT_FALSE(r.success);  // public input c mismatches the proof
}

TEST_F(ArbiterFixture, OnlySellerMaySettle) {
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(500, hash_key(k_v));
  auto proof = prove_key(k_v);
  const Receipt r = sys().chain().call(
      buyer_keys, "settle-as-buyer", [&](CallContext& ctx) {
        sys().arbiter().settle(ctx, id, k + k_v, *proof);
      });
  EXPECT_FALSE(r.success);
}

TEST_F(ArbiterFixture, RefundAfterDeadline) {
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(300, hash_key(k_v), /*timeout=*/3);
  const std::uint64_t buyer_after_lock = sys().chain().balance(buyer);
  // too early
  Receipt r = sys().chain().call(buyer_keys, "refund-early",
                                 [&](CallContext& ctx) {
                                   sys().arbiter().refund(ctx, id);
                                 });
  EXPECT_FALSE(r.success);
  sys().chain().advance_blocks(5);
  r = sys().chain().call(buyer_keys, "refund", [&](CallContext& ctx) {
    sys().arbiter().refund(ctx, id);
  });
  EXPECT_TRUE(r.success) << r.error;
  EXPECT_EQ(sys().chain().balance(buyer), buyer_after_lock + 300);
  EXPECT_EQ(sys().arbiter().exchange(id)->state, ExchangeState::kRefunded);
}

TEST_F(ArbiterFixture, RefundDeadlineIsStrictlyExclusive) {
  // The contract requires block_height > deadline: a refund one block
  // before and one exactly at the deadline must both fail; the first
  // block past it succeeds. Each call() seals a block, so the two
  // rejected attempts advance the chain to the boundary by themselves.
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(250, hash_key(k_v), /*timeout=*/6);
  const std::uint64_t deadline = sys().arbiter().exchange(id)->deadline;
  const std::uint64_t escrowed = sys().chain().balance(buyer);

  ASSERT_LE(sys().chain().height(), deadline - 1);
  sys().chain().advance_blocks(deadline - 1 - sys().chain().height());

  // height == deadline - 1: one block early.
  Receipt r = sys().chain().call(buyer_keys, "refund-minus-1",
                                 [&](CallContext& ctx) {
                                   sys().arbiter().refund(ctx, id);
                                 });
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error, "revert: deadline not reached");

  // height == deadline: exactly at the deadline, still too early.
  ASSERT_EQ(sys().chain().height(), deadline);
  r = sys().chain().call(buyer_keys, "refund-at-deadline",
                         [&](CallContext& ctx) {
                           sys().arbiter().refund(ctx, id);
                         });
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error, "revert: deadline not reached");
  EXPECT_EQ(sys().arbiter().exchange(id)->state, ExchangeState::kLocked);
  EXPECT_EQ(sys().chain().balance(buyer), escrowed);

  // height == deadline + 1: first block past the deadline.
  ASSERT_EQ(sys().chain().height(), deadline + 1);
  r = sys().chain().call(buyer_keys, "refund-plus-1", [&](CallContext& ctx) {
    sys().arbiter().refund(ctx, id);
  });
  EXPECT_TRUE(r.success) << r.error;
  EXPECT_EQ(sys().chain().balance(buyer), escrowed + 250);
  EXPECT_EQ(sys().arbiter().exchange(id)->state, ExchangeState::kRefunded);
}

TEST_F(ArbiterFixture, DoubleSettleRejected) {
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(600, hash_key(k_v));
  auto proof = prove_key(k_v);
  ASSERT_TRUE(proof);
  const Fr k_c = k + k_v;
  Receipt r = sys().chain().call(seller_keys, "settle-1",
                                 [&](CallContext& ctx) {
                                   sys().arbiter().settle(ctx, id, k_c, *proof);
                                 });
  ASSERT_TRUE(r.success) << r.error;
  const std::uint64_t seller_after = sys().chain().balance(seller);
  // Replaying the very same valid settle must not pay out again.
  r = sys().chain().call(seller_keys, "settle-2", [&](CallContext& ctx) {
    sys().arbiter().settle(ctx, id, k_c, *proof);
  });
  EXPECT_FALSE(r.success);
  EXPECT_EQ(sys().chain().balance(seller), seller_after);
  EXPECT_EQ(sys().arbiter().exchange(id)->state, ExchangeState::kSettled);
}

TEST_F(ArbiterFixture, DoubleRefundRejected) {
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(300, hash_key(k_v), /*timeout=*/1);
  sys().chain().advance_blocks(3);
  Receipt r = sys().chain().call(buyer_keys, "refund-1",
                                 [&](CallContext& ctx) {
                                   sys().arbiter().refund(ctx, id);
                                 });
  ASSERT_TRUE(r.success) << r.error;
  const std::uint64_t buyer_after = sys().chain().balance(buyer);
  r = sys().chain().call(buyer_keys, "refund-2", [&](CallContext& ctx) {
    sys().arbiter().refund(ctx, id);
  });
  EXPECT_FALSE(r.success);  // kRefunded is terminal
  EXPECT_EQ(sys().chain().balance(buyer), buyer_after);
}

TEST_F(ArbiterFixture, RefundAfterSettleRejected) {
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(400, hash_key(k_v), /*timeout=*/1);
  auto proof = prove_key(k_v);
  ASSERT_TRUE(proof);
  Receipt r = sys().chain().call(seller_keys, "settle",
                                 [&](CallContext& ctx) {
                                   sys().arbiter().settle(ctx, id, k + k_v,
                                                          *proof);
                                 });
  ASSERT_TRUE(r.success) << r.error;
  // Even long past the deadline a settled exchange cannot be refunded.
  sys().chain().advance_blocks(5);
  const std::uint64_t buyer_after = sys().chain().balance(buyer);
  r = sys().chain().call(buyer_keys, "refund-after-settle",
                         [&](CallContext& ctx) {
                           sys().arbiter().refund(ctx, id);
                         });
  EXPECT_FALSE(r.success);
  EXPECT_EQ(sys().chain().balance(buyer), buyer_after);
  EXPECT_EQ(sys().arbiter().exchange(id)->state, ExchangeState::kSettled);
}

TEST_F(ArbiterFixture, RefundOnlyByBuyer) {
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(300, hash_key(k_v), 1);
  sys().chain().advance_blocks(3);
  const Receipt r = sys().chain().call(
      seller_keys, "refund-as-seller",
      [&](CallContext& ctx) { sys().arbiter().refund(ctx, id); });
  EXPECT_FALSE(r.success);
}

TEST_F(ArbiterFixture, SettleAfterRefundRejected) {
  const Fr k_v = rng.random_fr();
  const std::uint64_t id = lock(300, hash_key(k_v), 1);
  sys().chain().advance_blocks(3);
  sys().chain().call(buyer_keys, "refund", [&](CallContext& ctx) {
    sys().arbiter().refund(ctx, id);
  });
  auto proof = prove_key(k_v);
  const Receipt r = sys().chain().call(
      seller_keys, "settle-late", [&](CallContext& ctx) {
        sys().arbiter().settle(ctx, id, k + k_v, *proof);
      });
  EXPECT_FALSE(r.success);
}

TEST_F(ArbiterFixture, LockRequiresPayment) {
  const Receipt r = sys().chain().call(
      buyer_keys, "lock-zero", [&](CallContext& ctx) {
        sys().arbiter().lock(ctx, seller, Fr::one(), key_cm, 10);
      });
  EXPECT_FALSE(r.success);
}

TEST_F(ArbiterFixture, ZkcpOpenLeaksKey) {
  const Fr h = crypto::poseidon_hash({k}, core::kKeyHashTag);
  std::uint64_t id = 0;
  Receipt r = sys().chain().call(
      buyer_keys, "zkcp-lock",
      [&](CallContext& ctx) {
        id = sys().zkcp_arbiter().lock(ctx, seller, h);
      },
      400, sys().zkcp_arbiter().address());
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_FALSE(sys().zkcp_arbiter().leaked_key(id).has_value());
  r = sys().chain().call(seller_keys, "zkcp-open", [&](CallContext& ctx) {
    sys().zkcp_arbiter().open(ctx, id, k);
  });
  ASSERT_TRUE(r.success) << r.error;
  // the key is now public chain state — the ZKCP flaw
  const auto leaked = sys().zkcp_arbiter().leaked_key(id);
  ASSERT_TRUE(leaked.has_value());
  EXPECT_EQ(*leaked, k);
}

TEST_F(ArbiterFixture, ZkcpOpenWithWrongKeyRejected) {
  const Fr h = crypto::poseidon_hash({k}, core::kKeyHashTag);
  std::uint64_t id = 0;
  sys().chain().call(
      buyer_keys, "zkcp-lock",
      [&](CallContext& ctx) {
        id = sys().zkcp_arbiter().lock(ctx, seller, h);
      },
      400, sys().zkcp_arbiter().address());
  const Receipt r = sys().chain().call(
      seller_keys, "zkcp-open-bad", [&](CallContext& ctx) {
        sys().zkcp_arbiter().open(ctx, id, k + Fr::one());
      });
  EXPECT_FALSE(r.success);
}

// A reverted transaction leaves no contract state behind: the exchange
// record lives only in contract storage, which a revert discards with
// the transaction's balance moves.
TEST(ArbiterRevert, OutOfGasLockLeavesNothingToRefund) {
  Drbg rng{31};
  Chain chain;
  const KeyPair honest_keys = KeyPair::generate(rng);
  const KeyPair attacker_keys = KeyPair::generate(rng);
  const KeyPair seller_keys = KeyPair::generate(rng);
  const Address honest = chain.create_account(honest_keys, 1'000);
  const Address attacker = chain.create_account(attacker_keys, 1'000);
  const Address seller = chain.create_account(seller_keys, 0);
  auto& verifier = chain.deploy<PlonkVerifierContract>(
      honest_keys, nullptr, plonk::VerifyingKey{}, "PlonkVerifier(stub)");
  auto& arb = chain.deploy<KeySecureArbiter>(honest_keys, nullptr, verifier);
  const auto lock = [&](const KeyPair& who, const Address& pay_to,
                        std::uint64_t gas_limit) {
    return chain.call(
        who, "lock",
        [&](CallContext& ctx) {
          arb.lock(ctx, pay_to, Fr::from_u64(5), Fr::from_u64(6),
                   /*timeout_blocks=*/1);
        },
        700, arb.address(), gas_limit);
  };
  ASSERT_TRUE(lock(honest_keys, seller, 30'000'000).success);
  const Receipt oog = lock(attacker_keys, attacker, 22'000);
  EXPECT_FALSE(oog.success);
  EXPECT_EQ(oog.error, "out of gas");
  EXPECT_FALSE(arb.exchange(2).has_value());
  EXPECT_EQ(chain.balance(arb.address()), 700u);

  chain.advance_blocks(2);
  const Receipt steal = chain.call(
      attacker_keys, "refund", [&](CallContext& ctx) { arb.refund(ctx, 2); });
  EXPECT_FALSE(steal.success);
  EXPECT_NE(steal.error.find("no such exchange"), std::string::npos)
      << steal.error;
  EXPECT_EQ(chain.balance(attacker), 1'000u);
  EXPECT_EQ(chain.balance(arb.address()), 700u);

  // The honest escrow is intact and still refundable by its buyer.
  ASSERT_TRUE(arb.exchange(1).has_value());
  EXPECT_EQ(arb.exchange(1)->state, ExchangeState::kLocked);
  EXPECT_EQ(arb.exchange(1)->amount, 700u);
  const Receipt refund = chain.call(
      honest_keys, "refund", [&](CallContext& ctx) { arb.refund(ctx, 1); });
  EXPECT_TRUE(refund.success) << refund.error;
  EXPECT_EQ(chain.balance(honest), 1'000u);
  EXPECT_EQ(chain.balance(arb.address()), 0u);
}

TEST(ArbiterRevert, OutOfGasZkcpLockLeavesNothingToOpen) {
  Drbg rng{37};
  Chain chain;
  const KeyPair honest_keys = KeyPair::generate(rng);
  const KeyPair attacker_keys = KeyPair::generate(rng);
  const KeyPair seller_keys = KeyPair::generate(rng);
  chain.create_account(honest_keys, 1'000);
  const Address attacker = chain.create_account(attacker_keys, 1'000);
  const Address seller = chain.create_account(seller_keys, 0);
  auto& arb = chain.deploy<ZkcpArbiter>(honest_keys, nullptr);
  const Fr key = Fr::from_u64(99);
  const Fr key_hash = crypto::poseidon_hash({key}, core::kKeyHashTag);
  const auto lock = [&](const KeyPair& who, const Address& pay_to,
                        std::uint64_t gas_limit) {
    return chain.call(
        who, "zkcp-lock",
        [&](CallContext& ctx) { arb.lock(ctx, pay_to, key_hash); }, 500,
        arb.address(), gas_limit);
  };
  ASSERT_TRUE(lock(honest_keys, seller, 30'000'000).success);
  const Receipt oog = lock(attacker_keys, attacker, 22'000);
  EXPECT_FALSE(oog.success);
  EXPECT_EQ(oog.error, "out of gas");
  EXPECT_FALSE(arb.exchange(2).has_value());

  const Receipt steal = chain.call(
      attacker_keys, "zkcp-open",
      [&](CallContext& ctx) { arb.open(ctx, 2, key); });
  EXPECT_FALSE(steal.success);
  EXPECT_NE(steal.error.find("no such exchange"), std::string::npos)
      << steal.error;
  EXPECT_EQ(chain.balance(attacker), 1'000u);
  EXPECT_EQ(chain.balance(arb.address()), 500u);
  ASSERT_TRUE(arb.exchange(1).has_value());
  EXPECT_EQ(arb.exchange(1)->state, ExchangeState::kLocked);
  EXPECT_EQ(arb.exchange(1)->amount, 500u);
}

TEST_F(ArbiterFixture, OutOfGasSettleLeavesExchangeLockedAndRefundable) {
  // A fresh arbiter, so both exchange ids have the same decimal length:
  // settle gas depends on the id only through the event's bytes.
  auto& arb = sys().chain().deploy<KeySecureArbiter>(buyer_keys, nullptr,
                                                     sys().key_verifier());
  const auto lock_on = [&](const Fr& h_v) {
    std::uint64_t id = 0;
    const Receipt r = sys().chain().call(
        buyer_keys, "lock",
        [&](CallContext& ctx) {
          id = arb.lock(ctx, seller, h_v, key_cm, /*timeout_blocks=*/3);
        },
        700, arb.address());
    EXPECT_TRUE(r.success) << r.error;
    return id;
  };
  const auto settle = [&](std::uint64_t id, const Fr& k_v,
                          std::uint64_t gas_limit) {
    auto proof = prove_key(k_v);
    EXPECT_TRUE(proof);
    return sys().chain().call(
        seller_keys, "settle",
        [&](CallContext& ctx) { arb.settle(ctx, id, k + k_v, *proof); }, 0,
        {}, gas_limit);
  };
  const Fr kv_ref = rng.random_fr();
  const Fr kv = rng.random_fr();
  const std::uint64_t ref = lock_on(hash_key(kv_ref));
  const std::uint64_t id = lock_on(hash_key(kv));
  ASSERT_EQ(std::to_string(ref).size(), std::to_string(id).size());
  const Receipt honest = settle(ref, kv_ref, 30'000'000);
  ASSERT_TRUE(honest.success) << honest.error;

  const std::uint64_t seller_before = sys().chain().balance(seller);
  const Receipt oog = settle(id, kv, honest.gas_used - 1);
  EXPECT_FALSE(oog.success);
  EXPECT_EQ(oog.error, "out of gas");
  EXPECT_EQ(arb.exchange(id)->state, ExchangeState::kLocked);
  EXPECT_EQ(sys().chain().balance(seller), seller_before);
  EXPECT_EQ(sys().chain().balance(arb.address()), 700u);

  sys().chain().advance_blocks(5);
  const std::uint64_t buyer_before = sys().chain().balance(buyer);
  const Receipt refund = sys().chain().call(
      buyer_keys, "refund", [&](CallContext& ctx) { arb.refund(ctx, id); });
  EXPECT_TRUE(refund.success) << refund.error;
  EXPECT_EQ(sys().chain().balance(buyer), buyer_before + 700);
  EXPECT_EQ(arb.exchange(id)->state, ExchangeState::kRefunded);
}

TEST_F(ArbiterFixture, VerifierContractChargesGas) {
  const Fr k_v = rng.random_fr();
  gadgets::CircuitBuilder bld = build_key_circuit(k, o, k_v);
  const auto& keys = sys().keys_for("pi_k", bld.cs());
  auto proof = plonk::prove(keys.pk, bld.cs(), sys().srs(), bld.witness(), rng);
  ASSERT_TRUE(proof);
  std::uint64_t gas = 0;
  bool ok = false;
  sys().chain().call(seller_keys, "verify", [&](CallContext& ctx) {
    const std::uint64_t g0 = ctx.gas().used();
    ok = sys().key_verifier().verify(
        ctx, {k + k_v, commit_key(k, o), hash_key(k_v)}, *proof);
    gas = ctx.gas().used() - g0;
  });
  EXPECT_TRUE(ok);
  // EIP-1108 floor: pairing (45k + 2*34k) + 18 muls (108k)
  EXPECT_GT(gas, 200'000u);
  EXPECT_LT(gas, 400'000u);
}

// ---------------------------------------------------------------------
// Batched settlement: settle txs carrying ProofClaims seal into one
// block and share a single folded pairing check (chain stage 2.5).
// Settles conflict on their arbiter shard, so the fixture deploys four
// shards — four locks on four shards fold into one batch.
// ---------------------------------------------------------------------

// One exchange's cast: a funded seller/buyer pair plus key material.
struct Party {
  KeyPair seller_keys;
  KeyPair buyer_keys;
  Address seller;
  Address buyer;
  Fr k;
  Fr o;
  Fr key_cm;
};

Party make_party(core::ZkdetSystem& sys, Drbg& rng) {
  Party p{KeyPair::generate(rng), KeyPair::generate(rng), {}, {},
          rng.random_fr(),        rng.random_fr(),        Fr::zero()};
  p.seller = sys.chain().create_account(p.seller_keys, 100000);
  p.buyer = sys.chain().create_account(p.buyer_keys, 100000);
  p.key_cm = commit_key(p.k, p.o);
  return p;
}

// Signed settle intent whose ProofClaim carries `claimed` while its
// closure verifies `verified` — the shape
// core::KeySecureExchange::make_settle_intent builds (there the two are
// one proof), constructed by hand so tests can attach deliberately
// invalid or mismatched proofs.
txpool::TxIntent claimed_settle(core::ZkdetSystem& sys,
                                const KeyPair& seller_keys, std::uint64_t id,
                                const Fr& k_c, const plonk::Proof& claimed,
                                const plonk::Proof& verified) {
  auto& arb = sys.arbiter_for_exchange(id);
  const auto xinfo = arb.exchange(id);
  auto claim = std::make_shared<ProofClaim>();
  claim->vk = &sys.key_verifier().vk();
  claim->public_inputs = {k_c, xinfo->key_commitment, xinfo->h_v};
  claim->proof = claimed;
  txpool::AccessSet access;
  access.write_contract(arb.address())
      .touch_account(arb.address())
      .touch_account(xinfo->seller);
  return txpool::make_intent(
      seller_keys,
      sys.pool().next_nonce(crypto::address_of(seller_keys.pk)),
      "arbiter.settle",
      [arbp = &arb, id, k_c, verified](CallContext& ctx) {
        arbp->settle(ctx, id, k_c, verified);
      },
      std::move(access), /*value=*/0, /*pay_to=*/{},
      /*gas_limit=*/30'000'000, /*priority=*/0, claim);
}

// The honest shape: the claim carries the proof the closure verifies.
txpool::TxIntent claimed_settle(core::ZkdetSystem& sys,
                                const KeyPair& seller_keys, std::uint64_t id,
                                const Fr& k_c, const plonk::Proof& proof) {
  return claimed_settle(sys, seller_keys, id, k_c, proof, proof);
}

struct BatchedArbiterFixture : ::testing::Test {
  static constexpr std::size_t kShards = 4;
  static core::ZkdetSystem& sys() {
    static core::ZkdetSystem s(1 << 12, 11, /*data_dir=*/"", {}, kShards);
    return s;
  }

  Drbg rng{17};

  // Lock `amount` on shard `shard` for party `p`; returns exchange id.
  std::uint64_t lock_on(std::size_t shard, const Party& p,
                        std::uint64_t amount, const Fr& h_v,
                        std::uint64_t timeout = 200) {
    std::uint64_t id = 0;
    auto& arb = sys().arbiter_shard(shard);
    const Receipt r = sys().chain().call(
        p.buyer_keys, "lock",
        [&](CallContext& ctx) {
          id = arb.lock(ctx, p.seller, h_v, p.key_cm, timeout);
        },
        amount, arb.address());
    EXPECT_TRUE(r.success) << r.error;
    return id;
  }

  std::optional<plonk::Proof> prove_key(const Party& p, const Fr& k_v) {
    gadgets::CircuitBuilder bld = build_key_circuit(p.k, p.o, k_v);
    const auto& keys = sys().keys_for("pi_k", bld.cs());
    return plonk::prove(keys.pk, bld.cs(), sys().srs(), bld.witness(), rng);
  }
};

TEST_F(BatchedArbiterFixture, BatchedSettleFoldsOneCheckAndAmortizesGas) {
  // Four independent exchanges, one per shard: their settles are
  // conflict-free and must seal as ONE block with ONE folded check.
  std::vector<Party> parties;
  std::vector<std::uint64_t> ids;
  std::vector<Fr> kvs;
  std::vector<plonk::Proof> proofs;
  for (std::size_t s = 0; s < kShards; ++s) {
    parties.push_back(make_party(sys(), rng));
    const Fr k_v = rng.random_fr();
    kvs.push_back(k_v);
    ids.push_back(lock_on(s, parties.back(), 500 + s, hash_key(k_v)));
    auto proof = prove_key(parties.back(), k_v);
    ASSERT_TRUE(proof);
    proofs.push_back(*proof);
  }

  // Reference point: a batch of ONE degenerates to the inline pairing
  // and pays the full verification price.
  Party solo = make_party(sys(), rng);
  const Fr solo_kv = rng.random_fr();
  const std::uint64_t solo_id = lock_on(0, solo, 700, hash_key(solo_kv));
  auto solo_proof = prove_key(solo, solo_kv);
  ASSERT_TRUE(solo_proof);
  auto solo_res = sys().pool().submit(
      claimed_settle(sys(), solo.seller_keys, solo_id, solo.k + solo_kv,
                     *solo_proof));
  ASSERT_TRUE(solo_res.accepted);
  ASSERT_GT(sys().pool().drain(), 0u);
  ASSERT_TRUE(solo_res.ticket->receipt.success)
      << solo_res.ticket->receipt.error;
  const std::uint64_t solo_gas = solo_res.ticket->receipt.gas_used;

  const auto before = runtime::stats();
  std::vector<txpool::TicketPtr> tickets;
  std::vector<std::uint64_t> sellers_before;
  for (std::size_t i = 0; i < kShards; ++i) {
    sellers_before.push_back(sys().chain().balance(parties[i].seller));
    auto res = sys().pool().submit(claimed_settle(
        sys(), parties[i].seller_keys, ids[i], parties[i].k + kvs[i],
        proofs[i]));
    ASSERT_TRUE(res.accepted) << res.error;
    tickets.push_back(res.ticket);
  }
  ASSERT_EQ(sys().pool().drain(), kShards);

  const auto after = runtime::stats();
  for (std::size_t i = 0; i < kShards; ++i) {
    ASSERT_TRUE(tickets[i]->done());
    EXPECT_TRUE(tickets[i]->receipt.success) << tickets[i]->receipt.error;
    EXPECT_EQ(sys().chain().balance(parties[i].seller),
              sellers_before[i] + 500 + i);
    EXPECT_EQ(sys().arbiter_for_exchange(ids[i]).exchange(ids[i])->state,
              ExchangeState::kSettled);
    // Gas amortization: a 4-way batch splits the shared pairing cost,
    // so each settle is visibly cheaper than the batch-of-1 settle.
    EXPECT_LT(tickets[i]->receipt.gas_used + 50'000, solo_gas);
  }
  // All four claims folded into one check in one batch.
  EXPECT_EQ(after.settle_batches, before.settle_batches + 1);
  EXPECT_EQ(after.settle_claims, before.settle_claims + kShards);
  EXPECT_EQ(after.settle_max_fold, kShards);
  EXPECT_GT(after.batch_fold_checks, before.batch_fold_checks);
}

TEST_F(BatchedArbiterFixture, BatchedSettleAttributesForgeryHonestCommit) {
  // 1 bad among N: the forged settle must revert alone while the three
  // honest ones commit from the same sealed batch.
  constexpr std::size_t kBad = 2;
  std::vector<Party> parties;
  std::vector<std::uint64_t> ids;
  std::vector<Fr> kvs;
  std::vector<txpool::TicketPtr> tickets;
  std::vector<std::uint64_t> sellers_before;
  const auto before = runtime::stats();
  for (std::size_t s = 0; s < kShards; ++s) {
    parties.push_back(make_party(sys(), rng));
    const Fr k_v = rng.random_fr();
    kvs.push_back(k_v);
    ids.push_back(lock_on(s, parties.back(), 400, hash_key(k_v)));
    // The forger proves a well-formed pi_k for the WRONG k_v: the proof
    // survives structural checks and only dies at the pairing, so only
    // fold-failure bisection can attribute it.
    const Fr proven_kv = (s == kBad) ? rng.random_fr() : k_v;
    auto proof = prove_key(parties.back(), proven_kv);
    ASSERT_TRUE(proof);
    sellers_before.push_back(sys().chain().balance(parties.back().seller));
    auto res = sys().pool().submit(claimed_settle(
        sys(), parties.back().seller_keys, ids.back(),
        parties.back().k + k_v, *proof));
    ASSERT_TRUE(res.accepted) << res.error;
    tickets.push_back(res.ticket);
  }
  ASSERT_EQ(sys().pool().drain(), kShards);

  for (std::size_t i = 0; i < kShards; ++i) {
    ASSERT_TRUE(tickets[i]->done());
    const auto& r = tickets[i]->receipt;
    const auto state =
        sys().arbiter_for_exchange(ids[i]).exchange(ids[i])->state;
    if (i == kBad) {
      EXPECT_FALSE(r.success);
      EXPECT_NE(r.error.find("invalid key proof"), std::string::npos)
          << r.error;
      EXPECT_EQ(state, ExchangeState::kLocked);
      EXPECT_EQ(sys().chain().balance(parties[i].seller), sellers_before[i]);
    } else {
      EXPECT_TRUE(r.success) << r.error;
      EXPECT_EQ(state, ExchangeState::kSettled);
      EXPECT_EQ(sys().chain().balance(parties[i].seller),
                sellers_before[i] + 400);
    }
  }
  const auto after = runtime::stats();
  EXPECT_GT(after.batch_invalid_attributed, before.batch_invalid_attributed);

  // Idempotency after failed attribution: the honest resubmission for
  // the reverted exchange is accepted EXACTLY once.
  auto good = prove_key(parties[kBad], kvs[kBad]);
  ASSERT_TRUE(good);
  auto retry = sys().pool().submit(claimed_settle(
      sys(), parties[kBad].seller_keys, ids[kBad],
      parties[kBad].k + kvs[kBad], *good));
  ASSERT_TRUE(retry.accepted);
  ASSERT_GT(sys().pool().drain(), 0u);
  EXPECT_TRUE(retry.ticket->receipt.success) << retry.ticket->receipt.error;
  EXPECT_EQ(sys().chain().balance(parties[kBad].seller),
            sellers_before[kBad] + 400);
  auto replay = sys().pool().submit(claimed_settle(
      sys(), parties[kBad].seller_keys, ids[kBad],
      parties[kBad].k + kvs[kBad], *good));
  ASSERT_TRUE(replay.accepted);
  ASSERT_GT(sys().pool().drain(), 0u);
  EXPECT_FALSE(replay.ticket->receipt.success);
  EXPECT_EQ(sys().chain().balance(parties[kBad].seller),
            sellers_before[kBad] + 400);
}

TEST_F(BatchedArbiterFixture, MismatchedClaimVerifiesInlineAtFullPrice) {
  // A claim that differs from the proof its closure verifies buys
  // nothing: the contract verifies the closure's proof inline, at the
  // full pairing price, with the inline verdict. Exchange 0 settles an
  // honest proof under a forged claim, exchange 1 a forged proof under
  // an honest claim; exchanges 2 and 3 are honest settles whose claims
  // match and ride the fold. A forged proof is a well-formed pi_k for
  // another k_v.
  std::vector<Party> parties;
  std::vector<std::uint64_t> ids;
  std::vector<txpool::TicketPtr> tickets;
  std::vector<std::uint64_t> sellers_before;
  for (std::size_t s = 0; s < kShards; ++s) {
    parties.push_back(make_party(sys(), rng));
    const Fr k_v = rng.random_fr();
    ids.push_back(lock_on(s, parties.back(), 600, hash_key(k_v)));
    const auto honest = prove_key(parties.back(), k_v);
    ASSERT_TRUE(honest);
    plonk::Proof claimed = *honest;
    plonk::Proof verified = *honest;
    if (s < 2) {
      const auto forged = prove_key(parties.back(), rng.random_fr());
      ASSERT_TRUE(forged);
      (s == 0 ? claimed : verified) = *forged;
    }
    sellers_before.push_back(sys().chain().balance(parties.back().seller));
    auto res = sys().pool().submit(
        claimed_settle(sys(), parties.back().seller_keys, ids.back(),
                       parties.back().k + k_v, claimed, verified));
    ASSERT_TRUE(res.accepted) << res.error;
    tickets.push_back(res.ticket);
  }
  ASSERT_EQ(sys().pool().drain(), kShards);

  for (std::size_t i = 0; i < kShards; ++i) {
    ASSERT_TRUE(tickets[i]->done());
    const auto& r = tickets[i]->receipt;
    const auto state =
        sys().arbiter_for_exchange(ids[i]).exchange(ids[i])->state;
    if (i == 1) {
      EXPECT_FALSE(r.success);
      EXPECT_NE(r.error.find("invalid key proof"), std::string::npos)
          << r.error;
      EXPECT_EQ(state, ExchangeState::kLocked);
      EXPECT_EQ(sys().chain().balance(parties[i].seller), sellers_before[i]);
    } else {
      EXPECT_TRUE(r.success) << i << ": " << r.error;
      EXPECT_EQ(state, ExchangeState::kSettled);
      EXPECT_EQ(sys().chain().balance(parties[i].seller),
                sellers_before[i] + 600);
    }
  }
  // The honest claims pay 2 G1 muls plus a share of the one pairing; the
  // mismatched settle that succeeded pays the whole pairing instead.
  const auto& g = sys().chain().gas_schedule();
  const std::uint64_t pairing = g.pairing_base + 2 * g.pairing_per_pair;
  const std::uint64_t share = 2 * g.ecmul + (pairing + kShards - 1) / kShards;
  const std::uint64_t honest_gas = tickets[2]->receipt.gas_used;
  EXPECT_EQ(tickets[3]->receipt.gas_used, honest_gas);
  EXPECT_EQ(tickets[0]->receipt.gas_used, honest_gas - share + pairing);
}

TEST_F(BatchedArbiterFixture, BatchedDoubleSettleAndRefundAfterSettleReject) {
  // The classic double-settle / refund-after-settle guarantees must
  // hold when the first settle rode the batched path.
  std::vector<Party> parties;
  std::vector<std::uint64_t> ids;
  std::vector<Fr> kvs;
  std::vector<plonk::Proof> proofs;
  for (std::size_t s = 0; s < 2; ++s) {
    parties.push_back(make_party(sys(), rng));
    const Fr k_v = rng.random_fr();
    kvs.push_back(k_v);
    ids.push_back(
        lock_on(s, parties.back(), 350, hash_key(k_v), /*timeout=*/1));
    auto proof = prove_key(parties.back(), k_v);
    ASSERT_TRUE(proof);
    proofs.push_back(*proof);
  }
  std::vector<txpool::TicketPtr> tickets;
  for (std::size_t i = 0; i < 2; ++i) {
    auto res = sys().pool().submit(claimed_settle(
        sys(), parties[i].seller_keys, ids[i], parties[i].k + kvs[i],
        proofs[i]));
    ASSERT_TRUE(res.accepted);
    tickets.push_back(res.ticket);
  }
  ASSERT_EQ(sys().pool().drain(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(tickets[i]->receipt.success) << tickets[i]->receipt.error;
  }

  // Double settle via the batched path: both replays revert.
  std::vector<std::uint64_t> sellers_after;
  for (std::size_t i = 0; i < 2; ++i) {
    sellers_after.push_back(sys().chain().balance(parties[i].seller));
  }
  std::vector<txpool::TicketPtr> replays;
  for (std::size_t i = 0; i < 2; ++i) {
    auto res = sys().pool().submit(claimed_settle(
        sys(), parties[i].seller_keys, ids[i], parties[i].k + kvs[i],
        proofs[i]));
    ASSERT_TRUE(res.accepted);
    replays.push_back(res.ticket);
  }
  ASSERT_EQ(sys().pool().drain(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(replays[i]->receipt.success);
    EXPECT_EQ(sys().chain().balance(parties[i].seller), sellers_after[i]);
    EXPECT_EQ(sys().arbiter_for_exchange(ids[i]).exchange(ids[i])->state,
              ExchangeState::kSettled);
  }

  // Refund after a batched settle: rejected long past the deadline.
  sys().chain().advance_blocks(5);
  for (std::size_t i = 0; i < 2; ++i) {
    const std::uint64_t buyer_before = sys().chain().balance(parties[i].buyer);
    const Receipt r = sys().chain().call(
        parties[i].buyer_keys, "refund-after-batched-settle",
        [&, i](CallContext& ctx) {
          sys().arbiter_for_exchange(ids[i]).refund(ctx, ids[i]);
        });
    EXPECT_FALSE(r.success);
    EXPECT_EQ(sys().chain().balance(parties[i].buyer), buyer_before);
  }
}

struct ArbiterTempDir {
  std::filesystem::path path;
  ArbiterTempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("zkdet-arbiter-batch-" + std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path);
  }
  ~ArbiterTempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

TEST(BatchedArbiterCrash, SealCrashMidBatchRecoversAndSettlesOnce) {
  // Crash-at-seal in the middle of a batched settle: the whole batch
  // dies pre-commit, a reboot restores the pre-batch tip, and the
  // resubmitted settles land exactly once.
  ArbiterTempDir dir;
  constexpr std::size_t kShards = 2;
  Drbg rng{23};
  KeyPair seller_keys[kShards] = {KeyPair::generate(rng),
                                  KeyPair::generate(rng)};
  KeyPair buyer_keys[kShards] = {KeyPair::generate(rng),
                                 KeyPair::generate(rng)};
  Fr k[kShards];
  Fr o[kShards];
  Fr kv[kShards];
  std::uint64_t ids[kShards];
  plonk::Proof proofs[kShards];
  Address sellers[kShards];
  std::uint64_t sellers_before[kShards];
  {
    core::ZkdetSystem sys(1 << 12, 29, dir.str(), {}, kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      sellers[s] = sys.chain().create_account(seller_keys[s], 100000);
      const Address buyer = sys.chain().create_account(buyer_keys[s], 100000);
      (void)buyer;
      k[s] = rng.random_fr();
      o[s] = rng.random_fr();
      kv[s] = rng.random_fr();
      auto& arb = sys.arbiter_shard(s);
      const Receipt r = sys.chain().call(
          buyer_keys[s], "lock",
          [&](CallContext& ctx) {
            ids[s] = arb.lock(ctx, sellers[s], hash_key(kv[s]),
                              commit_key(k[s], o[s]), 200);
          },
          450, arb.address());
      ASSERT_TRUE(r.success) << r.error;
      gadgets::CircuitBuilder bld = build_key_circuit(k[s], o[s], kv[s]);
      const auto& keys = sys.keys_for("pi_k", bld.cs());
      auto proof =
          plonk::prove(keys.pk, bld.cs(), sys.srs(), bld.witness(), rng);
      ASSERT_TRUE(proof);
      proofs[s] = *proof;
      sellers_before[s] = sys.chain().balance(sellers[s]);
      ASSERT_TRUE(sys.pool()
                      .submit(claimed_settle(sys, seller_keys[s], ids[s],
                                             k[s] + kv[s], proofs[s]))
                      .accepted);
    }
    const fault::ScopedFaults guard;
    fault::inject(fault::points::kTxpoolSealCrash, fault::Schedule::once());
    EXPECT_THROW(sys.pool().seal_next_batch(), ledger::CrashInjected);
    // Nothing reached chain state or the WAL: the escrows are intact
    // and both exchanges still read Locked.
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(sys.chain().balance(sellers[s]), sellers_before[s]);
      EXPECT_EQ(sys.arbiter_for_exchange(ids[s]).exchange(ids[s])->state,
                ExchangeState::kLocked);
    }
  }
  // "Reboot": reopen the ledger; the locks survived, the dead batch
  // did not. Resubmit both settles — each must land exactly once.
  {
    core::ZkdetSystem sys(1 << 12, 29, dir.str(), {}, kShards);
    ASSERT_TRUE(sys.chain().validate_chain());
    std::vector<txpool::TicketPtr> tickets;
    for (std::size_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(sys.arbiter_for_exchange(ids[s]).exchange(ids[s])->state,
                ExchangeState::kLocked);
      auto res = sys.pool().submit(claimed_settle(
          sys, seller_keys[s], ids[s], k[s] + kv[s], proofs[s]));
      ASSERT_TRUE(res.accepted) << res.error;
      tickets.push_back(res.ticket);
    }
    ASSERT_EQ(sys.pool().drain(), kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      ASSERT_TRUE(tickets[s]->receipt.success) << tickets[s]->receipt.error;
      EXPECT_EQ(sys.chain().balance(sellers[s]), sellers_before[s] + 450);
      EXPECT_EQ(sys.arbiter_for_exchange(ids[s]).exchange(ids[s])->state,
                ExchangeState::kSettled);
      // Exactly once: the replay reverts and moves no money.
      auto replay = sys.pool().submit(claimed_settle(
          sys, seller_keys[s], ids[s], k[s] + kv[s], proofs[s]));
      ASSERT_TRUE(replay.accepted);
      ASSERT_GT(sys.pool().drain(), 0u);
      EXPECT_FALSE(replay.ticket->receipt.success);
      EXPECT_EQ(sys.chain().balance(sellers[s]), sellers_before[s] + 450);
    }
  }
}

}  // namespace
}  // namespace zkdet::chain
