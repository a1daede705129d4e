// Integration tests: transformation protocol + key-secure exchange +
// ZKCP baseline, end-to-end through chain, storage and proofs.
#include <gtest/gtest.h>

#include "core/exchange.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::core {
namespace {

using chain::Formula;
using crypto::Drbg;
using crypto::KeyPair;
using ff::Fr;

struct ProtocolFixture : ::testing::Test {
  // The system (SRS, contracts, preprocessed shapes) is expensive;
  // share one across every test in this binary.
  static ZkdetSystem& sys() {
    static ZkdetSystem s(1 << 14, 13);
    return s;
  }
  static TransformationProtocol& tp() {
    static TransformationProtocol t(sys());
    return t;
  }

  Drbg rng{77};
  KeyPair alice = KeyPair::generate(rng);
  KeyPair bob = KeyPair::generate(rng);
  KeyPair carol = KeyPair::generate(rng);

  void SetUp() override {
    sys().chain().create_account(alice, 100000);
    sys().chain().create_account(bob, 100000);
    sys().chain().create_account(carol, 100000);
  }

  std::vector<Fr> make_data(std::size_t n, std::uint64_t base = 100) {
    std::vector<Fr> d;
    for (std::size_t i = 0; i < n; ++i) d.push_back(Fr::from_u64(base + i));
    return d;
  }
};

TEST_F(ProtocolFixture, PublishMintsVerifiableToken) {
  auto asset = tp().publish(alice, make_data(4));
  ASSERT_TRUE(asset.has_value());
  EXPECT_NE(asset->token_id, 0u);
  const auto info = sys().nft().token(asset->token_id);
  ASSERT_TRUE(info);
  EXPECT_EQ(info->owner, crypto::address_of(alice.pk));
  EXPECT_EQ(info->formula, Formula::kGenesis);
  EXPECT_EQ(info->data_commitment,
            commit_dataset(asset->plain, asset->data_blinder));
  // anyone can validate the encryption proof
  EXPECT_TRUE(tp().verify_encryption(asset->token_id));
  EXPECT_TRUE(tp().verify_provenance_chain(asset->token_id));
}

TEST_F(ProtocolFixture, PublishedCiphertextIsStoredAndDecryptable) {
  auto asset = tp().publish(alice, make_data(4, 500));
  ASSERT_TRUE(asset);
  const auto* rec = tp().encryption_record(asset->token_id);
  ASSERT_NE(rec, nullptr);
  const auto blob = sys().storage().get(rec->data_cid);
  ASSERT_TRUE(blob);
  const auto ct = storage::blob_to_dataset(*blob);
  ASSERT_TRUE(ct);
  // the owner can decrypt their own upload
  EXPECT_EQ(crypto::mimc_ctr_decrypt(asset->key, asset->nonce, *ct),
            asset->plain);
  // ciphertext is not the plaintext
  EXPECT_NE(*ct, asset->plain);
}

TEST_F(ProtocolFixture, DuplicationProvenance) {
  auto src = tp().publish(alice, make_data(4, 200));
  ASSERT_TRUE(src);
  auto dup = tp().duplicate(alice, *src);
  ASSERT_TRUE(dup);
  EXPECT_EQ(dup->plain, src->plain);
  const auto info = sys().nft().token(dup->token_id);
  EXPECT_EQ(info->formula, Formula::kDuplication);
  EXPECT_EQ(info->prev_ids, std::vector<std::uint64_t>{src->token_id});
  EXPECT_TRUE(tp().verify_transformation(dup->token_id));
  EXPECT_TRUE(tp().verify_provenance_chain(dup->token_id));
  // different key + blinder: commitments differ although data equal
  EXPECT_NE(info->data_commitment,
            sys().nft().token(src->token_id)->data_commitment);
}

TEST_F(ProtocolFixture, AggregationProvenance) {
  auto a = tp().publish(alice, make_data(2, 300));
  auto b = tp().publish(alice, make_data(3, 400));
  ASSERT_TRUE(a && b);
  const std::vector<OwnedAsset> srcs{*a, *b};
  auto agg = tp().aggregate(alice, srcs);
  ASSERT_TRUE(agg);
  EXPECT_EQ(agg->plain.size(), 5u);
  EXPECT_EQ(agg->plain[0], a->plain[0]);
  EXPECT_EQ(agg->plain[2], b->plain[0]);
  const auto info = sys().nft().token(agg->token_id);
  EXPECT_EQ(info->formula, Formula::kAggregation);
  EXPECT_EQ(info->prev_ids,
            (std::vector<std::uint64_t>{a->token_id, b->token_id}));
  EXPECT_TRUE(tp().verify_provenance_chain(agg->token_id));
}

TEST_F(ProtocolFixture, PartitionProvenance) {
  auto src = tp().publish(alice, make_data(4, 600));
  ASSERT_TRUE(src);
  auto parts = tp().partition(alice, *src, {1, 3});
  ASSERT_TRUE(parts);
  ASSERT_EQ(parts->size(), 2u);
  EXPECT_EQ((*parts)[0].plain, std::vector<Fr>{src->plain[0]});
  EXPECT_EQ((*parts)[1].plain,
            (std::vector<Fr>{src->plain[1], src->plain[2], src->plain[3]}));
  for (const auto& p : *parts) {
    EXPECT_TRUE(tp().verify_transformation(p.token_id));
    EXPECT_TRUE(tp().verify_provenance_chain(p.token_id));
  }
}

TEST_F(ProtocolFixture, PartitionRejectsBadSizes) {
  auto src = tp().publish(alice, make_data(4, 700));
  ASSERT_TRUE(src);
  EXPECT_FALSE(tp().partition(alice, *src, {1, 2}).has_value());   // not exhaustive
  EXPECT_FALSE(tp().partition(alice, *src, {0, 4}).has_value());   // empty part
  EXPECT_FALSE(tp().partition(alice, *src, {5}).has_value());      // too big
}

TEST_F(ProtocolFixture, ProcessingProvenance) {
  auto src = tp().publish(alice, make_data(3, 800));
  ASSERT_TRUE(src);
  const TransformGadget sum_gadget =
      [](gadgets::CircuitBuilder& bld,
         std::span<const gadgets::Wire> s) -> std::vector<gadgets::Wire> {
    gadgets::Wire acc = bld.zero();
    for (const auto w : s) acc = bld.add(acc, w);
    return {acc};
  };
  auto derived = tp().process(alice, *src, sum_gadget, "sum");
  ASSERT_TRUE(derived);
  ASSERT_EQ(derived->plain.size(), 1u);
  Fr expect = Fr::zero();
  for (const Fr& x : src->plain) expect += x;
  EXPECT_EQ(derived->plain[0], expect);
  EXPECT_TRUE(tp().verify_provenance_chain(derived->token_id));
}

TEST_F(ProtocolFixture, MultiHopProvenanceChain) {
  // genesis -> duplicate -> partition -> aggregate: the whole DAG checks.
  auto g = tp().publish(alice, make_data(4, 900));
  ASSERT_TRUE(g);
  auto d = tp().duplicate(alice, *g);
  ASSERT_TRUE(d);
  auto parts = tp().partition(alice, *d, {2, 2});
  ASSERT_TRUE(parts);
  const std::vector<OwnedAsset> srcs{(*parts)[0], (*parts)[1]};
  auto agg = tp().aggregate(alice, srcs);
  ASSERT_TRUE(agg);
  EXPECT_TRUE(tp().verify_provenance_chain(agg->token_id));
  const auto ancestors = sys().nft().provenance(agg->token_id);
  EXPECT_EQ(ancestors.size(), 4u);  // g, d, two parts
}

TEST_F(ProtocolFixture, CannotTransformForeignAsset) {
  auto src = tp().publish(alice, make_data(3, 1000));
  ASSERT_TRUE(src);
  // Bob holds Alice's secrets (stolen) but does not own the token:
  // the chain rejects the derived mint.
  EXPECT_FALSE(tp().duplicate(bob, *src).has_value());
}

TEST_F(ProtocolFixture, ProofsArePublicInStorage) {
  // The proof chain is public: any participant can fetch a serialized
  // pi_e from the storage network by its CID, parse it, and verify it
  // against a statement rebuilt purely from chain + storage state.
  auto asset = tp().publish(alice, make_data(4, 3000));
  ASSERT_TRUE(asset);
  const auto* rec = tp().encryption_record(asset->token_id);
  ASSERT_NE(rec, nullptr);
  const auto blob = sys().storage().get(rec->proof_cid);
  ASSERT_TRUE(blob);
  const auto proof = plonk::Proof::from_bytes(*blob);
  ASSERT_TRUE(proof);

  const auto info = sys().nft().token(asset->token_id);
  const auto ct_blob = sys().storage().get(rec->data_cid);
  const auto ct = storage::blob_to_dataset(*ct_blob);
  std::vector<Fr> publics{rec->nonce, info->data_commitment};
  publics.insert(publics.end(), ct->begin(), ct->end());
  const auto* keys = sys().find_keys(rec->shape_id);
  ASSERT_NE(keys, nullptr);
  EXPECT_TRUE(plonk::verify(keys->vk, publics, *proof));
}

TEST_F(ProtocolFixture, StorageTamperBreaksVerification) {
  auto asset = tp().publish(alice, make_data(4, 1100));
  ASSERT_TRUE(asset);
  const auto* rec = tp().encryption_record(asset->token_id);
  ASSERT_NE(rec, nullptr);
  // corrupt every replica of the ciphertext
  for (std::size_t i = 0; i < sys().storage().num_nodes(); ++i) {
    sys().storage().node(i).corrupt(rec->data_cid);
  }
  EXPECT_FALSE(tp().verify_encryption(asset->token_id));
  EXPECT_FALSE(tp().verify_provenance_chain(asset->token_id));
}

TEST_F(ProtocolFixture, UnpublishedTokenFailsVerification) {
  EXPECT_FALSE(tp().verify_encryption(999999));
  EXPECT_FALSE(tp().verify_provenance_chain(999999));
}

// The registry is untrusted: a forger can rewrite any filed proof. The
// records are non-const map entries, so tests forge them in place.
plonk::Proof& filed_proof(const TransformationProtocol& t, std::uint64_t id,
                          bool encryption) {
  if (encryption) {
    return const_cast<EncryptionRecord*>(t.encryption_record(id))->proof;
  }
  return const_cast<TransformRecord*>(t.transform_record(id))->proof;
}

TEST_F(ProtocolFixture, ChainFoldVerdictMatchesPerProofVerdicts) {
  // Random chains of depth 1, 2 and 3 over datasets of 2 or 4 entries.
  // With each pi_e and pi_t of a chain forged in turn, the folded chain
  // verdict must equal the AND of the per-proof verdicts, and the
  // attribution must name the first token whose own check fails.
  TransformationProtocol local(sys());
  Drbg pick(4242);
  for (std::size_t depth = 1; depth <= 3; ++depth) {
    const std::uint64_t base = 5000 + 100 * depth;
    const auto side = local.publish(alice, make_data(2, base));
    std::optional<OwnedAsset> cur = local.publish(alice, make_data(2, base + 50));
    ASSERT_TRUE(side && cur);
    for (std::size_t step = 0; step < depth; ++step) {
      const bool first_op = pick() % 2 == 0;
      if (first_op) {
        cur = local.duplicate(alice, *cur);
      } else if (cur->plain.size() == 2) {
        const std::vector<OwnedAsset> srcs{*cur, *side};
        cur = local.aggregate(alice, srcs);
      } else {
        const auto parts = local.partition(alice, *cur, {2, 2});
        ASSERT_TRUE(parts);
        cur = parts->at(pick() % 2);
      }
      ASSERT_TRUE(cur);
    }
    const std::uint64_t target = cur->token_id;
    EXPECT_TRUE(local.verify_provenance_chain(target));
    EXPECT_EQ(local.first_invalid_in_chain(target), std::nullopt);

    std::vector<std::uint64_t> all = sys().nft().provenance(target);
    all.push_back(target);
    // Every proof of the chain: (token, pi_e or pi_t).
    std::vector<std::pair<std::uint64_t, bool>> proofs;
    for (const std::uint64_t t : all) {
      proofs.emplace_back(t, true);
      if (local.transform_record(t) != nullptr) proofs.emplace_back(t, false);
    }
    for (const auto& [token, encryption] : proofs) {
      plonk::Proof& filed = filed_proof(local, token, encryption);
      const plonk::Proof honest = filed;
      filed.eval_a += Fr::one();
      bool all_ok = true;
      std::optional<std::uint64_t> first_bad;
      for (const std::uint64_t t : all) {
        const bool ok =
            local.verify_encryption(t) && local.verify_transformation(t);
        all_ok = all_ok && ok;
        if (!ok && !first_bad) first_bad = t;
      }
      EXPECT_FALSE(all_ok);
      EXPECT_EQ(first_bad, token);
      EXPECT_EQ(local.verify_provenance_chain(target), all_ok)
          << "depth " << depth << " token " << token;
      EXPECT_EQ(local.first_invalid_in_chain(target), first_bad)
          << "depth " << depth << " token " << token;
      filed = honest;
    }
    // Two forgeries at once: the earlier token is named.
    if (proofs.front().first != proofs.back().first) {
      plonk::Proof& early = filed_proof(local, proofs.front().first, true);
      plonk::Proof& late =
          filed_proof(local, proofs.back().first, proofs.back().second);
      const plonk::Proof early_honest = early;
      const plonk::Proof late_honest = late;
      early.eval_b += Fr::one();
      late.eval_b += Fr::one();
      EXPECT_EQ(local.first_invalid_in_chain(target), proofs.front().first);
      early = early_honest;
      late = late_honest;
    }
    EXPECT_TRUE(local.verify_provenance_chain(target));
  }
}

TEST_F(ProtocolFixture, ChainAttributionNamesUnmintedAndUnreadableTokens) {
  EXPECT_EQ(tp().first_invalid_in_chain(888888), 888888u);
  // An unreadable ancestor ciphertext fails without a pairing and is
  // named even though every later proof verifies.
  auto src = tp().publish(alice, make_data(2, 1200));
  ASSERT_TRUE(src);
  auto dup = tp().duplicate(alice, *src);
  ASSERT_TRUE(dup);
  EXPECT_EQ(tp().first_invalid_in_chain(dup->token_id), std::nullopt);
  const auto* rec = tp().encryption_record(src->token_id);
  for (std::size_t i = 0; i < sys().storage().num_nodes(); ++i) {
    sys().storage().node(i).corrupt(rec->data_cid);
  }
  EXPECT_EQ(tp().first_invalid_in_chain(dup->token_id), src->token_id);
  EXPECT_FALSE(tp().verify_provenance_chain(dup->token_id));
}

TEST_F(ProtocolFixture, ConcurrentAuditorsVerifyChains) {
  // The audit workload's shape: four pool threads verify provenance
  // chains at the same time, each starting at a different target.
  auto src = tp().publish(alice, make_data(2, 1300));
  ASSERT_TRUE(src);
  auto dup = tp().duplicate(alice, *src);
  ASSERT_TRUE(dup);
  const std::vector<std::uint64_t> targets = {src->token_id, dup->token_id};
  const auto verdicts =
      runtime::ThreadPool::instance().parallel_map<std::uint8_t>(
          4, [&](std::size_t auditor) {
            bool ok = true;
            for (std::size_t k = 0; k < 2 * targets.size(); ++k) {
              const std::uint64_t id = targets[(auditor + k) % targets.size()];
              ok = tp().verify_provenance_chain(id) && ok;
            }
            return static_cast<std::uint8_t>(ok ? 1 : 0);
          });
  for (const std::uint8_t v : verdicts) EXPECT_EQ(v, 1u);
}

// --- key-secure exchange ---

struct ExchangeFixture : ProtocolFixture {
  KeySecureExchange ex{sys(), tp()};
  ZkcpExchange zkcp{sys(), tp()};
};

TEST_F(ExchangeFixture, FullHonestExchange) {
  auto asset = tp().publish(alice, make_data(4, 1200));
  ASSERT_TRUE(asset);
  auto offer = ex.make_offer(*asset, nullptr, "any");
  ASSERT_TRUE(offer);
  EXPECT_TRUE(ex.verify_offer(*offer));

  const std::uint64_t alice_before =
      sys().chain().balance(crypto::address_of(alice.pk));
  auto session = ex.lock_payment(bob, *offer, 750, 100);
  ASSERT_TRUE(session);
  // seller receives k_v off-chain and settles
  EXPECT_TRUE(ex.settle(alice, *asset, session->exchange_id, session->k_v));
  EXPECT_EQ(sys().chain().balance(crypto::address_of(alice.pk)),
            alice_before + 750);
  // buyer recovers the plaintext
  auto data = ex.recover_data(*session);
  ASSERT_TRUE(data);
  EXPECT_EQ(*data, asset->plain);
}

TEST_F(ExchangeFixture, KeyNeverAppearsOnChain) {
  auto asset = tp().publish(alice, make_data(4, 1300));
  ASSERT_TRUE(asset);
  auto offer = ex.make_offer(*asset, nullptr, "any");
  auto session = ex.lock_payment(bob, *offer, 500, 100);
  ASSERT_TRUE(session);
  ASSERT_TRUE(ex.settle(alice, *asset, session->exchange_id, session->k_v));
  // on-chain record holds only k_c = k + k_v, not k
  const auto info = sys().arbiter().exchange(session->exchange_id);
  ASSERT_TRUE(info);
  EXPECT_NE(info->k_c, asset->key);
  // a third party with chain access but no k_v cannot decrypt
  const auto* rec = tp().encryption_record(asset->token_id);
  const auto blob = sys().storage().get(rec->data_cid);
  const auto ct = storage::blob_to_dataset(*blob);
  const auto eve_guess =
      crypto::mimc_ctr_decrypt(info->k_c, rec->nonce, *ct);  // wrong key
  EXPECT_NE(eve_guess, asset->plain);
}

TEST_F(ExchangeFixture, PredicateOfferVerifies) {
  // sell a dataset claimed to contain only small values
  auto asset = tp().publish(alice, make_data(4, 50));
  ASSERT_TRUE(asset);
  const Predicate small = [](gadgets::CircuitBuilder& bld,
                             std::span<const gadgets::Wire> data) {
    for (const auto w : data) bld.assert_range(w, 16);
  };
  auto offer = ex.make_offer(*asset, small, "u16");
  ASSERT_TRUE(offer);
  EXPECT_TRUE(ex.verify_offer(*offer));
}

TEST_F(ExchangeFixture, FalsePredicateCannotBeOffered) {
  std::vector<Fr> big{Fr::from_u64(1) + Fr::from_u64(1u << 20),
                      Fr::from_u64(2), Fr::from_u64(3), Fr::from_u64(4)};
  auto asset = tp().publish(alice, big);
  ASSERT_TRUE(asset);
  const Predicate small = [](gadgets::CircuitBuilder& bld,
                             std::span<const gadgets::Wire> data) {
    for (const auto w : data) bld.assert_range(w, 16);
  };
  EXPECT_FALSE(ex.make_offer(*asset, small, "u16").has_value());
}

// pi_e and pi_p share their public inputs (nonce, c_d, ct...), so the
// buyer must pick the pi_p key from the predicate it asked for: a
// token's public pi_e posing as a "u16" proof is rejected.
TEST_F(ExchangeFixture, OfferCannotPassEncryptionProofAsPredicateProof) {
  const Predicate small = [](gadgets::CircuitBuilder& bld,
                             std::span<const gadgets::Wire> data) {
    for (const auto w : data) bld.assert_range(w, 16);
  };
  // An honest offer makes the pi_p/u16/4 key exist.
  auto honest = tp().publish(alice, make_data(4, 60));
  ASSERT_TRUE(honest);
  auto good = ex.make_offer(*honest, small, "u16");
  ASSERT_TRUE(good);
  ASSERT_TRUE(ex.verify_offer(*good));

  std::vector<Fr> big{Fr::from_u64(1) + Fr::from_u64(1u << 20),
                      Fr::from_u64(2), Fr::from_u64(3), Fr::from_u64(4)};
  auto asset = tp().publish(alice, big);
  ASSERT_TRUE(asset);
  EXPECT_FALSE(ex.make_offer(*asset, small, "u16").has_value());
  Offer forged;
  forged.token_id = asset->token_id;
  forged.predicate_tag = "u16";
  forged.proof_p = tp().encryption_record(asset->token_id)->proof;
  EXPECT_FALSE(ex.verify_offer(forged));
}

TEST_F(ExchangeFixture, OfferForTamperedStorageRejected) {
  auto asset = tp().publish(alice, make_data(4, 1400));
  ASSERT_TRUE(asset);
  auto offer = ex.make_offer(*asset, nullptr, "any");
  ASSERT_TRUE(offer);
  const auto* rec = tp().encryption_record(asset->token_id);
  for (std::size_t i = 0; i < sys().storage().num_nodes(); ++i) {
    sys().storage().node(i).corrupt(rec->data_cid);
  }
  EXPECT_FALSE(ex.verify_offer(*offer));
}

TEST_F(ExchangeFixture, SellerAbortsOnForgedKv) {
  auto asset = tp().publish(alice, make_data(4, 1500));
  ASSERT_TRUE(asset);
  auto offer = ex.make_offer(*asset, nullptr, "any");
  auto session = ex.lock_payment(bob, *offer, 400, 100);
  ASSERT_TRUE(session);
  // buyer sends a k_v that does not hash to the locked h_v
  EXPECT_FALSE(ex.settle(alice, *asset, session->exchange_id,
                         session->k_v + Fr::one()));
  // and can reclaim the escrow after the deadline
  sys().chain().advance_blocks(101);
  EXPECT_TRUE(ex.refund(bob, session->exchange_id));
}

TEST_F(ExchangeFixture, SettleRequiresMatchingAsset) {
  auto asset1 = tp().publish(alice, make_data(4, 1600));
  auto asset2 = tp().publish(alice, make_data(4, 1700));
  ASSERT_TRUE(asset1 && asset2);
  auto offer = ex.make_offer(*asset1, nullptr, "any");
  auto session = ex.lock_payment(bob, *offer, 400, 100);
  ASSERT_TRUE(session);
  // settling with the wrong asset's key fails (commitment mismatch)
  EXPECT_FALSE(ex.settle(alice, *asset2, session->exchange_id, session->k_v));
  // the right asset still settles
  EXPECT_TRUE(ex.settle(alice, *asset1, session->exchange_id, session->k_v));
}

TEST_F(ExchangeFixture, RecoverBeforeSettleFails) {
  auto asset = tp().publish(alice, make_data(4, 1800));
  ASSERT_TRUE(asset);
  auto offer = ex.make_offer(*asset, nullptr, "any");
  auto session = ex.lock_payment(bob, *offer, 400, 100);
  ASSERT_TRUE(session);
  EXPECT_FALSE(ex.recover_data(*session).has_value());
}

TEST_F(ExchangeFixture, ZkcpLeaksToEavesdropper) {
  // The baseline completes the trade but any third party (carol) can
  // then decrypt the public ciphertext — the paper's motivating flaw.
  auto asset = tp().publish(alice, make_data(4, 1900));
  ASSERT_TRUE(asset);
  auto offer = zkcp.make_offer(*asset, nullptr, "any");
  ASSERT_TRUE(offer);
  EXPECT_TRUE(zkcp.verify_offer(*offer));
  auto xid = zkcp.lock_payment(bob, *offer, 350);
  ASSERT_TRUE(xid);
  EXPECT_TRUE(zkcp.open(alice, *asset, *xid));
  // carol never took part in the exchange:
  const auto stolen = zkcp.eavesdrop(*xid, asset->token_id);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(*stolen, asset->plain);
}

TEST_F(ExchangeFixture, KeyPurchaseAfterTokenTransfer) {
  // The token can change hands (sale/auction) before the key exchange:
  // the escrow then names the key holder explicitly.
  auto asset = tp().publish(alice, make_data(4, 2050));
  ASSERT_TRUE(asset);
  const auto alice_addr = crypto::address_of(alice.pk);
  const auto bob_addr = crypto::address_of(bob.pk);
  const auto r = sys().chain().call(alice, "xfer", [&](chain::CallContext& ctx) {
    sys().nft().transfer_from(ctx, alice_addr, bob_addr, asset->token_id);
  });
  ASSERT_TRUE(r.success) << r.error;

  auto offer = ex.make_offer(*asset, nullptr, "any");
  ASSERT_TRUE(offer);
  const std::uint64_t alice_before = sys().chain().balance(alice_addr);
  auto session = ex.lock_payment(bob, *offer, 600, 100, alice_addr);
  ASSERT_TRUE(session);
  EXPECT_TRUE(ex.settle(alice, *asset, session->exchange_id, session->k_v));
  EXPECT_EQ(sys().chain().balance(alice_addr), alice_before + 600);
  auto data = ex.recover_data(*session);
  ASSERT_TRUE(data);
  EXPECT_EQ(*data, asset->plain);
}

TEST_F(ExchangeFixture, SampleDisclosureVerifies) {
  auto asset = tp().publish(alice, make_data(4, 2100));
  ASSERT_TRUE(asset);
  auto sample = ex.disclose_sample(*asset, 2);
  ASSERT_TRUE(sample);
  EXPECT_EQ(sample->value, asset->plain[2]);
  EXPECT_TRUE(ex.verify_sample(*sample));
  // out-of-range index refused
  EXPECT_FALSE(ex.disclose_sample(*asset, 99).has_value());
}

TEST_F(ExchangeFixture, SampleDisclosureCannotLie) {
  auto asset = tp().publish(alice, make_data(4, 2200));
  ASSERT_TRUE(asset);
  auto sample = ex.disclose_sample(*asset, 1);
  ASSERT_TRUE(sample);
  // claiming a different value for the entry fails against c_d
  sample->value += Fr::one();
  EXPECT_FALSE(ex.verify_sample(*sample));
  // and a proof for one token cannot be replayed for another
  auto other = tp().publish(alice, make_data(4, 2300));
  ASSERT_TRUE(other);
  auto sample2 = ex.disclose_sample(*asset, 1);
  ASSERT_TRUE(sample2);
  sample2->token_id = other->token_id;
  EXPECT_FALSE(ex.verify_sample(*sample2));
}

TEST_F(ExchangeFixture, SampleIndexIsBoundToProof) {
  auto asset = tp().publish(alice, make_data(4, 2400));
  ASSERT_TRUE(asset);
  // Both pi_s keys exist, so the check below is a real verification.
  ASSERT_TRUE(ex.disclose_sample(*asset, 2));
  auto sample = ex.disclose_sample(*asset, 1);
  ASSERT_TRUE(sample);
  ASSERT_TRUE(ex.verify_sample(*sample));
  // The proof opens entry 1; it must not vouch for the same value at 2.
  sample->index = 2;
  EXPECT_FALSE(ex.verify_sample(*sample));
}

TEST_F(ExchangeFixture, SettleBatchSettlesEachExactlyOnce) {
  // Two sellers settle two exchanges in one settle_batch call: both
  // ride the batched claim path, both succeed, both buyers recover
  // their data — and a replayed batch is rejected wholesale.
  auto asset_a = tp().publish(alice, make_data(4, 3100));
  auto asset_c = tp().publish(carol, make_data(4, 3200));
  ASSERT_TRUE(asset_a);
  ASSERT_TRUE(asset_c);
  auto offer_a = ex.make_offer(*asset_a, nullptr, "any");
  auto offer_c = ex.make_offer(*asset_c, nullptr, "any");
  ASSERT_TRUE(offer_a);
  ASSERT_TRUE(offer_c);
  auto session_a = ex.lock_payment(bob, *offer_a, 310, 100);
  auto session_c = ex.lock_payment(bob, *offer_c, 320, 100);
  ASSERT_TRUE(session_a);
  ASSERT_TRUE(session_c);

  const auto alice_addr = crypto::address_of(alice.pk);
  const auto carol_addr = crypto::address_of(carol.pk);
  const std::uint64_t alice_before = sys().chain().balance(alice_addr);
  const std::uint64_t carol_before = sys().chain().balance(carol_addr);

  const KeySecureExchange::SettleRequest reqs[] = {
      {&alice, &*asset_a, session_a->exchange_id, session_a->k_v},
      {&carol, &*asset_c, session_c->exchange_id, session_c->k_v},
  };
  const auto ok = ex.settle_batch(reqs);
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
  EXPECT_EQ(sys().chain().balance(alice_addr), alice_before + 310);
  EXPECT_EQ(sys().chain().balance(carol_addr), carol_before + 320);
  auto data_a = ex.recover_data(*session_a);
  auto data_c = ex.recover_data(*session_c);
  ASSERT_TRUE(data_a);
  ASSERT_TRUE(data_c);
  EXPECT_EQ(*data_a, asset_a->plain);
  EXPECT_EQ(*data_c, asset_c->plain);

  // Exactly once: replaying the same batch settles nothing twice.
  const auto replay = ex.settle_batch(reqs);
  EXPECT_FALSE(replay[0]);
  EXPECT_FALSE(replay[1]);
  EXPECT_EQ(sys().chain().balance(alice_addr), alice_before + 310);
  EXPECT_EQ(sys().chain().balance(carol_addr), carol_before + 320);
}

TEST_F(ExchangeFixture, ZkcpOpenBatchRedeemsAll) {
  // ZKCP settlement has no pairing to fold (Poseidon preimage check):
  // open_batch batches for throughput, with the same leak per entry.
  auto asset1 = tp().publish(alice, make_data(4, 3300));
  auto asset2 = tp().publish(carol, make_data(4, 3400));
  ASSERT_TRUE(asset1);
  ASSERT_TRUE(asset2);
  auto offer1 = zkcp.make_offer(*asset1, nullptr, "any");
  auto offer2 = zkcp.make_offer(*asset2, nullptr, "any");
  ASSERT_TRUE(offer1);
  ASSERT_TRUE(offer2);
  auto xid1 = zkcp.lock_payment(bob, *offer1, 210);
  auto xid2 = zkcp.lock_payment(bob, *offer2, 220);
  ASSERT_TRUE(xid1);
  ASSERT_TRUE(xid2);

  const ZkcpExchange::OpenRequest reqs[] = {
      {&alice, &*asset1, *xid1},
      {&carol, &*asset2, *xid2},
  };
  const auto ok = zkcp.open_batch(reqs);
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
  // Both keys are now public chain state — the flaw, at batch scale.
  EXPECT_TRUE(zkcp.eavesdrop(*xid1, asset1->token_id).has_value());
  EXPECT_TRUE(zkcp.eavesdrop(*xid2, asset2->token_id).has_value());
  // Replays revert: each redemption is exactly-once.
  const auto replay = zkcp.open_batch(reqs);
  EXPECT_FALSE(replay[0]);
  EXPECT_FALSE(replay[1]);
}

TEST_F(ExchangeFixture, KeySecureResistsEavesdropper) {
  auto asset = tp().publish(alice, make_data(4, 2000));
  ASSERT_TRUE(asset);
  auto offer = ex.make_offer(*asset, nullptr, "any");
  auto session = ex.lock_payment(bob, *offer, 350, 100);
  ASSERT_TRUE(session);
  ASSERT_TRUE(ex.settle(alice, *asset, session->exchange_id, session->k_v));
  // carol tries the same eavesdropping: all she sees on-chain is k_c.
  const auto info = sys().arbiter().exchange(session->exchange_id);
  const auto* rec = tp().encryption_record(asset->token_id);
  const auto blob = sys().storage().get(rec->data_cid);
  const auto ct = storage::blob_to_dataset(*blob);
  EXPECT_NE(crypto::mimc_ctr_decrypt(info->k_c, rec->nonce, *ct),
            asset->plain);
}

}  // namespace
}  // namespace zkdet::core
