#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "chain/auction.hpp"
#include "chain/chain.hpp"
#include "chain/nft.hpp"
#include "ledger/codec.hpp"
#include "ledger/ledger.hpp"
#include "ledger/wal.hpp"

namespace zkdet::chain {
namespace {

using crypto::Drbg;
using crypto::KeyPair;
using ff::Fr;

struct ChainFixture : ::testing::Test {
  Drbg rng{1};
  Chain chain;
  KeyPair alice_keys = KeyPair::generate(rng);
  KeyPair bob_keys = KeyPair::generate(rng);
  Address alice = chain.create_account(alice_keys, 1000);
  Address bob = chain.create_account(bob_keys, 500);
};

TEST_F(ChainFixture, AccountsAndBalances) {
  EXPECT_EQ(chain.balance(alice), 1000u);
  EXPECT_EQ(chain.balance(bob), 500u);
  EXPECT_EQ(chain.balance("0xnobody"), 0u);
}

TEST_F(ChainFixture, TransferMovesFunds) {
  chain.transfer(alice, bob, 100);
  EXPECT_EQ(chain.balance(alice), 900u);
  EXPECT_EQ(chain.balance(bob), 600u);
}

TEST_F(ChainFixture, TransferInsufficientThrows) {
  EXPECT_THROW(chain.transfer(bob, alice, 501), Revert);
}

TEST_F(ChainFixture, CallChargesBaseGas) {
  const Receipt r = chain.call(alice_keys, "noop", [](CallContext&) {});
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.gas_used, chain.gas_schedule().tx_base);
}

TEST_F(ChainFixture, UnknownSenderRejected) {
  const KeyPair stranger = KeyPair::generate(rng);
  const Receipt r = chain.call(stranger, "noop", [](CallContext&) {});
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("unknown sender"), std::string::npos);
}

TEST_F(ChainFixture, RevertReportsReason) {
  const Receipt r = chain.call(alice_keys, "fail", [](CallContext& ctx) {
    ctx.require(false, "nope");
  });
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("nope"), std::string::npos);
}

TEST_F(ChainFixture, ValueTransferEscrowsAndRefundsOnRevert) {
  Receipt* ignored = nullptr;
  DataNft& nft = chain.deploy<DataNft>(alice_keys, ignored);
  const std::uint64_t before = chain.balance(alice);
  const Receipt r = chain.call(
      alice_keys, "pay-and-fail",
      [](CallContext& ctx) { ctx.require(false, "bad"); }, 100,
      nft.address());
  EXPECT_FALSE(r.success);
  EXPECT_EQ(chain.balance(alice), before);  // escrow rolled back
}

// A contract with public storage access, for tests that poke slots.
struct Probe : Contract {
  Probe() : Contract("Probe", 10) {}
  using Contract::store;
};

// A reverted call rolls back whole: the slot it wrote before reverting
// reaches neither contract storage nor the block delta the ledger
// journals for the (failed, but included) tx.
TEST_F(ChainFixture, RevertedCallLeavesNoPartialState) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("zkdet-chain-revert-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    ledger::Ledger ledger(chain, dir.string());
    Probe& probe = chain.deploy<Probe>(alice_keys, nullptr);
    const std::uint64_t seq = ledger.wal_seq();
    const Receipt r =
        chain.call(alice_keys, "write-then-revert", [&](CallContext& ctx) {
          probe.store().set(ctx, "k", Fr::from_u64(7));
          ctx.require(false, "after the write");
        });
    EXPECT_FALSE(r.success);
    EXPECT_EQ(probe.audit_store().peek("k"), std::nullopt);

    const auto read = ledger.read_records_after(seq, 1, nullptr);
    ASSERT_EQ(read.records.size(), 1u);
    ledger::Reader rd{read.records[0].payload};
    ASSERT_EQ(rd.u8(), ledger::kRecordBlock);
    (void)rd.u64();  // record sequence
    const Block block = ledger::read_block(rd);
    const StateDelta delta = ledger::read_delta(rd);
    ASSERT_EQ(block.txs.size(), 1u);
    EXPECT_FALSE(block.txs[0].success);
    EXPECT_TRUE(delta.slot_sets.empty());
  }
  std::filesystem::remove_all(dir);
}

// The escrow payment of a reverted call is rolled back even when the
// contract already passed it on: every balance ends where it started.
TEST_F(ChainFixture, SpentEscrowRevertRollsBackWhole) {
  Probe& escrow = chain.deploy<Probe>(alice_keys, nullptr);
  const Receipt r = chain.call(
      alice_keys, "forward-then-revert",
      [&](CallContext& ctx) {
        ctx.chain().transfer(escrow.address(), bob, 100);
        ctx.require(false, "after forwarding");
      },
      /*value=*/100, /*pay_to=*/escrow.address());
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error.find("escrow refund failed"), std::string::npos)
      << r.error;
  EXPECT_EQ(chain.balance(alice), 1000u);
  EXPECT_EQ(chain.balance(bob), 500u);
  EXPECT_EQ(chain.balance(escrow.address()), 0u);
}

TEST_F(ChainFixture, OutOfGasHandled) {
  const Receipt r = chain.call(
      alice_keys, "gas-hog",
      [](CallContext& ctx) { ctx.gas().charge(1'000'000'000); }, 0, {},
      /*gas_limit=*/100'000);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error, "out of gas");
}

TEST_F(ChainFixture, BlocksLinkAndValidate) {
  chain.call(alice_keys, "a", [](CallContext&) {});
  chain.call(bob_keys, "b", [](CallContext&) {});
  chain.advance_blocks(3);
  EXPECT_TRUE(chain.validate_chain());
  EXPECT_GE(chain.blocks().size(), 6u);
  for (std::size_t i = 1; i < chain.blocks().size(); ++i) {
    EXPECT_EQ(chain.blocks()[i].prev_hash, chain.blocks()[i - 1].hash);
  }
}

// Regression: block_hash used to cover only (sender, description), so a
// node could rewrite a receipt's outcome — gas, success flag, events,
// even the signature — without breaking validate_chain(). The hash now
// covers the codec-serialized TxRecord, so every mutation below must be
// detected.
TEST_F(ChainFixture, TamperedReceiptOutcomeBreaksValidation) {
  chain.call(alice_keys, "tamper-target", [](CallContext& ctx) {
    ctx.emit(Event{"Ping", {{"k", "v"}}});
  });
  ASSERT_TRUE(chain.validate_chain());
  auto& blocks = const_cast<std::vector<Block>&>(chain.blocks());
  TxRecord& tx = blocks.back().txs.at(0);

  const std::uint64_t gas = tx.gas_used;
  tx.gas_used += 1;
  EXPECT_FALSE(chain.validate_chain()) << "gas_used tamper undetected";
  tx.gas_used = gas;

  tx.success = !tx.success;
  EXPECT_FALSE(chain.validate_chain()) << "success-flag tamper undetected";
  tx.success = !tx.success;

  ASSERT_FALSE(tx.events.empty());
  const std::string v = tx.events[0].fields.at(0).second;
  tx.events[0].fields.at(0).second = "forged";
  EXPECT_FALSE(chain.validate_chain()) << "event tamper undetected";
  tx.events[0].fields.at(0).second = v;

  ASSERT_TRUE(tx.has_sig);
  tx.has_sig = false;
  EXPECT_FALSE(chain.validate_chain()) << "signature strip undetected";
  tx.has_sig = true;

  EXPECT_TRUE(chain.validate_chain()) << "restore should validate again";
}

TEST_F(ChainFixture, EventsRecorded) {
  const Receipt r = chain.call(alice_keys, "emit", [](CallContext& ctx) {
    ctx.emit(Event{"Ping", {{"k", "v"}}});
  });
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].name, "Ping");
  EXPECT_GT(r.gas_used, chain.gas_schedule().tx_base);  // log gas charged
}

TEST_F(ChainFixture, MeteredStoreGasSemantics) {
  DataNft& nft = chain.deploy<DataNft>(alice_keys, nullptr);
  (void)nft;
  // first set = sstore_set, second = sstore_update, read = sload
  struct Probe : Contract {
    Probe() : Contract("Probe", 10) {}
    using Contract::store;
  };
  Probe& probe = chain.deploy<Probe>(alice_keys, nullptr);
  std::uint64_t first = 0, second = 0, read = 0;
  chain.call(alice_keys, "s1", [&](CallContext& ctx) {
    const std::uint64_t g0 = ctx.gas().used();
    probe.store().set(ctx, "k", Fr::one());
    first = ctx.gas().used() - g0;
    probe.store().set(ctx, "k", Fr::from_u64(2));
    second = ctx.gas().used() - g0 - first;
    const std::uint64_t g1 = ctx.gas().used();
    (void)probe.store().get(ctx, "k");
    read = ctx.gas().used() - g1;
  });
  EXPECT_EQ(first, chain.gas_schedule().sstore_set);
  EXPECT_EQ(second, chain.gas_schedule().sstore_update);
  EXPECT_EQ(read, chain.gas_schedule().sload);
}

TEST(AddressCodec, RoundTripsAccountAndContractAddresses) {
  Drbg rng{3};
  const Address account = crypto::address_of(KeyPair::generate(rng).pk);
  EXPECT_EQ(decode_address(encode_address(account)), account);
  for (const Address& contract :
       {Address("ct:KeySecureArbiter#12"), Address("ct:ClockAuction#4"),
        "ct:" + std::string(30, 'x')}) {
    EXPECT_EQ(decode_address(encode_address(contract)), contract);
  }
  EXPECT_NE(encode_address("ct:DataNFT#1"), encode_address("ct:DataNFT#2"));
  EXPECT_NE(encode_address(account), encode_address("ct:DataNFT#1"));
}

TEST(AddressCodec, RejectsWhatItCannotPackReversibly) {
  EXPECT_THROW((void)encode_address("ct:" + std::string(31, 'x')), Revert);
  EXPECT_THROW((void)encode_address("0x" + std::string(42, 'a')), Revert);
  // Uppercase hex would decode to lowercase, not to itself.
  EXPECT_THROW((void)encode_address("0x" + std::string(40, 'A')), Revert);
  EXPECT_THROW((void)encode_address("0xnobody"), Revert);
  EXPECT_THROW((void)encode_address("ct:"), Revert);
  EXPECT_THROW((void)encode_address(""), Revert);
  EXPECT_THROW((void)decode_address(Fr::from_u64(7)), Revert);
}

TEST_F(ChainFixture, DeploymentGasFollowsCodeSize) {
  Receipt receipt;
  chain.deploy<DataNft>(alice_keys, &receipt);
  const auto& g = chain.gas_schedule();
  EXPECT_EQ(receipt.gas_used, g.tx_base + g.create_base + g.create_per_byte * 4839);
}

// --- NFT contract ---

struct NftFixture : ChainFixture {
  DataNft& nft = chain.deploy<DataNft>(alice_keys, nullptr);

  std::uint64_t mint_as(const KeyPair& who, std::uint64_t tag) {
    std::uint64_t id = 0;
    chain.call(who, "mint", [&](CallContext& ctx) {
      id = nft.mint(ctx, Fr::from_u64(tag), Fr::from_u64(tag + 1),
                    Fr::from_u64(tag + 2));
    });
    return id;
  }
};

TEST_F(NftFixture, MintAssignsSequentialIdsAndOwnership) {
  const std::uint64_t t1 = mint_as(alice_keys, 100);
  const std::uint64_t t2 = mint_as(bob_keys, 200);
  EXPECT_EQ(t1, 1u);
  EXPECT_EQ(t2, 2u);
  EXPECT_EQ(nft.token(t1)->owner, alice);
  EXPECT_EQ(nft.token(t2)->owner, bob);
  EXPECT_EQ(nft.token(t1)->uri, Fr::from_u64(100));
  EXPECT_EQ(nft.token(t1)->data_commitment, Fr::from_u64(101));
  EXPECT_EQ(nft.total_minted(), 2u);
}

TEST_F(NftFixture, TransferByOwner) {
  const std::uint64_t id = mint_as(alice_keys, 1);
  const Receipt r = chain.call(alice_keys, "xfer", [&](CallContext& ctx) {
    nft.transfer_from(ctx, alice, bob, id);
  });
  EXPECT_TRUE(r.success);
  EXPECT_EQ(nft.token(id)->owner, bob);
}

TEST_F(NftFixture, TransferByStrangerRejected) {
  const std::uint64_t id = mint_as(alice_keys, 1);
  const Receipt r = chain.call(bob_keys, "steal", [&](CallContext& ctx) {
    nft.transfer_from(ctx, alice, bob, id);
  });
  EXPECT_FALSE(r.success);
  EXPECT_EQ(nft.token(id)->owner, alice);
}

TEST_F(NftFixture, ApprovedOperatorMayTransfer) {
  const std::uint64_t id = mint_as(alice_keys, 1);
  chain.call(alice_keys, "approve", [&](CallContext& ctx) {
    nft.approve(ctx, bob, id);
  });
  const Receipt r = chain.call(bob_keys, "xfer", [&](CallContext& ctx) {
    nft.transfer_from(ctx, alice, bob, id);
  });
  EXPECT_TRUE(r.success);
  EXPECT_EQ(nft.token(id)->owner, bob);
  // approval cleared after transfer
  const Receipt r2 = chain.call(bob_keys, "xfer2", [&](CallContext& ctx) {
    nft.transfer_from(ctx, bob, alice, id);
  });
  EXPECT_TRUE(r2.success);  // bob owns it now, fine
  // Alice owns it again; bob's old approval must not let him take it.
  const Receipt r3 = chain.call(bob_keys, "xfer3", [&](CallContext& ctx) {
    nft.transfer_from(ctx, alice, bob, id);
  });
  EXPECT_FALSE(r3.success);
  EXPECT_EQ(nft.token(id)->owner, alice);
}

TEST_F(NftFixture, BurnRemovesToken) {
  const std::uint64_t id = mint_as(alice_keys, 1);
  const Receipt r = chain.call(alice_keys, "burn", [&](CallContext& ctx) {
    nft.burn(ctx, id);
  });
  EXPECT_TRUE(r.success);
  EXPECT_FALSE(nft.exists(id));
  // burning again fails
  const Receipt r2 = chain.call(alice_keys, "burn2", [&](CallContext& ctx) {
    nft.burn(ctx, id);
  });
  EXPECT_FALSE(r2.success);
}

TEST_F(NftFixture, BurnByNonOwnerRejected) {
  const std::uint64_t id = mint_as(alice_keys, 1);
  const Receipt r = chain.call(bob_keys, "burn", [&](CallContext& ctx) {
    nft.burn(ctx, id);
  });
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(nft.exists(id));
}

TEST_F(NftFixture, DerivedTokensTrackProvenance) {
  const std::uint64_t a = mint_as(alice_keys, 1);
  const std::uint64_t b = mint_as(alice_keys, 2);
  std::uint64_t agg = 0;
  chain.call(alice_keys, "agg", [&](CallContext& ctx) {
    agg = nft.mint_derived(ctx, Fr::from_u64(3), Fr::from_u64(4),
                           Fr::from_u64(5), Formula::kAggregation, {a, b});
  });
  ASSERT_NE(agg, 0u);
  EXPECT_EQ(nft.token(agg)->formula, Formula::kAggregation);
  EXPECT_EQ(nft.token(agg)->prev_ids, (std::vector<std::uint64_t>{a, b}));
  std::uint64_t proc = 0;
  chain.call(alice_keys, "proc", [&](CallContext& ctx) {
    proc = nft.mint_derived(ctx, Fr::from_u64(6), Fr::from_u64(7),
                            Fr::from_u64(8), Formula::kProcessing, {agg});
  });
  const auto anc = nft.provenance(proc);
  EXPECT_EQ(anc, (std::vector<std::uint64_t>{a, b, agg}));
}

TEST_F(NftFixture, DerivedFromForeignTokenRejected) {
  const std::uint64_t a = mint_as(alice_keys, 1);
  const Receipt r = chain.call(bob_keys, "derive", [&](CallContext& ctx) {
    nft.mint_derived(ctx, Fr::from_u64(2), Fr::from_u64(3), Fr::from_u64(4),
                     Formula::kDuplication, {a});
  });
  EXPECT_FALSE(r.success);
}

TEST_F(NftFixture, DerivedFromMissingParentRejected) {
  const Receipt r = chain.call(alice_keys, "derive", [&](CallContext& ctx) {
    nft.mint_derived(ctx, Fr::from_u64(2), Fr::from_u64(3), Fr::from_u64(4),
                     Formula::kDuplication, {999});
  });
  EXPECT_FALSE(r.success);
}

// --- Clock auction ---

struct AuctionFixture : NftFixture {
  ClockAuction& auction = chain.deploy<ClockAuction>(alice_keys, nullptr, nft);

  std::uint64_t list_token(std::uint64_t token, std::uint64_t start,
                           std::uint64_t floor, std::uint64_t decay) {
    chain.call(alice_keys, "approve", [&](CallContext& ctx) {
      nft.approve(ctx, auction.address(), token);
    });
    std::uint64_t id = 0;
    chain.call(alice_keys, "create-auction", [&](CallContext& ctx) {
      id = auction.create(ctx, token, start, floor, decay);
    });
    return id;
  }
};

TEST_F(AuctionFixture, PriceDecaysToFloor) {
  const std::uint64_t token = mint_as(alice_keys, 1);
  const std::uint64_t id = list_token(token, 100, 40, 10);
  ASSERT_NE(id, 0u);
  const std::uint64_t h0 = auction.auction(id)->start_block;
  EXPECT_EQ(auction.current_price(id, h0), 100u);
  EXPECT_EQ(auction.current_price(id, h0 + 3), 70u);
  EXPECT_EQ(auction.current_price(id, h0 + 100), 40u);  // floored
}

TEST_F(AuctionFixture, EscrowsTokenOnCreate) {
  const std::uint64_t token = mint_as(alice_keys, 1);
  list_token(token, 100, 40, 10);
  EXPECT_EQ(nft.token(token)->owner, auction.address());
}

TEST_F(AuctionFixture, BidSettlesAtClockPrice) {
  const std::uint64_t token = mint_as(alice_keys, 1);
  const std::uint64_t id = list_token(token, 100, 40, 10);
  chain.advance_blocks(2);
  const std::uint64_t alice_before = chain.balance(alice);
  const std::uint64_t bob_before = chain.balance(bob);
  const Receipt r = chain.call(
      bob_keys, "bid",
      [&](CallContext& ctx) { auction.bid(ctx, id); }, 100,
      auction.address());
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(nft.token(token)->owner, bob);
  const auto info = auction.auction(id);
  EXPECT_FALSE(info->open);
  EXPECT_EQ(info->winner, bob);
  // seller received the clock price; buyer refunded the overshoot
  EXPECT_EQ(chain.balance(alice), alice_before + info->settle_price);
  EXPECT_EQ(chain.balance(bob), bob_before - info->settle_price);
}

TEST_F(AuctionFixture, UnderbidRejected) {
  const std::uint64_t token = mint_as(alice_keys, 1);
  const std::uint64_t id = list_token(token, 400, 300, 1);
  const Receipt r = chain.call(
      bob_keys, "bid",
      [&](CallContext& ctx) { auction.bid(ctx, id); }, 50, auction.address());
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(auction.auction(id)->open);
  EXPECT_EQ(chain.balance(bob), 500u);  // refunded
}

TEST_F(AuctionFixture, CancelReturnsToken) {
  const std::uint64_t token = mint_as(alice_keys, 1);
  const std::uint64_t id = list_token(token, 100, 40, 10);
  const Receipt r = chain.call(alice_keys, "cancel", [&](CallContext& ctx) {
    auction.cancel(ctx, id);
  });
  EXPECT_TRUE(r.success);
  EXPECT_EQ(nft.token(token)->owner, alice);
  EXPECT_FALSE(auction.auction(id)->open);
}

TEST_F(AuctionFixture, CancelByNonSellerRejected) {
  const std::uint64_t token = mint_as(alice_keys, 1);
  const std::uint64_t id = list_token(token, 100, 40, 10);
  const Receipt r = chain.call(bob_keys, "cancel", [&](CallContext& ctx) {
    auction.cancel(ctx, id);
  });
  EXPECT_FALSE(r.success);
}

TEST_F(AuctionFixture, BidOnClosedAuctionRejected) {
  const std::uint64_t token = mint_as(alice_keys, 1);
  const std::uint64_t id = list_token(token, 50, 40, 1);
  chain.call(
      bob_keys, "bid", [&](CallContext& ctx) { auction.bid(ctx, id); }, 50,
      auction.address());
  const Receipt r = chain.call(
      bob_keys, "bid2", [&](CallContext& ctx) { auction.bid(ctx, id); }, 50,
      auction.address());
  EXPECT_FALSE(r.success);
}

// Contract storage is the whole contract state: a reopened ledger hands
// the re-deployed NFT and auction their slots, and an open auction, a
// pending approval and the token id counter carry on across the restart.
TEST(ContractReopen, NftAndAuctionStateCarriesOn) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("zkdet-chain-reopen-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Drbg rng{5};
  const KeyPair alice_keys = KeyPair::generate(rng);
  const KeyPair bob_keys = KeyPair::generate(rng);
  const Address alice = crypto::address_of(alice_keys.pk);
  const Address bob = crypto::address_of(bob_keys.pk);
  const auto mint = [&](Chain& chain, DataNft& nft) {
    std::uint64_t id = 0;
    chain.call(alice_keys, "mint", [&](CallContext& ctx) {
      id = nft.mint(ctx, Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3));
    });
    return id;
  };
  {
    Chain chain;
    ledger::Ledger ledger(chain, dir.string());
    chain.create_account(alice_keys, 1000);
    chain.create_account(bob_keys, 1000);
    auto& nft = chain.deploy<DataNft>(alice_keys, nullptr);
    auto& auction = chain.deploy<ClockAuction>(alice_keys, nullptr, nft);
    ASSERT_EQ(mint(chain, nft), 1u);
    ASSERT_EQ(mint(chain, nft), 2u);
    ASSERT_TRUE(chain.call(alice_keys, "approve-auction", [&](CallContext& ctx) {
      nft.approve(ctx, auction.address(), 1);
    }).success);
    ASSERT_TRUE(chain.call(alice_keys, "list", [&](CallContext& ctx) {
      auction.create(ctx, 1, 400, 100, 50);
    }).success);
    ASSERT_TRUE(chain.call(alice_keys, "approve-bob", [&](CallContext& ctx) {
      nft.approve(ctx, bob, 2);
    }).success);
  }
  Chain chain;
  ledger::Ledger ledger(chain, dir.string());
  chain.create_account(alice_keys, 1000);
  chain.create_account(bob_keys, 1000);
  auto& nft = chain.deploy<DataNft>(alice_keys, nullptr);
  auto& auction = chain.deploy<ClockAuction>(alice_keys, nullptr, nft);
  EXPECT_EQ(nft.total_minted(), 2u);
  EXPECT_EQ(nft.token(1)->owner, auction.address());
  const auto listed = auction.auction(1);
  ASSERT_TRUE(listed.has_value());
  EXPECT_TRUE(listed->open);
  EXPECT_EQ(listed->seller, alice);
  EXPECT_EQ(listed->token_id, 1u);
  EXPECT_EQ(listed->start_price, 400u);
  EXPECT_EQ(listed->floor_price, 100u);
  EXPECT_EQ(listed->decay_per_block, 50u);

  // Bob's pending approval still lets him take token 2.
  EXPECT_TRUE(chain.call(bob_keys, "take", [&](CallContext& ctx) {
    nft.transfer_from(ctx, alice, bob, 2);
  }).success);
  EXPECT_EQ(nft.token(2)->owner, bob);
  // The auction still sells at its clock price.
  const std::uint64_t price = auction.current_price(1, chain.height());
  EXPECT_LT(price, 400u);
  const std::uint64_t alice_before = chain.balance(alice);
  EXPECT_TRUE(chain.call(
      bob_keys, "bid", [&](CallContext& ctx) { auction.bid(ctx, 1); }, price,
      auction.address()).success);
  EXPECT_EQ(nft.token(1)->owner, bob);
  EXPECT_EQ(chain.balance(alice), alice_before + price);
  EXPECT_EQ(auction.auction(1)->winner, bob);
  EXPECT_EQ(mint(chain, nft), 3u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace zkdet::chain
