// Durable-ledger unit tests: CRC32C vectors, canonical-codec round
// trips (encode -> decode -> encode byte equality on random entities),
// WAL frame robustness, and open/replay/snapshot behaviour of the
// Ledger itself. The crash-recovery fault matrix lives in
// test_ledger_crash_matrix.cpp.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "chain/chain.hpp"
#include "chain/nft.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ledger/codec.hpp"
#include "ledger/crc32c.hpp"
#include "ledger/ledger.hpp"
#include "ledger/wal.hpp"

namespace zkdet::ledger {
namespace {

using chain::Block;
using chain::Event;
using chain::StateDelta;
using chain::TxRecord;
using crypto::Drbg;
using ff::Fr;

// --- crc32c ---

TEST(Crc32c, KnownVectors) {
  const std::string check = "123456789";
  const auto bytes = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  // The canonical CRC32C check value (RFC 3720 / iSCSI).
  EXPECT_EQ(crc32c(bytes), 0xE3069283u);
  EXPECT_EQ(crc32c(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  Drbg rng("crc-test", 1);
  std::vector<std::uint8_t> data(301);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = crc32c(data);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{150}, data.size()}) {
    const auto head = std::span(data).first(split);
    const auto tail = std::span(data).subspan(split);
    EXPECT_EQ(crc32c(tail, crc32c(head)), whole);
  }
}

// --- random entity generators ---

std::string random_string(Drbg& rng, std::size_t max_len) {
  std::string s;
  const std::size_t len = rng() % (max_len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng() % 256));  // full byte range
  }
  return s;
}

Event random_event(Drbg& rng) {
  Event e;
  e.name = random_string(rng, 12);
  const std::size_t n = rng() % 4;
  for (std::size_t i = 0; i < n; ++i) {
    e.fields.emplace_back(random_string(rng, 8), random_string(rng, 20));
  }
  return e;
}

TxRecord random_tx(Drbg& rng) {
  TxRecord tx;
  tx.block = rng();
  tx.sender = random_string(rng, 16);
  tx.description = random_string(rng, 40);
  tx.gas_used = rng();
  tx.success = rng() % 2 == 0;
  const std::size_t n = rng() % 3;
  for (std::size_t i = 0; i < n; ++i) tx.events.push_back(random_event(rng));
  tx.has_sig = rng() % 2 == 0;
  if (tx.has_sig) {
    tx.sig.r = crypto::KeyPair::generate(rng).pk;
    tx.sig.s = ff::random_field<Fr>(rng);
  }
  return tx;
}

Block random_block(Drbg& rng) {
  Block b;
  b.height = rng();
  b.timestamp = rng();
  for (auto& x : b.prev_hash) x = static_cast<std::uint8_t>(rng());
  for (auto& x : b.hash) x = static_cast<std::uint8_t>(rng());
  const std::size_t n = rng() % 3;
  for (std::size_t i = 0; i < n; ++i) b.txs.push_back(random_tx(rng));
  return b;
}

StateDelta random_delta(Drbg& rng) {
  StateDelta d;
  for (std::size_t i = rng() % 3; i > 0; --i) {
    d.balance_sets.emplace_back(random_string(rng, 12), rng());
  }
  for (std::size_t i = rng() % 2; i > 0; --i) {
    d.contracts_created.push_back(
        {random_string(rng, 12), random_string(rng, 8), rng()});
  }
  for (std::size_t i = rng() % 3; i > 0; --i) {
    d.slot_sets.emplace_back(random_string(rng, 12), random_string(rng, 16),
                             ff::random_field<Fr>(rng));
  }
  for (std::size_t i = rng() % 2; i > 0; --i) {
    d.slot_erases.emplace_back(random_string(rng, 12), random_string(rng, 16));
  }
  return d;
}

bool tx_equal(const TxRecord& a, const TxRecord& b) {
  return encode_tx_record(a) == encode_tx_record(b);
}

// --- codec round trips ---

TEST(Codec, TxRecordRoundTripsExactly) {
  Drbg rng("codec-tx", 2);
  for (int i = 0; i < 50; ++i) {
    const TxRecord tx = random_tx(rng);
    const auto bytes = encode_tx_record(tx);
    const TxRecord back = decode_tx_record(bytes);
    EXPECT_EQ(encode_tx_record(back), bytes) << "iteration " << i;
    EXPECT_TRUE(tx_equal(tx, back));
  }
}

TEST(Codec, BlockRoundTripsExactly) {
  Drbg rng("codec-block", 3);
  for (int i = 0; i < 25; ++i) {
    const Block b = random_block(rng);
    const auto bytes = encode_block(b);
    const Block back = decode_block(bytes);
    EXPECT_EQ(encode_block(back), bytes) << "iteration " << i;
    EXPECT_EQ(back.height, b.height);
    EXPECT_EQ(back.timestamp, b.timestamp);
    EXPECT_EQ(back.prev_hash, b.prev_hash);
    EXPECT_EQ(back.hash, b.hash);
    ASSERT_EQ(back.txs.size(), b.txs.size());
    for (std::size_t t = 0; t < b.txs.size(); ++t) {
      EXPECT_TRUE(tx_equal(back.txs[t], b.txs[t]));
    }
  }
}

TEST(Codec, EventAndDeltaRoundTripExactly) {
  Drbg rng("codec-ev", 4);
  for (int i = 0; i < 50; ++i) {
    const Event e = random_event(rng);
    EXPECT_EQ(encode_event(decode_event(encode_event(e))), encode_event(e));
    const StateDelta d = random_delta(rng);
    EXPECT_EQ(encode_delta(decode_delta(encode_delta(d))), encode_delta(d));
  }
}

TEST(Codec, SnapshotRoundTripsExactly) {
  Drbg rng("codec-snap", 5);
  ChainSnapshot s;
  s.wal_seq = 42;
  for (int i = 0; i < 4; ++i) s.blocks.push_back(random_block(rng));
  for (int i = 0; i < 3; ++i) {
    const auto addr = "acct" + std::to_string(i);
    s.balances[addr] = rng();
    s.account_keys[addr] = crypto::KeyPair::generate(rng).pk;
  }
  chain::RestoredContract rc;
  rc.name = "Probe";
  rc.code_size = 99;
  rc.slots["a"] = ff::random_field<Fr>(rng);
  rc.slots["b"] = ff::random_field<Fr>(rng);
  s.contracts["ct:Probe#1"] = rc;

  const auto bytes = encode_snapshot(s);
  const ChainSnapshot back = decode_snapshot(bytes);
  EXPECT_EQ(encode_snapshot(back), bytes);
  EXPECT_EQ(back.wal_seq, 42u);
  EXPECT_EQ(back.contracts.at("ct:Probe#1").slots.size(), 2u);
}

TEST(Codec, EveryStrictPrefixIsRejected) {
  Drbg rng("codec-prefix", 6);
  const auto bytes = encode_block(random_block(rng));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_block(std::span(bytes).first(cut)), CodecError);
  }
  // ...and trailing garbage is rejected too.
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_THROW(decode_block(extended), CodecError);
}

TEST(Codec, NonCanonicalFieldElementRejected) {
  // A delta with one slot write whose Fr bytes we bump above the modulus.
  StateDelta d;
  d.slot_sets.emplace_back("c", "k", Fr::from_u64(1));
  auto bytes = encode_delta(d);
  // The Fr is the last 32 bytes; overwrite with 0xFF... (> r).
  for (std::size_t i = bytes.size() - 32; i < bytes.size(); ++i) {
    bytes[i] = 0xFF;
  }
  EXPECT_THROW(decode_delta(bytes), CodecError);
}

TEST(Codec, UnknownVersionRejected) {
  const auto bytes = encode_event(Event{"E", {}});
  auto bumped = bytes;
  bumped[0] = 0xFE;  // version low byte
  EXPECT_THROW(decode_event(bumped), CodecError);
}

// --- WAL framing ---

TEST(Wal, FrameParsesBack) {
  Drbg rng("wal-frame", 7);
  std::vector<std::uint8_t> payload(129);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  const auto frame = frame_record(payload);
  ASSERT_EQ(frame.size(), payload.size() + kFrameHeaderSize);
  const auto rec = parse_record(frame, 0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         rec->payload.begin(), rec->payload.end()));
  EXPECT_EQ(rec->next_offset, frame.size());
}

TEST(Wal, EverySingleByteFlipInvalidatesTheFrame) {
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  const auto frame = frame_record(payload);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      auto mutated = frame;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      const auto rec = parse_record(mutated, 0);
      // A flip in the length field may still "frame" correctly only if
      // the CRC of the re-sliced payload matches — which CRC32C makes
      // effectively impossible for these sizes; require rejection.
      EXPECT_FALSE(rec.has_value()) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Wal, ScanStopsAtTornTail) {
  std::vector<std::uint8_t> file;
  const auto append = [&](std::initializer_list<std::uint8_t> payload) {
    const auto f = frame_record(std::vector<std::uint8_t>(payload));
    file.insert(file.end(), f.begin(), f.end());
  };
  append({10, 11});
  append({20, 21, 22});
  const std::size_t intact = file.size();
  const auto torn = frame_record(std::vector<std::uint8_t>{30, 31});
  file.insert(file.end(), torn.begin(), torn.end() - 3);  // partial write

  const auto scan = scan_wal(file);
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.payloads[1], (std::vector<std::uint8_t>{20, 21, 22}));
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_TRUE(scan.has_torn_tail);
}

TEST(Wal, ParseNeverOverreadsArbitraryBytes) {
  Drbg rng("wal-fuzzish", 8);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> junk(rng() % 64);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    const auto scan = scan_wal(junk);  // must not crash or throw
    EXPECT_LE(scan.valid_bytes, junk.size());
  }
}

// --- Ledger open/replay/snapshot ---

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("zkdet-ledger-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

// Minimal contract whose storage and mirror we can drive from tests.
class ProbeContract : public chain::Contract {
 public:
  ProbeContract() : Contract("Probe", 64) {}

  void set(chain::CallContext& ctx, const std::string& key, std::uint64_t v) {
    store().set_u64(ctx, key, v);
  }
  void erase(chain::CallContext& ctx, const std::string& key) {
    store().erase(ctx, key);
  }
};

struct LedgerWorld {
  chain::Chain chain;
  Drbg rng{"ledger-world", 11};
  crypto::KeyPair alice = crypto::KeyPair::generate(rng);
  crypto::KeyPair bob = crypto::KeyPair::generate(rng);
};

TEST(Ledger, FreshDirThenReopenRebuildsByteIdenticalChain) {
  TempDir dir;
  std::array<std::uint8_t, 32> tip{};
  std::map<chain::Address, std::uint64_t> balances;
  {
    LedgerWorld w;
    Ledger ledger(w.chain, dir.str());
    const auto a = w.chain.create_account(w.alice, 1000);
    const auto b = w.chain.create_account(w.bob, 500);
    auto& probe = w.chain.deploy<ProbeContract>(w.alice, nullptr);
    w.chain.call(w.alice, "pay", [](chain::CallContext&) {}, 100, b);
    w.chain.call(w.alice, "slots", [&](chain::CallContext& ctx) {
      probe.set(ctx, "x", 7);
      probe.set(ctx, "y", 8);
      probe.erase(ctx, "y");
      ctx.emit(Event{"Probe", {{"x", "7"}}});
    });
    w.chain.advance_blocks(2);
    ASSERT_TRUE(w.chain.validate_chain());
    tip = w.chain.blocks().back().hash;
    balances = w.chain.balances_map();
    (void)a;
  }
  {
    LedgerWorld w;
    Ledger ledger(w.chain, dir.str());
    EXPECT_TRUE(w.chain.validate_chain());
    EXPECT_EQ(w.chain.blocks().back().hash, tip);
    EXPECT_EQ(w.chain.balances_map(), balances);
    EXPECT_GT(ledger.stats().replayed_blocks, 0u);
    // The probe contract's persisted state awaits adoption...
    ASSERT_EQ(w.chain.pending_adoptions().size(), 1u);
    // ...and re-deploying in the original order re-binds it.
    auto& probe = w.chain.deploy<ProbeContract>(w.alice, nullptr);
    EXPECT_TRUE(w.chain.pending_adoptions().empty());
    const auto x = probe.audit_store().peek("x");
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ(x->to_canonical().limb[0], 7u);
    EXPECT_FALSE(probe.audit_store().peek("y").has_value());
    // Adoption must not have sealed a duplicate deploy block.
    EXPECT_EQ(w.chain.blocks().back().hash, tip);
  }
}

// A mint that runs out of gas consumes no token id: the id counter is
// contract storage, so the live chain and a chain reopened from the
// ledger hand out the same next id.
TEST(Ledger, RevertedMintConsumesNoTokenId) {
  TempDir dir;
  TempDir copy;
  const auto mint = [](LedgerWorld& w, chain::DataNft& nft,
                       std::uint64_t gas_limit, std::uint64_t* id) {
    return w.chain.call(
        w.alice, "mint",
        [&](chain::CallContext& ctx) {
          *id = nft.mint(ctx, Fr::from_u64(1), Fr::from_u64(2),
                         Fr::from_u64(3));
        },
        0, {}, gas_limit);
  };
  std::uint64_t live_id = 0;
  {
    LedgerWorld w;
    Ledger ledger(w.chain, dir.str());
    w.chain.create_account(w.alice, 1000);
    auto& nft = w.chain.deploy<chain::DataNft>(w.alice, nullptr);
    std::uint64_t id = 0;
    ASSERT_TRUE(mint(w, nft, 30'000'000, &id).success);
    EXPECT_EQ(id, 1u);
    const chain::Receipt oog = mint(w, nft, 22'000, &id);
    EXPECT_FALSE(oog.success);
    EXPECT_EQ(oog.error, "out of gas");
    EXPECT_EQ(nft.total_minted(), 1u);
    EXPECT_FALSE(nft.exists(2));
    std::filesystem::copy(dir.path, copy.path,
                          std::filesystem::copy_options::recursive);
    ASSERT_TRUE(mint(w, nft, 30'000'000, &live_id).success);
    EXPECT_EQ(live_id, 2u);
  }
  LedgerWorld w;
  Ledger ledger(w.chain, copy.str());
  w.chain.create_account(w.alice, 1000);
  auto& nft = w.chain.deploy<chain::DataNft>(w.alice, nullptr);
  EXPECT_EQ(nft.total_minted(), 1u);
  std::uint64_t reopened_id = 0;
  ASSERT_TRUE(mint(w, nft, 30'000'000, &reopened_id).success);
  EXPECT_EQ(reopened_id, live_id);
}

TEST(Ledger, IdempotentAccountReplayDoesNotDoubleCredit) {
  TempDir dir;
  LedgerWorld w0;
  {
    Ledger ledger(w0.chain, dir.str());
    w0.chain.create_account(w0.alice, 1000);
  }
  LedgerWorld w1;
  Ledger ledger(w1.chain, dir.str());
  // Same app startup ritual against restored state: a no-op.
  const auto addr = w1.chain.create_account(w1.alice, 1000);
  EXPECT_EQ(w1.chain.balance(addr), 1000u);
}

TEST(Ledger, SnapshotShortensReplayAndDropsOldSegments) {
  TempDir dir;
  Options opts;
  opts.snapshot_interval = 4;
  std::array<std::uint8_t, 32> tip{};
  {
    LedgerWorld w;
    Ledger ledger(w.chain, dir.str(), opts);
    w.chain.create_account(w.alice, 1000);
    for (int i = 0; i < 11; ++i) {
      w.chain.call(w.alice, "tick " + std::to_string(i),
                   [](chain::CallContext&) {});
    }
    EXPECT_GE(ledger.stats().snapshots_written, 2u);
    tip = w.chain.blocks().back().hash;
  }
  LedgerWorld w;
  Ledger ledger(w.chain, dir.str(), opts);
  EXPECT_TRUE(ledger.stats().opened_from_snapshot);
  // Only the WAL suffix after the last snapshot is replayed.
  EXPECT_LT(ledger.stats().replayed_blocks, 4u);
  EXPECT_EQ(w.chain.blocks().back().hash, tip);
  EXPECT_TRUE(w.chain.validate_chain());
  // Rotation deleted segments covered by the snapshot.
  std::size_t wal_files = 0;
  for (const auto& ent : std::filesystem::directory_iterator(dir.path)) {
    wal_files += ent.path().filename().string().rfind("wal-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(wal_files, 1u);
}

TEST(Ledger, TornAppendTruncatedOnReopen) {
  TempDir dir;
  std::array<std::uint8_t, 32> tip_before_crash{};
  {
    LedgerWorld w;
    Ledger ledger(w.chain, dir.str());
    w.chain.create_account(w.alice, 1000);
    w.chain.call(w.alice, "good", [](chain::CallContext&) {});
    tip_before_crash = w.chain.blocks().back().hash;

    fault::inject(fault::points::kLedgerWalAppendTorn,
                  fault::Schedule::always());
    EXPECT_THROW(
        w.chain.call(w.alice, "doomed", [](chain::CallContext&) {}),
        CrashInjected);
    fault::clear_all();
    // Fail-stop: the ledger refuses to continue past an unknown tail.
    EXPECT_TRUE(ledger.poisoned());
    EXPECT_THROW(w.chain.call(w.alice, "after", [](chain::CallContext&) {}),
                 IoError);
  }
  LedgerWorld w;
  Ledger ledger(w.chain, dir.str());
  EXPECT_TRUE(ledger.stats().torn_tail_truncated);
  EXPECT_TRUE(w.chain.validate_chain());
  // The doomed tx's record was torn: the chain reopens at the last
  // durable block.
  EXPECT_EQ(w.chain.blocks().back().hash, tip_before_crash);
}

TEST(Ledger, TamperedWalRecordFailsReplayValidation) {
  TempDir dir;
  {
    LedgerWorld w;
    Ledger ledger(w.chain, dir.str());
    w.chain.create_account(w.alice, 1000);
    w.chain.call(w.alice, "target of tampering", [](chain::CallContext&) {});
  }
  // Forge the last record: flip a payload byte and fix up the CRC so
  // framing still accepts it — replay must still catch the forgery via
  // the block hash link.
  std::string wal_path;
  for (const auto& ent : std::filesystem::directory_iterator(dir.path)) {
    if (ent.path().filename().string().rfind("wal-", 0) == 0) {
      wal_path = ent.path().string();
    }
  }
  ASSERT_FALSE(wal_path.empty());
  auto bytes = File::open_read(wal_path)->read_all();
  const auto scan = scan_wal(bytes);
  ASSERT_FALSE(scan.payloads.empty());
  auto forged = scan.payloads.back();
  // Flip one byte near the middle (inside the tx description).
  forged[forged.size() / 2] ^= 0x01;
  std::vector<std::uint8_t> rebuilt(
      bytes.begin(),
      bytes.begin() + static_cast<std::ptrdiff_t>(scan.valid_bytes));
  // Drop the last intact frame, append the forged one.
  rebuilt.resize(rebuilt.size() -
                 (kFrameHeaderSize + scan.payloads.back().size()));
  const auto frame = frame_record(forged);
  rebuilt.insert(rebuilt.end(), frame.begin(), frame.end());
  {
    File f = File::create_truncate(wal_path);
    f.write_all(rebuilt);
    f.sync();
  }
  LedgerWorld w;
  EXPECT_THROW(Ledger(w.chain, dir.str()), IoError);
}

TEST(Ledger, FsyncFailurePoisonsLedger) {
  TempDir dir;
  LedgerWorld w;
  Ledger ledger(w.chain, dir.str());
  w.chain.create_account(w.alice, 1000);
  fault::inject(fault::points::kLedgerFsync, fault::Schedule::once());
  EXPECT_THROW(w.chain.call(w.alice, "eio", [](chain::CallContext&) {}),
               IoError);
  fault::clear_all();
  EXPECT_TRUE(ledger.poisoned());
}

}  // namespace
}  // namespace zkdet::ledger
