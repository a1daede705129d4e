// Transaction pipeline subsystem (src/txpool) tests.
//
// Covers the ISSUE 6 acceptance properties:
//   - mempool admission control: capacity, per-sender nonce ordering,
//     replay rejection, priority-based replacement;
//   - dependency-aware scheduling: conflicting access sets never share
//     a batch, non-conflicting txs seal as ONE multi-tx block;
//   - determinism: the same tx set, submitted in randomized orders and
//     executed serially or in parallel under worker counts {1, 2, N},
//     produces byte-identical blocks and byte-identical WAL files;
//   - fault injection: txpool.admit.full, txpool.exec.conflict-abort,
//     and txpool.seal.crash (kill at the seal boundary recovers to the
//     pre-batch tip, then the batch replays to the uninterrupted tip);
//   - enforcement: an undeclared access reverts deterministically;
//   - runtime::stats() pipeline counters.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chain/chain.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ledger/codec.hpp"
#include "ledger/io.hpp"
#include "ledger/ledger.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"
#include "txpool/txpool.hpp"

namespace zkdet::txpool {
namespace {

namespace fs = std::filesystem;
using chain::CallContext;
using chain::Chain;
using crypto::Drbg;
using crypto::KeyPair;
using ff::Fr;

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("zkdet-txpool-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

// Concatenated bytes of every WAL segment, in segment order. Two runs
// that journal the same blocks must match byte-for-byte.
std::vector<std::uint8_t> wal_bytes(const fs::path& dir) {
  std::vector<fs::path> segments;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0) segments.push_back(e.path());
  }
  std::sort(segments.begin(), segments.end());
  std::vector<std::uint8_t> out;
  for (const auto& seg : segments) {
    std::ifstream in(seg, std::ios::binary);
    out.insert(out.end(), std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  return out;
}

class Counter : public chain::Contract {
 public:
  Counter() : Contract("Counter", 64) {}
  void add(CallContext& ctx, const std::string& key, std::uint64_t v) {
    const auto cur = store().get_u64(ctx, key);
    store().set_u64(ctx, key, cur.value_or(0) + v);
  }
};

constexpr std::size_t kActors = 4;

// A chain with `kActors` funded accounts, a Counter contract, and a
// TxPool over it.
struct World {
  Chain chain;
  std::optional<ledger::Ledger> ledger;  // after chain: detaches first
  std::vector<KeyPair> keys;
  std::vector<chain::Address> addrs;
  Counter* counter = nullptr;
  std::optional<TxPool> pool;

  explicit World(const std::string& dir = {}, Config cfg = {}) {
    if (!dir.empty()) ledger.emplace(chain, dir, ledger::Options{});
    Drbg rng("txpool-world", 99);
    for (std::size_t i = 0; i < kActors; ++i) {
      keys.push_back(KeyPair::generate(rng));
      addrs.push_back(chain.create_account(keys.back(), 1'000'000));
    }
    counter = &chain.deploy<Counter>(keys[0], nullptr);
    pool.emplace(chain, cfg);
  }

  // Intent: actor `who` bumps its own counter key (conflict-free across
  // actors thanks to per-actor key prefixes).
  TxIntent bump(std::size_t who, std::uint64_t nonce, std::uint64_t v,
                std::uint64_t priority = 0) {
    AccessSet access;
    access.write_contract(counter->address(), "k" + std::to_string(who));
    Counter* c = counter;
    const std::string key = "k" + std::to_string(who);
    return make_intent(
        keys[who], nonce, "bump a" + std::to_string(who),
        [c, key, v](CallContext& ctx) { c->add(ctx, key, v); },
        std::move(access), 0, {}, 30'000'000, priority);
  }
};

// ---------------------------------------------------------------------
// Mempool admission control
// ---------------------------------------------------------------------

TEST(TxpoolMempool, CapacityBoundsAdmission) {
  Config cfg;
  cfg.capacity = 2;
  World w({}, cfg);
  EXPECT_TRUE(w.pool->submit(w.bump(0, 0, 1)).accepted);
  EXPECT_TRUE(w.pool->submit(w.bump(1, 0, 1)).accepted);
  const auto full = w.pool->submit(w.bump(2, 0, 1));
  EXPECT_FALSE(full.accepted);
  EXPECT_NE(full.error.find("full"), std::string::npos);
  // Draining frees capacity.
  EXPECT_EQ(w.pool->drain(), 2u);
  EXPECT_TRUE(w.pool->submit(w.bump(2, 0, 1)).accepted);
}

TEST(TxpoolMempool, StaleNonceIsReplayRejected) {
  World w;
  // Consume nonce 0 for actor 0 through the pool.
  ASSERT_TRUE(w.pool->submit(w.bump(0, 0, 1)).accepted);
  EXPECT_EQ(w.pool->drain(), 1u);
  EXPECT_EQ(w.chain.account_nonce(w.addrs[0]), 1u);
  // Re-submitting nonce 0 is a replay: rejected at admission.
  const auto replay = w.pool->submit(w.bump(0, 0, 1));
  EXPECT_FALSE(replay.accepted);
  EXPECT_NE(replay.error.find("replay"), std::string::npos);
}

TEST(TxpoolMempool, ReplacementRequiresStrictlyHigherPriority) {
  World w;
  const auto first = w.pool->submit(w.bump(0, 0, /*v=*/1, /*priority=*/5));
  ASSERT_TRUE(first.accepted);
  // Same priority: underpriced.
  const auto same = w.pool->submit(w.bump(0, 0, /*v=*/2, /*priority=*/5));
  EXPECT_FALSE(same.accepted);
  EXPECT_NE(same.error.find("underpriced"), std::string::npos);
  // Higher priority wins; the replaced ticket resolves as failed.
  const auto better = w.pool->submit(w.bump(0, 0, /*v=*/7, /*priority=*/6));
  ASSERT_TRUE(better.accepted);
  ASSERT_TRUE(first.ticket->done());
  EXPECT_FALSE(first.ticket->receipt.success);
  EXPECT_NE(first.ticket->receipt.error.find("replaced"), std::string::npos);
  EXPECT_EQ(w.pool->drain(), 1u);
  ASSERT_TRUE(better.ticket->done());
  EXPECT_TRUE(better.ticket->receipt.success);
  // The replacement's effect (not the original's) landed.
  EXPECT_EQ(w.counter->audit_store().peek("k0"), Fr::from_u64(7));
}

TEST(TxpoolMempool, NonceGapWaitsForPredecessor) {
  World w;
  const auto gapped = w.pool->submit(w.bump(0, /*nonce=*/1, 10));
  ASSERT_TRUE(gapped.accepted);
  // Nothing schedulable: nonce 0 is missing.
  EXPECT_EQ(w.pool->seal_next_batch(), 0u);
  EXPECT_FALSE(gapped.ticket->done());
  // Filling the gap schedules both, in nonce order, in one batch.
  ASSERT_TRUE(w.pool->submit(w.bump(0, /*nonce=*/0, 1)).accepted);
  EXPECT_EQ(w.pool->drain(), 2u);
  EXPECT_TRUE(gapped.ticket->done());
  EXPECT_TRUE(gapped.ticket->receipt.success);
  EXPECT_EQ(w.counter->audit_store().peek("k0"), Fr::from_u64(11));
}

// ---------------------------------------------------------------------
// Nonce discipline at the chain layer (satellite: replay regression)
// ---------------------------------------------------------------------

TEST(TxpoolNonces, DirectCallsConsumeNoncesAndRecordThem) {
  World w;
  EXPECT_EQ(w.chain.account_nonce(w.addrs[0]), 0u);
  ASSERT_TRUE(
      w.chain.call(w.keys[0], "direct one", [](CallContext&) {}).success);
  ASSERT_TRUE(
      w.chain.call(w.keys[0], "direct two", [](CallContext&) {}).success);
  EXPECT_EQ(w.chain.account_nonce(w.addrs[0]), 2u);
  // The records carry the nonces (consensus-critical: hashed + WAL'd).
  const auto& blocks = w.chain.blocks();
  EXPECT_EQ(blocks[blocks.size() - 2].txs[0].nonce, 0u);
  EXPECT_EQ(blocks[blocks.size() - 1].txs[0].nonce, 1u);
}

TEST(TxpoolNonces, BatchRejectsReplayedAndDuplicateNonces) {
  World w;
  // Two txs from the same sender with the SAME nonce in one batch: the
  // first (canonical order) wins, the second is a replay.
  std::vector<chain::BatchTx> batch;
  for (int i = 0; i < 2; ++i) {
    batch.push_back(w.bump(0, /*nonce=*/0, 1 + i).tx);
  }
  const auto receipts = w.chain.execute_batch(batch, /*parallel=*/false);
  EXPECT_TRUE(receipts[0].success);
  EXPECT_FALSE(receipts[1].success);
  EXPECT_NE(receipts[1].error.find("replay"), std::string::npos);
  EXPECT_EQ(w.chain.account_nonce(w.addrs[0]), 1u);
  // A forged signature (wrong nonce signed) never authenticates.
  chain::BatchTx forged = w.bump(0, /*nonce=*/0, 1).tx;
  forged.nonce = 1;  // claims nonce 1, signed for nonce 0
  const auto r2 = w.chain.execute_batch({forged}, false);
  EXPECT_FALSE(r2[0].success);
  EXPECT_NE(r2[0].error.find("signature"), std::string::npos);
}

// ---------------------------------------------------------------------
// Scheduling: conflicts and batching
// ---------------------------------------------------------------------

TEST(TxpoolScheduler, NonConflictingTxsSealAsOneBlock) {
  World w;
  const std::uint64_t h0 = w.chain.height();
  for (std::size_t a = 0; a < kActors; ++a) {
    ASSERT_TRUE(w.pool->submit(w.bump(a, 0, a + 1)).accepted);
  }
  EXPECT_EQ(w.pool->seal_next_batch(), kActors);
  EXPECT_EQ(w.chain.height(), h0 + 1);  // ONE block
  EXPECT_EQ(w.chain.blocks().back().txs.size(), kActors);
  EXPECT_TRUE(w.chain.validate_chain());
}

TEST(TxpoolScheduler, ConflictingAccessSetsSplitBatches) {
  World w;
  // Both actors declare a write to the SAME key prefix: they must not
  // share a batch.
  auto intent = [&](std::size_t who) {
    AccessSet access;
    access.write_contract(w.counter->address(), "shared");
    Counter* c = w.counter;
    return make_intent(w.keys[who], 0, "shared bump",
                       [c](CallContext& ctx) { c->add(ctx, "shared", 1); },
                       std::move(access));
  };
  const std::uint64_t h0 = w.chain.height();
  ASSERT_TRUE(w.pool->submit(intent(0)).accepted);
  ASSERT_TRUE(w.pool->submit(intent(1)).accepted);
  EXPECT_EQ(w.pool->seal_next_batch(), 1u);
  EXPECT_EQ(w.pool->seal_next_batch(), 1u);
  EXPECT_EQ(w.chain.height(), h0 + 2);  // two blocks
  EXPECT_EQ(w.counter->audit_store().peek("shared"), Fr::from_u64(2));
}

TEST(TxpoolScheduler, UndeclaredIntentSerializesAgainstEverything) {
  World w;
  ASSERT_TRUE(w.pool->submit(w.bump(0, 0, 1)).accepted);
  // Actor 1 submits with NO access set: conflicts with everything.
  Counter* c = w.counter;
  ASSERT_TRUE(w.pool
                  ->submit(make_intent(
                      w.keys[1], 0, "undeclared",
                      [c](CallContext& ctx) { c->add(ctx, "free", 1); }))
                  .accepted);
  ASSERT_TRUE(w.pool->submit(w.bump(2, 0, 1)).accepted);
  // Canonical order batches: the undeclared tx runs alone.
  std::vector<std::size_t> batch_sizes;
  for (std::size_t n = w.pool->seal_next_batch(); n != 0;
       n = w.pool->seal_next_batch()) {
    batch_sizes.push_back(n);
  }
  std::size_t total = 0;
  for (const std::size_t n : batch_sizes) total += n;
  EXPECT_EQ(total, 3u);
  EXPECT_GE(batch_sizes.size(), 2u);  // at least one split happened
  EXPECT_EQ(w.counter->audit_store().peek("free"), Fr::from_u64(1));
}

TEST(TxpoolScheduler, MaxBatchCapsBlockSize) {
  Config cfg;
  cfg.max_batch = 2;
  World w({}, cfg);
  for (std::size_t a = 0; a < kActors; ++a) {
    ASSERT_TRUE(w.pool->submit(w.bump(a, 0, 1)).accepted);
  }
  EXPECT_EQ(w.pool->seal_next_batch(), 2u);
  EXPECT_EQ(w.pool->seal_next_batch(), 2u);
  EXPECT_EQ(w.pool->seal_next_batch(), 0u);
}

// ---------------------------------------------------------------------
// Access enforcement
// ---------------------------------------------------------------------

TEST(TxpoolAccess, UndeclaredWriteRevertsDeterministically) {
  World w;
  // Declares only "k0" but writes "other": the executor must revert.
  AccessSet access;
  access.write_contract(w.counter->address(), "k0");
  Counter* c = w.counter;
  const auto res = w.pool->submit(make_intent(
      w.keys[0], 0, "out of bounds",
      [c](CallContext& ctx) { c->add(ctx, "other", 1); }, std::move(access)));
  ASSERT_TRUE(res.accepted);
  EXPECT_EQ(w.pool->drain(), 1u);
  ASSERT_TRUE(res.ticket->done());
  EXPECT_FALSE(res.ticket->receipt.success);
  EXPECT_NE(res.ticket->receipt.error.find("undeclared"), std::string::npos);
  EXPECT_EQ(w.counter->audit_store().peek("other"), std::nullopt);
  // The failed tx still consumed its nonce (it is in the block).
  EXPECT_EQ(w.chain.account_nonce(w.addrs[0]), 1u);
}

TEST(TxpoolAccess, UndeclaredBalanceTouchReverts) {
  World w;
  AccessSet access;
  access.write_contract(w.counter->address(), "k0");
  const chain::Address to = w.addrs[1];
  const chain::Address from = w.addrs[0];
  const auto res = w.pool->submit(make_intent(
      w.keys[0], 0, "sneaky transfer",
      [to, from](CallContext& ctx) { ctx.chain().transfer(from, to, 5); },
      std::move(access)));
  ASSERT_TRUE(res.accepted);
  const std::uint64_t before = w.chain.balance(to);
  EXPECT_EQ(w.pool->drain(), 1u);
  EXPECT_FALSE(res.ticket->receipt.success);
  EXPECT_NE(res.ticket->receipt.error.find("undeclared balance"),
            std::string::npos);
  EXPECT_EQ(w.chain.balance(to), before);
}

// ---------------------------------------------------------------------
// Determinism: orders x worker counts x serial/parallel
// ---------------------------------------------------------------------

// A mixed workload: per-actor counter bumps (conflict-free), a shared
// hotspot (conflicting), balance transfers, and a deliberate
// out-of-policy tx that reverts. Returns intents in a fixed canonical
// construction order; the caller shuffles submission order.
std::vector<TxIntent> mixed_workload(World& w) {
  std::vector<TxIntent> intents;
  Counter* c = w.counter;
  for (std::size_t a = 0; a < kActors; ++a) {
    for (std::uint64_t n = 0; n < 3; ++n) {
      if (a == 1 && n == 1) {
        // Hotspot: every actor-1 mid-nonce writes the shared key.
        AccessSet access;
        access.write_contract(c->address(), "shared");
        intents.push_back(make_intent(
            w.keys[a], n, "hot a" + std::to_string(a),
            [c](CallContext& ctx) { c->add(ctx, "shared", 3); },
            std::move(access)));
      } else if (a == 2 && n == 2) {
        // Value transfer with declared balance touches.
        AccessSet access;
        access.touch_account(w.addrs[2]).touch_account(w.addrs[3]);
        intents.push_back(make_intent(
            w.keys[a], n, "pay a2->a3", [](CallContext&) {},
            std::move(access), /*value=*/250, /*pay_to=*/w.addrs[3]));
      } else if (a == 3 && n == 1) {
        // Deterministic revert: undeclared write.
        AccessSet access;
        access.write_contract(c->address(), "k3");
        intents.push_back(make_intent(
            w.keys[a], n, "oob a3",
            [c](CallContext& ctx) { c->add(ctx, "elsewhere", 1); },
            std::move(access)));
      } else {
        intents.push_back(w.bump(a, n, 10 * a + n + 1));
      }
    }
  }
  return intents;
}

struct RunResult {
  std::array<std::uint8_t, 32> tip{};
  std::vector<std::uint8_t> wal;
};

RunResult run_workload(std::uint64_t shuffle_seed, bool parallel) {
  TempDir dir;
  Config cfg;
  cfg.parallel = parallel;
  World w(dir.str(), cfg);
  auto intents = mixed_workload(w);
  // Shuffle submission order with a deterministic Fisher-Yates.
  Drbg rng("txpool-shuffle", shuffle_seed);
  for (std::size_t i = intents.size(); i > 1; --i) {
    std::swap(intents[i - 1], intents[rng() % i]);
  }
  for (auto& in : intents) {
    EXPECT_TRUE(w.pool->submit(std::move(in)).accepted) << "submit failed";
  }
  w.pool->drain();
  EXPECT_TRUE(w.chain.validate_chain());
  RunResult out;
  out.tip = w.chain.blocks().back().hash;
  w.ledger->sync();
  out.wal = wal_bytes(dir.path);
  return out;
}

TEST(TxpoolDeterminism, OrdersAndWorkerCountsAreByteIdentical) {
  auto& tp = runtime::ThreadPool::instance();
  const std::size_t hw = tp.concurrency();
  std::optional<RunResult> want;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, hw}) {
    tp.configure(workers);
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
      for (const bool parallel : {false, true}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) + " seed=" +
                     std::to_string(seed) + " parallel=" +
                     std::to_string(parallel));
        RunResult got = run_workload(seed, parallel);
        if (!want) {
          want = std::move(got);
          ASSERT_FALSE(want->wal.empty());
          continue;
        }
        EXPECT_EQ(got.tip, want->tip) << "block hash diverged";
        EXPECT_EQ(got.wal, want->wal) << "WAL bytes diverged";
      }
    }
  }
  tp.configure(hw);
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

TEST(TxpoolFaults, AdmitFullFailPointForcesRejection) {
  World w;
  const fault::ScopedFaults guard;
  fault::inject(fault::points::kTxpoolAdmitFull, fault::Schedule::once());
  const auto res = w.pool->submit(w.bump(0, 0, 1));
  EXPECT_FALSE(res.accepted);
  EXPECT_NE(res.error.find("full"), std::string::npos);
  // The fault is one-shot: the retry is admitted.
  const auto retry = w.pool->submit(w.bump(0, 0, 1));
  EXPECT_TRUE(retry.accepted);
  EXPECT_EQ(w.pool->drain(), 1u);
  EXPECT_TRUE(retry.ticket->receipt.success);
}

TEST(TxpoolFaults, ConflictAbortIncludesTxAsFailed) {
  World w;
  runtime::reset_stats();
  const fault::ScopedFaults guard;
  fault::inject(fault::points::kTxpoolExecConflictAbort,
                fault::Schedule::once());
  const auto res = w.pool->submit(w.bump(0, 0, 5));
  ASSERT_TRUE(res.accepted);
  EXPECT_EQ(w.pool->drain(), 1u);
  ASSERT_TRUE(res.ticket->done());
  EXPECT_FALSE(res.ticket->receipt.success);
  EXPECT_NE(res.ticket->receipt.error.find("conflict abort"),
            std::string::npos);
  // Effects discarded, nonce consumed, tx journaled as failed.
  EXPECT_EQ(w.counter->audit_store().peek("k0"), std::nullopt);
  EXPECT_EQ(w.chain.account_nonce(w.addrs[0]), 1u);
  EXPECT_EQ(runtime::stats().txpool_conflict_aborts, 1u);
  // The pipeline keeps going.
  const auto next = w.pool->submit(w.bump(0, 1, 5));
  ASSERT_TRUE(next.accepted);
  EXPECT_EQ(w.pool->drain(), 1u);
  EXPECT_TRUE(next.ticket->receipt.success);
  EXPECT_EQ(w.counter->audit_store().peek("k0"), Fr::from_u64(5));
}

// Kill-at-seal: the crash fires after execution but before ANY commit,
// so a reopen lands exactly on the pre-batch tip; resubmitting the
// batch converges to the uninterrupted run's tip.
TEST(TxpoolFaults, SealCrashRecoversToPreBatchTip) {
  // Uninterrupted reference run.
  std::array<std::uint8_t, 32> want_tip{};
  {
    TempDir ref;
    World w(ref.str());
    for (std::size_t a = 0; a < kActors; ++a) {
      ASSERT_TRUE(w.pool->submit(w.bump(a, 0, a + 7)).accepted);
    }
    EXPECT_EQ(w.pool->drain(), kActors);
    want_tip = w.chain.blocks().back().hash;
  }

  TempDir dir;
  std::array<std::uint8_t, 32> pre_batch_tip{};
  {
    World w(dir.str());
    pre_batch_tip = w.chain.blocks().back().hash;
    for (std::size_t a = 0; a < kActors; ++a) {
      ASSERT_TRUE(w.pool->submit(w.bump(a, 0, a + 7)).accepted);
    }
    const fault::ScopedFaults guard;
    fault::inject(fault::points::kTxpoolSealCrash, fault::Schedule::once());
    EXPECT_THROW(w.pool->seal_next_batch(), ledger::CrashInjected);
    // Nothing committed in-memory either: the batch died pre-commit.
    EXPECT_EQ(w.chain.blocks().back().hash, pre_batch_tip);
    EXPECT_EQ(w.chain.account_nonce(w.addrs[0]), 0u);
  }
  // "Reboot": reopen the directory, verify the pre-batch tip, rerun.
  {
    World w(dir.str());
    EXPECT_TRUE(w.chain.validate_chain());
    ASSERT_EQ(w.chain.blocks().back().hash, pre_batch_tip);
    for (std::size_t a = 0; a < kActors; ++a) {
      ASSERT_TRUE(w.pool->submit(w.bump(a, 0, a + 7)).accepted);
    }
    EXPECT_EQ(w.pool->drain(), kActors);
    EXPECT_EQ(w.chain.blocks().back().hash, want_tip)
        << "replayed batch diverged from the uninterrupted run";
  }
}

// Ledger fail-points during pooled sealing: the WAL append for a
// multi-tx block crashes mid-write; reopen must recover a valid prefix
// and the resubmitted batch must converge.
TEST(TxpoolFaults, LedgerCrashDuringPooledSealRecovers) {
  for (const char* point :
       {fault::points::kLedgerWalAppendTorn, fault::points::kLedgerFsync}) {
    SCOPED_TRACE(point);
    TempDir dir;
    std::array<std::uint8_t, 32> pre_batch_tip{};
    {
      World w(dir.str());
      pre_batch_tip = w.chain.blocks().back().hash;
      for (std::size_t a = 0; a < kActors; ++a) {
        ASSERT_TRUE(w.pool->submit(w.bump(a, 0, 3)).accepted);
      }
      const fault::ScopedFaults guard;
      fault::inject(point, fault::Schedule::once());
      bool crashed = false;
      try {
        w.pool->seal_next_batch();
      } catch (const ledger::CrashInjected&) {
        crashed = true;
      } catch (const ledger::IoError&) {
        crashed = true;
      }
      EXPECT_TRUE(crashed) << "fail-point never fired";
    }
    {
      World w(dir.str());
      EXPECT_TRUE(w.chain.validate_chain());
      // The block either landed fully or not at all (torn tail cut).
      const bool landed = w.chain.blocks().back().hash != pre_batch_tip;
      const std::uint64_t next = w.chain.account_nonce(w.addrs[0]);
      EXPECT_EQ(next, landed ? 1u : 0u);
      for (std::size_t a = 0; a < kActors; ++a) {
        ASSERT_TRUE(w.pool->submit(w.bump(a, next, 3)).accepted);
      }
      EXPECT_EQ(w.pool->drain(), kActors);
      EXPECT_TRUE(w.chain.validate_chain());
    }
  }
}

// ---------------------------------------------------------------------
// Pipeline stats
// ---------------------------------------------------------------------

TEST(TxpoolStats, CountersTrackPipelineActivity) {
  World w;
  runtime::reset_stats();
  for (std::size_t a = 0; a < kActors; ++a) {
    ASSERT_TRUE(w.pool->submit(w.bump(a, 0, 1)).accepted);
  }
  const auto mid = runtime::stats();
  EXPECT_EQ(mid.txpool_submitted, kActors);
  EXPECT_EQ(mid.txpool_queue_depth, kActors);
  EXPECT_EQ(w.pool->drain(), kActors);
  const auto s = runtime::stats();
  EXPECT_EQ(s.txpool_queue_depth, 0u);
  EXPECT_EQ(s.txpool_batches_sealed, 1u);
  EXPECT_EQ(s.txpool_txs_executed, kActors);
  EXPECT_EQ(s.txpool_rejected, 0u);
}

// ---------------------------------------------------------------------
// Synchronous pool-routed calls
// ---------------------------------------------------------------------

TEST(TxpoolCall, SynchronousCallAssignsNoncesAndResolves) {
  World w;
  Counter* c = w.counter;
  for (int i = 0; i < 3; ++i) {
    const auto r = w.pool->call(make_intent(
        w.keys[0], w.pool->next_nonce(w.addrs[0]), "sync " + std::to_string(i),
        [c](CallContext& ctx) { c->add(ctx, "sync", 2); }));
    EXPECT_TRUE(r.success) << r.error;
  }
  EXPECT_EQ(w.chain.account_nonce(w.addrs[0]), 3u);
  EXPECT_EQ(c->audit_store().peek("sync"), Fr::from_u64(6));
}

TEST(TxpoolCall, MixedPoolAndDirectCallsShareNonceStream) {
  World w;
  ASSERT_TRUE(
      w.chain.call(w.keys[0], "direct", [](CallContext&) {}).success);
  const auto r = w.pool->call(make_intent(
      w.keys[0], w.pool->next_nonce(w.addrs[0]), "pooled",
      [](CallContext&) {}));
  EXPECT_TRUE(r.success) << r.error;
  ASSERT_TRUE(
      w.chain.call(w.keys[0], "direct again", [](CallContext&) {}).success);
  EXPECT_EQ(w.chain.account_nonce(w.addrs[0]), 3u);
  EXPECT_TRUE(w.chain.validate_chain());
}

// Chain::call is a serial batch of one, so a direct call and an
// undeclared pooled call are the same transaction: the same sequence (a
// success, a value transfer, a revert that carries value and wrote a
// slot) seals identical blocks and identical WAL bytes on either path.
TEST(TxpoolCall, DirectAndPooledCallsSealIdenticalBytes) {
  struct Sealed {
    std::vector<std::vector<std::uint8_t>> blocks;
    std::vector<std::uint8_t> wal;
  };
  const auto run = [](bool pooled) {
    TempDir dir;
    World w(dir.str());
    Counter* c = w.counter;
    const chain::Address escrow = c->address();
    const auto send = [&](const std::string& desc,
                          const std::function<void(CallContext&)>& fn,
                          std::uint64_t value) {
      const chain::Address pay_to = value > 0 ? escrow : chain::Address{};
      return pooled ? w.pool->call(make_intent(
                          w.keys[1], w.pool->next_nonce(w.addrs[1]), desc, fn,
                          {}, value, pay_to))
                    : w.chain.call(w.keys[1], desc, fn, value, pay_to);
    };
    EXPECT_TRUE(
        send("bump", [c](CallContext& ctx) { c->add(ctx, "x", 1); }, 0)
            .success);
    EXPECT_TRUE(send("pay", [](CallContext&) {}, 250).success);
    EXPECT_FALSE(send(
                     "pay, write, revert",
                     [c](CallContext& ctx) {
                       c->add(ctx, "x", 5);
                       ctx.require(false, "refused");
                     },
                     100)
                     .success);
    Sealed out;
    for (const auto& b : w.chain.blocks()) {
      out.blocks.push_back(ledger::encode_block(b));
    }
    w.ledger->sync();
    out.wal = wal_bytes(dir.path);
    return out;
  };
  const Sealed direct = run(false);
  const Sealed pooled = run(true);
  EXPECT_EQ(direct.blocks, pooled.blocks) << "blocks diverged";
  EXPECT_EQ(direct.wal, pooled.wal) << "WAL bytes diverged";
}

// Regression test for the nonce-map data race found by the lock
// annotation pass (ISSUE 7): TxPool::submit() admission-checks
// Chain::account_nonce() from producer threads while the pump thread's
// execute_batch commits new nonces — the map had no lock, so the read
// and the stage-4 write raced. Producers and the sealing pump now run
// flat out against each other; the kChain mutex makes every
// interleaving safe, and the TSan CI stage runs this test under
// -fsanitize=thread (the suite is in the tsan focus filter).
// Assertions are interleaving-independent: every ticket resolves
// successfully and per-actor state is exact.
TEST(TxpoolCall, ConcurrentSubmittersRaceTheSealingPump) {
  constexpr std::uint64_t kPerActor = 8;
  constexpr std::size_t kTotal = kActors * kPerActor;
  World w;
  // Slots are disjoint per producer, so the vector itself is race-free.
  std::vector<TicketPtr> tickets(kTotal);
  std::atomic<std::size_t> submitted{0};
  std::vector<std::thread> producers;
  producers.reserve(kActors);
  for (std::size_t a = 0; a < kActors; ++a) {
    producers.emplace_back([&w, &tickets, &submitted, a] {
      for (std::uint64_t n = 0; n < kPerActor; ++n) {
        auto res = w.pool->submit(w.bump(a, n, 1));
        EXPECT_TRUE(res.accepted) << res.error;
        if (res.accepted) tickets[a * kPerActor + n] = res.ticket;
        submitted.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // Pump while the producers are still submitting: this concurrency is
  // the point of the test.
  while (submitted.load(std::memory_order_acquire) < kTotal ||
         w.pool->pending() > 0) {
    w.pool->seal_next_batch();
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(w.pool->drain(), 0u);

  for (const auto& t : tickets) {
    ASSERT_TRUE(t != nullptr);
    ASSERT_TRUE(t->done());
    EXPECT_TRUE(t->receipt.success) << t->receipt.error;
  }
  for (std::size_t a = 0; a < kActors; ++a) {
    EXPECT_EQ(w.chain.account_nonce(w.addrs[a]), kPerActor);
    EXPECT_EQ(w.counter->audit_store().peek("k" + std::to_string(a)),
              Fr::from_u64(kPerActor));
  }
  EXPECT_TRUE(w.chain.validate_chain());
}

}  // namespace
}  // namespace zkdet::txpool
