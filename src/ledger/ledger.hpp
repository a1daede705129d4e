// Durable ledger: journals every chain mutation to a CRC-framed WAL,
// checkpoints periodic snapshots, and reconstructs a byte-identical
// chain on reopen (snapshot load + WAL-suffix replay).
//
// Directory layout (`ZKDET_DATA_DIR` or an explicit path):
//
//   snapshot.bin        full state image + WAL sequence watermark,
//                       published atomically (tmp + fsync + rename +
//                       dir fsync); at most one, always complete
//   snapshot.tmp        in-flight snapshot; discarded on open
//   wal-<n>.log         WAL segments (zero-padded n); rotated after
//                       each snapshot, old segments deleted once the
//                       snapshot covering them is published
//
// Durability contract: Ledger::on_block_sealed runs synchronously
// inside Chain's block sealing, so by the time Chain::execute_batch
// (or Chain::call, a batch of one) returns a receipt the block's WAL
// record is written (and fsynced, unless Options::fsync_each_append is
// off). A crash at ANY instant yields,
// on reopen, a chain that passes validate_chain() and whose tip is
// either the last acked block (record durable) or the block before it
// (record torn/corrupt → tail truncated); an un-acked block may land
// either way, which is exactly a real chain client's "tx submitted but
// no receipt" window. Replay re-verifies every post-snapshot tx
// signature (batched through the runtime thread pool); snapshots are
// trusted, which is what makes reopen O(suffix) instead of O(history).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/chain.hpp"
#include "check/mutex.hpp"
#include "ledger/wal.hpp"

namespace zkdet::ledger {

class Writer;  // codec.hpp

struct Options {
  // Snapshot after this many sealed blocks (0 = never snapshot).
  std::uint64_t snapshot_interval = 1024;
  // fsync the WAL after every record (full durability). Off = batched
  // durability for bulk loads; data loss window until next sync().
  bool fsync_each_append = true;
};

struct Stats {
  std::uint64_t appended_records = 0;   // this process, post-open
  std::uint64_t replayed_blocks = 0;    // WAL suffix applied at open
  std::uint64_t snapshot_blocks = 0;    // blocks restored from snapshot
  std::uint64_t snapshots_written = 0;  // this process
  bool torn_tail_truncated = false;     // open found and cut a torn tail
  bool opened_from_snapshot = false;
};

// Attaches durability to an existing Chain. The chain must be at
// genesis when the ledger is constructed; if `dir` holds history the
// ctor restores it (restore_state + pending contract adoptions).
// Fail-stop: after an IO failure or injected crash the ledger is
// poisoned — further mutations of the observed chain throw rather than
// silently diverging from disk.
class Ledger : public chain::ChainObserver {
 public:
  Ledger(chain::Chain& chain, std::string dir, Options opts = {});
  ~Ledger() override;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  // ChainObserver (called by Chain; not for direct use).
  void on_account_created(const chain::Address& addr,
                          const crypto::G1Affine& pk,
                          std::uint64_t balance) override;
  void on_block_sealed(const chain::Block& block,
                       const chain::StateDelta& delta) override;

  // Forces a snapshot + WAL rotation now (tests, bench, shutdown).
  void snapshot_now();
  // Durability barrier when fsync_each_append is off.
  void sync();

  [[nodiscard]] Stats stats() const {
    const MutexLock lk(io_mu_);
    return stats_;
  }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t wal_seq() const {
    const MutexLock lk(io_mu_);
    return seq_;
  }
  // Last WAL sequence known durable (covered by an fsync). Equal to
  // wal_seq() while fsync_each_append is on; trails it between sync()
  // barriers otherwise, and recovery/replication trust exactly this
  // mark: reopen replays to it, the shipper never ships past it, and a
  // promoted follower truncates beyond it. This accessor replaces the
  // old pattern of callers inferring durability from segment sizes.
  [[nodiscard]] std::uint64_t durable_watermark() const {
    const MutexLock lk(io_mu_);
    return durable_seq_;
  }
  [[nodiscard]] bool poisoned() const {
    const MutexLock lk(io_mu_);
    return poisoned_;
  }

  // --- replication read API (src/replication) ---

  // One durable WAL record as shipped to a follower: the raw payload
  // (u8 type + u64 seq + body) that went through the CRC framing.
  struct ShippedRecord {
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> payload;
  };
  // Optional resume hint for read_records_after: remembers where the
  // previous read stopped so steady-state shipping is O(batch), not
  // O(segment). Owned by the caller (one per follower); invalidated
  // hints (rotated segment, truncation) fall back to a full scan.
  struct ReadCursor {
    std::uint64_t segment = 0;
    std::uint64_t offset = 0;
    std::uint64_t next_seq = 0;
  };
  struct ReadResult {
    std::vector<ShippedRecord> records;
    // True when records in (after_seq, first-available) were folded
    // into a snapshot and their segments deleted — the caller must
    // bootstrap from snapshot_bytes() instead of the WAL.
    bool gap = false;
  };
  // Returns durable records with seq in (after_seq, durable_watermark()],
  // at most `max_records`, in order. Reads the on-disk segments — the
  // shipping path never sees bytes that could still be lost.
  [[nodiscard]] ReadResult read_records_after(std::uint64_t after_seq,
                                              std::size_t max_records,
                                              ReadCursor* cursor) const;
  // Raw snapshot.bin bytes for follower bootstrap, labeled with the WAL
  // sequence the snapshot covers; nullopt when no snapshot has been
  // published yet.
  struct SnapshotImage {
    std::uint64_t wal_seq = 0;
    std::vector<std::uint8_t> bytes;
  };
  [[nodiscard]] std::optional<SnapshotImage> snapshot_bytes() const;

 private:
  // Construction-time only: runs before the observer is registered, so
  // no concurrent access to the IO state is possible, and it calls
  // chain_.restore_state (which takes the Chain nonce lock) — holding
  // io_mu_ (kLedger) across that would invert the declared lock order.
  void open_and_replay() ZKDET_NO_THREAD_SAFETY_ANALYSIS;
  void append_record(std::uint8_t type,
                     const std::function<void(Writer&)>& body)
      ZKDET_REQUIRES(io_mu_);
  void maybe_snapshot() ZKDET_REQUIRES(io_mu_);
  void write_snapshot() ZKDET_REQUIRES(io_mu_);
  [[nodiscard]] std::string segment_path(std::uint64_t n) const;

  chain::Chain& chain_;
  std::string dir_;
  Options opts_;
  // Serializes the WAL/snapshot IO state. Today the observer callbacks
  // arrive from the single sequencer thread; the mutex makes the
  // durability layer safe for the replication/failover work (WAL
  // shipping, follower snapshots) and slots the subsystem into the
  // lock order: it is taken below the chain locks and above the fault
  // registry (append fail-points fire under it).
  mutable Mutex io_mu_{check::LockLevel::kLedger, "ledger.io"};
  Stats stats_ ZKDET_GUARDED_BY(io_mu_);
  // Last WAL sequence written or replayed.
  std::uint64_t seq_ ZKDET_GUARDED_BY(io_mu_) = 0;
  // Last WAL sequence covered by an fsync (== seq_ when
  // fsync_each_append is on). See durable_watermark().
  std::uint64_t durable_seq_ ZKDET_GUARDED_BY(io_mu_) = 0;
  // WAL sequence covered by the published snapshot (0 = none).
  std::uint64_t snapshot_seq_ ZKDET_GUARDED_BY(io_mu_) = 0;
  // Current segment number.
  std::uint64_t segment_ ZKDET_GUARDED_BY(io_mu_) = 1;
  std::uint64_t blocks_since_snapshot_ ZKDET_GUARDED_BY(io_mu_) = 0;
  std::optional<WalWriter> writer_ ZKDET_GUARDED_BY(io_mu_);
  bool poisoned_ ZKDET_GUARDED_BY(io_mu_) = false;
};

// Chain + Ledger with correct construction/destruction order.
class PersistentChain {
 public:
  explicit PersistentChain(const std::string& dir, Options opts = {})
      : ledger_(chain_, dir, opts) {}

  [[nodiscard]] chain::Chain& chain() { return chain_; }
  [[nodiscard]] const chain::Chain& chain() const { return chain_; }
  [[nodiscard]] Ledger& ledger() { return ledger_; }

 private:
  chain::Chain chain_;
  Ledger ledger_;
};

// Opens (creating or recovering) a durable chain rooted at `dir`.
[[nodiscard]] std::unique_ptr<PersistentChain> open(const std::string& dir,
                                                    Options opts = {});

}  // namespace zkdet::ledger
