// Shared WAL replay: the one decode-and-apply path for ledger records.
//
// Ledger::open_and_replay (primary recovery) and replication::Follower
// (streamed catch-up) fold the same record stream into the same image
// type through the same code, so a record either applies identically on
// both sides or is rejected identically — there is no second replay
// implementation to drift. A ReplayImage is exactly the state a
// Chain::restore_state call consumes: block history, balances, account
// keys and contract KV images, plus the WAL sequence watermark.
//
// Record payload layout (inside a CRC frame, see wal.hpp):
//
//   u8 type (kRecordBlock | kRecordAccount) + u64 seq + body
//
// Sequences are strictly contiguous; records at or below the image's
// watermark are skipped idempotently (snapshot-folded records on
// reopen, re-shipped frames after a lost ack in replication).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ledger/codec.hpp"

namespace zkdet::ledger {

// snapshot.bin layout: this magic, then one CRC frame whose payload is
// encode_snapshot(). Published atomically; at most one per directory.
inline constexpr char kSnapshotMagic[8] = {'Z', 'K', 'D', 'T',
                                           'S', 'N', 'A', 'P'};
inline constexpr const char* kSnapshotFile = "snapshot.bin";
inline constexpr const char* kSnapshotTmpFile = "snapshot.tmp";

// wal-<20-digit n>.log — zero-padded so lexicographic == numeric order.
[[nodiscard]] std::string segment_name(std::uint64_t n);
[[nodiscard]] std::optional<std::uint64_t> parse_segment_name(
    const std::string& name);

// Mutable replay image: snapshot state + WAL records folded in.
struct ReplayImage {
  std::vector<chain::Block> blocks;
  std::map<chain::Address, std::uint64_t> balances;
  std::map<chain::Address, crypto::G1Affine> account_keys;
  std::map<chain::Address, chain::RestoredContract> contracts;
  // Last WAL sequence folded into this image.
  std::uint64_t seq = 0;

  enum class Applied : std::uint8_t {
    kSkipped = 0,  // seq <= watermark: already folded in (idempotent)
    kBlock = 1,
    kAccount = 2,
  };

  // Decodes and applies one record payload. Throws IoError on a
  // sequence gap, an undecodable body, an unknown type, or (with
  // `verify_hashes`) a block whose hash or prev-link does not match —
  // the follower-side divergence fail-stop. `origin` labels errors
  // (file path or transport peer). The Ledger's own replay leaves
  // verify_hashes off: validate_chain() covers the whole chain once
  // after restore, and doing it per-record would double that cost.
  Applied apply_record(std::span<const std::uint8_t> payload,
                       const std::string& origin, bool verify_hashes);

  [[nodiscard]] std::uint64_t height() const { return blocks.size(); }
  [[nodiscard]] bool has_history() const {
    return blocks.size() > 1 || !balances.empty() || !account_keys.empty() ||
           !contracts.empty();
  }
};

// Everything load_dir() learned about a ledger directory.
struct LoadedDir {
  ReplayImage image;
  bool from_snapshot = false;
  std::uint64_t snapshot_blocks = 0;
  // WAL sequence the loaded snapshot covered (0 when none existed).
  std::uint64_t snapshot_wal_seq = 0;
  std::uint64_t replayed_blocks = 0;
  // Index of the first image block that came from the WAL (everything
  // before it is snapshot-trusted; callers re-verify from here).
  std::size_t first_wal_block = 0;
  bool torn_tail_truncated = false;
  std::uint64_t head_segment = 1;  // segment to continue appending to
  bool fresh_segment = true;       // no segment file existed yet
};

// Loads `dir` (creating it if missing): discards an in-flight
// snapshot.tmp, loads snapshot.bin when present, replays the WAL
// segments in order and truncates a torn tail on the final segment.
// Genesis-only directories yield an image holding just the
// deterministic genesis block.
[[nodiscard]] LoadedDir load_dir(const std::string& dir, bool verify_hashes);

// Promotion hook: truncates the WAL in `dir` so no record with
// sequence > `seq` survives — a promoted follower cuts everything past
// its durable watermark (unacked tail) before resuming as a primary.
// Frames are cut at a frame boundary and later segments are deleted
// whole; a torn tail is dropped as a side effect.
void truncate_wal_after(const std::string& dir, std::uint64_t seq);

// Raw snapshot.bin bytes (magic + CRC frame), or nullopt when the
// directory has no published snapshot. The unit the replication
// bootstrap ships.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_snapshot_bytes(
    const std::string& dir);

// Atomically installs raw snapshot bytes (as returned by
// read_snapshot_bytes) into `dir`, validating magic + CRC first.
// Returns the decoded snapshot so the caller can rebuild its image.
ChainSnapshot install_snapshot_bytes(const std::string& dir,
                                     std::span<const std::uint8_t> bytes);

}  // namespace zkdet::ledger
