#include "ledger/ledger.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ledger/codec.hpp"
#include "ledger/replay.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::ledger {

namespace {

// Re-verifies the signatures of WAL-replayed transactions, batched over
// the shared thread pool. The snapshot prefix is trusted (that is what
// makes reopen O(suffix)); everything recovered from the WAL is not.
void verify_replayed_signatures(
    const std::vector<const chain::TxRecord*>& txs,
    const std::map<chain::Address, crypto::G1Affine>& account_keys) {
  std::atomic<std::size_t> bad{txs.size()};  // first failing index
  runtime::parallel_for(txs.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const chain::TxRecord& tx = *txs[i];
      const auto key = account_keys.find(tx.sender);
      bool ok = key != account_keys.end();
      if (ok) {
        const auto msg =
            chain::Chain::tx_auth_message(tx.description, tx.nonce);
        ok = crypto::schnorr_verify(key->second, msg, tx.sig);
      }
      if (!ok) {
        std::size_t cur = bad.load();
        while (i < cur && !bad.compare_exchange_weak(cur, i)) {
        }
      }
    }
  });
  if (bad.load() != txs.size()) {
    const chain::TxRecord& tx = *txs[bad.load()];
    throw IoError("ledger: replayed tx at block " + std::to_string(tx.block) +
                  " has an invalid signature (" + tx.description + ")");
  }
}

}  // namespace

Ledger::Ledger(chain::Chain& chain, std::string dir, Options opts)
    : chain_(chain), dir_(std::move(dir)), opts_(opts) {
  if (chain_.height() != 1 || chain_.recording()) {
    throw IoError("ledger: chain must be fresh (at genesis, unobserved)");
  }
  open_and_replay();
  chain_.set_observer(this);
}

Ledger::~Ledger() { chain_.set_observer(nullptr); }

std::string Ledger::segment_path(std::uint64_t n) const {
  return dir_ + "/" + segment_name(n);
}

void Ledger::open_and_replay() {
  // Shared replay path (ledger/replay.cpp): snapshot + WAL suffix into
  // an image — the same fold a replication follower applies record by
  // record. Hash verification stays off here because validate_chain()
  // below covers the whole chain once.
  LoadedDir loaded = load_dir(dir_, /*verify_hashes=*/false);
  stats_.opened_from_snapshot = loaded.from_snapshot;
  stats_.snapshot_blocks = loaded.snapshot_blocks;
  stats_.replayed_blocks = loaded.replayed_blocks;
  stats_.torn_tail_truncated = loaded.torn_tail_truncated;
  seq_ = loaded.image.seq;
  // Everything load_dir read back is on disk; the durable watermark
  // starts at the replayed sequence.
  durable_seq_ = seq_;
  snapshot_seq_ = loaded.snapshot_wal_seq;

  ReplayImage& st = loaded.image;
  if (st.has_history()) {
    // The snapshot prefix is trusted; everything recovered from the WAL
    // (blocks [first_wal_block, end)) is not.
    std::vector<const chain::TxRecord*> to_verify;
    for (std::size_t b = loaded.first_wal_block; b < st.blocks.size(); ++b) {
      for (const auto& tx : st.blocks[b].txs) {
        if (tx.has_sig) to_verify.push_back(&tx);
      }
    }
    if (!to_verify.empty()) {
      verify_replayed_signatures(to_verify, st.account_keys);
    }
    chain_.restore_state(std::move(st.blocks), std::move(st.balances),
                         std::move(st.account_keys), std::move(st.contracts));
    if (!chain_.validate_chain()) {
      throw IoError("ledger: replayed chain fails hash-link validation (" +
                    dir_ + ")");
    }
  }

  // Open the write head on the last segment (or a fresh first one).
  segment_ = loaded.head_segment;
  writer_.emplace(File::open_append(segment_path(segment_)),
                  opts_.fsync_each_append);
  if (loaded.fresh_segment) sync_dir(dir_);
}

void Ledger::append_record(std::uint8_t type,
                           const std::function<void(Writer&)>& body) {
  if (poisoned_) {
    throw IoError("ledger: poisoned after earlier failure (" + dir_ + ")");
  }
  Writer w;
  w.u8(type);
  w.u64(seq_ + 1);
  body(w);
  const auto payload = w.take();
  try {
    writer_->append(payload);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
  ++seq_;
  // append() returned, so with per-append fsync the record is durable;
  // otherwise durability waits for the next sync()/snapshot barrier.
  if (opts_.fsync_each_append) durable_seq_ = seq_;
  ++stats_.appended_records;
}

void Ledger::on_account_created(const chain::Address& addr,
                                const crypto::G1Affine& pk,
                                std::uint64_t balance) {
  const MutexLock lk(io_mu_);
  append_record(kRecordAccount, [&](Writer& w) {
    w.str(addr);
    w.g1(pk);
    w.u64(balance);
  });
}

void Ledger::on_block_sealed(const chain::Block& block,
                             const chain::StateDelta& delta) {
  const MutexLock lk(io_mu_);
  append_record(kRecordBlock, [&](Writer& w) {
    write_block(w, block);
    write_delta(w, delta);
  });
  ++blocks_since_snapshot_;
  maybe_snapshot();
}

void Ledger::sync() {
  const MutexLock lk(io_mu_);
  if (poisoned_) {
    throw IoError("ledger: poisoned after earlier failure (" + dir_ + ")");
  }
  try {
    writer_->sync();
  } catch (...) {
    poisoned_ = true;
    throw;
  }
  durable_seq_ = seq_;
}

void Ledger::maybe_snapshot() {
  if (opts_.snapshot_interval == 0) return;
  if (blocks_since_snapshot_ < opts_.snapshot_interval) return;
  write_snapshot();
  blocks_since_snapshot_ = 0;
}

void Ledger::snapshot_now() {
  const MutexLock lk(io_mu_);
  if (poisoned_) {
    throw IoError("ledger: poisoned after earlier failure (" + dir_ + ")");
  }
  write_snapshot();
  blocks_since_snapshot_ = 0;
}

void Ledger::write_snapshot() {
  ChainSnapshot snap;
  snap.blocks = chain_.blocks();
  snap.balances = chain_.balances_map();
  snap.account_keys = chain_.account_keys();
  for (const auto& c : chain_.contracts()) {
    chain::RestoredContract rc;
    rc.name = c->name();
    rc.code_size = c->code_size();
    rc.slots = c->audit_store().peek_all();
    snap.contracts.emplace(c->address(), std::move(rc));
  }
  // Persisted contracts the application never re-adopted must survive
  // the next snapshot too.
  for (const auto& [addr, rc] : chain_.pending_adoptions()) {
    snap.contracts.emplace(addr, rc);
  }
  snap.wal_seq = seq_;

  const auto payload = encode_snapshot(snap);
  const auto frame = frame_record(payload);
  const std::string tmp = dir_ + "/" + kSnapshotTmpFile;
  const std::span<const std::uint8_t> magic(
      reinterpret_cast<const std::uint8_t*>(kSnapshotMagic),
      sizeof(kSnapshotMagic));

  try {
    // Simulated kill mid-snapshot: a partial temp file is left behind;
    // reopen discards it and the previous snapshot + WAL still rebuild
    // the full state.
    if (fault::fire(fault::points::kLedgerSnapshotWrite)) {
      File partial = File::create_truncate(tmp);
      partial.write_all(magic);
      partial.write_all(std::span(frame).first(frame.size() / 2));
      throw CrashInjected(fault::points::kLedgerSnapshotWrite);
    }

    File f = File::create_truncate(tmp);
    f.write_all(magic);
    f.write_all(frame);
    f.sync();
    atomic_publish(tmp, dir_ + "/" + kSnapshotFile);

    // Rotate: new records go to a fresh segment; everything before it
    // is covered by the snapshot we just published.
    const std::uint64_t next_segment = segment_ + 1;
    writer_.emplace(File::open_append(segment_path(next_segment)),
                    opts_.fsync_each_append);
    sync_dir(dir_);
    const std::uint64_t last_old = segment_;
    segment_ = next_segment;
    for (const auto& name : list_dir(dir_)) {
      if (const auto n = parse_segment_name(name); n && *n <= last_old) {
        remove_file(dir_ + "/" + name);
      }
    }
    ++stats_.snapshots_written;
    // The snapshot covers every record up to seq_ and was fsynced
    // before publication.
    durable_seq_ = seq_;
    snapshot_seq_ = seq_;
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

Ledger::ReadResult Ledger::read_records_after(std::uint64_t after_seq,
                                              std::size_t max_records,
                                              ReadCursor* cursor) const {
  const MutexLock lk(io_mu_);
  ReadResult out;
  if (max_records == 0 || after_seq >= durable_seq_) return out;

  // Fast path: resume exactly where the previous read for this caller
  // stopped, if the segment still exists and the frame there carries
  // the expected sequence.
  if (cursor != nullptr && cursor->next_seq == after_seq + 1 &&
      cursor->segment != 0) {
    if (const auto f = File::open_read(segment_path(cursor->segment))) {
      const auto bytes = f->read_all();
      if (cursor->offset <= bytes.size()) {
        std::size_t offset = cursor->offset;
        std::uint64_t segment = cursor->segment;
        bool valid = true;
        std::uint64_t expect = after_seq + 1;
        std::vector<ShippedRecord> records;
        while (records.size() < max_records && expect <= durable_seq_) {
          const auto rec =
              parse_record(std::span<const std::uint8_t>(bytes), offset);
          if (!rec) break;  // end of this segment (or torn tail)
          Reader r{rec->payload};
          (void)r.u8();
          const std::uint64_t rec_seq = r.u64();
          if (rec_seq != expect) {
            valid = false;  // rotation/truncation moved the ground
            break;
          }
          records.push_back(
              {rec_seq, {rec->payload.begin(), rec->payload.end()}});
          offset = rec->next_offset;
          ++expect;
        }
        if (valid && !records.empty()) {
          // More may live in later segments; only claim the fast path
          // when it produced a full batch or reached the watermark —
          // otherwise fall through to the scan.
          if (records.size() == max_records || expect > durable_seq_) {
            cursor->segment = segment;
            cursor->offset = offset;
            cursor->next_seq = expect;
            out.records = std::move(records);
            return out;
          }
        }
      }
    }
  }

  // Slow path: scan the segments in order. Sequences increase
  // monotonically across segments, so the first frame above after_seq
  // tells us whether the WAL still covers the caller's position.
  std::vector<std::uint64_t> segments;
  for (const auto& name : list_dir(dir_)) {
    if (const auto n = parse_segment_name(name)) segments.push_back(*n);
  }
  std::uint64_t expect = after_seq + 1;
  for (const auto n : segments) {
    const auto f = File::open_read(segment_path(n));
    if (!f) continue;  // rotated away under us
    const auto bytes = f->read_all();
    std::size_t offset = 0;
    while (out.records.size() < max_records && expect <= durable_seq_) {
      const auto rec =
          parse_record(std::span<const std::uint8_t>(bytes), offset);
      if (!rec) break;
      Reader r{rec->payload};
      (void)r.u8();
      const std::uint64_t rec_seq = r.u64();
      offset = rec->next_offset;
      if (rec_seq <= after_seq) continue;
      if (rec_seq > expect) {
        // The records the caller needs were folded into a snapshot and
        // their segments deleted.
        out.gap = true;
        out.records.clear();
        return out;
      }
      out.records.push_back(
          {rec_seq, {rec->payload.begin(), rec->payload.end()}});
      if (cursor != nullptr) {
        cursor->segment = n;
        cursor->offset = offset;
        cursor->next_seq = rec_seq + 1;
      }
      ++expect;
    }
    if (out.records.size() >= max_records || expect > durable_seq_) break;
  }
  if (out.records.empty() && after_seq < durable_seq_) {
    // Nothing on disk covers (after_seq, durable]: snapshot-folded.
    out.gap = true;
  }
  return out;
}

std::optional<Ledger::SnapshotImage> Ledger::snapshot_bytes() const {
  // Lock so we never race a write_snapshot mid-rotation (the publish
  // itself is atomic, but the read pairs with watermark accounting).
  const MutexLock lk(io_mu_);
  auto bytes = read_snapshot_bytes(dir_);
  if (!bytes) return std::nullopt;
  return SnapshotImage{snapshot_seq_, std::move(*bytes)};
}

std::unique_ptr<PersistentChain> open(const std::string& dir, Options opts) {
  return std::make_unique<PersistentChain>(dir, opts);
}

}  // namespace zkdet::ledger
