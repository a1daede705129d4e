#include "replication/follower.hpp"

#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "runtime/stats.hpp"

namespace zkdet::replication {

Follower::Follower(std::string dir, Link& link)
    : dir_(std::move(dir)), link_(link) {
  // verify_hashes on: a follower never trusts its own disk more than it
  // trusts the stream — a forked image must not come back from a crash.
  auto loaded = ledger::load_dir(dir_, /*verify_hashes=*/true);
  const MutexLock lk(mu_);
  image_ = std::move(loaded.image);
  durable_seq_ = image_.seq;
  segment_ = loaded.head_segment;
  // Batched durability: records are fsynced once per pump, right before
  // the ack that makes them count. Reviewed apply-path writer: every
  // append through it is followed by sync + durable_seq_ advance.
  wal_.emplace(  // zkdet-lint: allow(untracked-watermark)
      ledger::File::open_append(dir_ + "/" + ledger::segment_name(segment_)),
      /*fsync_each_append=*/false);
  if (loaded.fresh_segment) ledger::sync_dir(dir_);
  send_ack();  // announce the watermark so the shipper knows where to start
}

void Follower::pump() {
  const MutexLock lk(mu_);
  if (promoted_) {
    throw ledger::IoError("replication: pumping a promoted follower (" +
                          dir_ + ")");
  }
  std::size_t applied = 0;
  while (auto datagram = link_.recv_at_follower()) {
    if (failed_) continue;  // drain and discard; we already fail-stopped
    const auto frame = decode_frame(*datagram);
    if (!frame) continue;  // damaged in flight: treated as lost, re-shipped
    switch (frame->type) {
      case FrameType::kSnapshot:
        apply_snapshot(*frame);
        break;
      case FrameType::kRecord:
        if (apply_record_frame(*frame)) ++applied;
        break;
      case FrameType::kFailStop:
        failed_ = true;
        diagnostic_ = "primary fail-stop: " + frame->text;
        break;
      case FrameType::kAck:
        break;  // not meaningful in the ship direction
    }
  }
  if (applied > 0 && wal_.has_value()) {
    // Durability barrier: only now do the applied records count toward
    // the acked watermark.
    wal_->sync();
    durable_seq_ = image_.seq;
    runtime::counters::repl_records_applied.fetch_add(
        applied, std::memory_order_relaxed);
  }
  if (!failed_) send_ack();
}

void Follower::apply_snapshot(const Frame& frame) {
  if (frame.seq <= image_.seq) return;  // stale bootstrap: already past it
  try {
    auto snap = ledger::install_snapshot_bytes(dir_, frame.bytes);
    // The snapshot supersedes everything this follower had: drop the
    // old WAL segments and start a fresh one past the old head.
    wal_.reset();
    for (const auto& name : ledger::list_dir(dir_)) {
      if (ledger::parse_segment_name(name)) {
        ledger::remove_file(dir_ + "/" + name);
      }
    }
    image_ = ledger::ReplayImage{};
    image_.blocks = std::move(snap.blocks);
    image_.balances = std::move(snap.balances);
    image_.account_keys = std::move(snap.account_keys);
    image_.contracts = std::move(snap.contracts);
    image_.seq = snap.wal_seq;
    segment_ += 1;
    // Reviewed: fresh apply-path writer for the post-snapshot segment.
    wal_.emplace(  // zkdet-lint: allow(untracked-watermark)
        ledger::File::open_append(dir_ + "/" + ledger::segment_name(segment_)),
        /*fsync_each_append=*/false);
    ledger::sync_dir(dir_);
    durable_seq_ = image_.seq;
  } catch (const ledger::IoError& e) {
    fail_stop(std::string("shipped snapshot rejected: ") + e.what());
  }
}

bool Follower::apply_record_frame(const Frame& frame) {
  // Fail-point: the follower process dies mid-apply. Un-acked records
  // are re-shipped to the restarted incarnation and skipped
  // idempotently if they made it to disk.
  if (fault::fire(fault::points::kReplFollowerCrash)) {
    throw ledger::CrashInjected(fault::points::kReplFollowerCrash);
  }
  if (frame.seq <= image_.seq) return false;  // duplicate: idempotent skip
  if (frame.seq != image_.seq + 1) return false;  // gap: wait for re-ship
  try {
    // verify_hashes on: content hash + prev-link checked against our
    // tip. A mismatch is divergence — fail-stop, never apply.
    image_.apply_record(frame.bytes, "repl:" + dir_, /*verify_hashes=*/true);
    // The one raw WAL write in the replication subsystem: persisting a
    // record that just passed verification, on the shipping path.
    wal_->append(frame.bytes);  // zkdet-lint: allow(untracked-watermark)
  } catch (const ledger::IoError& e) {
    fail_stop(e.what());
    return false;
  }
  return true;
}

void Follower::fail_stop(const std::string& why) {
  failed_ = true;
  diagnostic_ = why;
  runtime::counters::repl_failstops.fetch_add(1, std::memory_order_relaxed);
  Frame f;
  f.type = FrameType::kFailStop;
  f.seq = durable_seq_;
  f.height = image_.height();
  if (!image_.blocks.empty()) f.tip_hash = image_.blocks.back().hash;
  f.text = why;
  link_.send_to_primary(encode_frame(f));
}

void Follower::send_ack() {
  Frame f;
  f.type = FrameType::kAck;
  f.seq = durable_seq_;
  f.height = image_.height();
  if (!image_.blocks.empty()) f.tip_hash = image_.blocks.back().hash;
  link_.send_to_primary(encode_frame(f));
}

std::string Follower::prepare_promotion() {
  const MutexLock lk(mu_);
  if (failed_) {
    // A diverged replica must never become the primary: promoting it
    // would turn a detected fork into an authoritative one.
    throw ledger::IoError("replication: refusing to promote follower (" +
                          dir_ + "): " + diagnostic_);
  }
  if (promoted_) {
    throw ledger::IoError("replication: follower already promoted (" + dir_ +
                          ")");
  }
  promoted_ = true;
  if (wal_.has_value()) {
    wal_->sync();
    durable_seq_ = image_.seq;
    wal_.reset();
  }
  // Cut anything past the durable watermark (a torn tail from a crash
  // mid-append); the new primary replays exactly the verified prefix.
  ledger::truncate_wal_after(dir_, durable_seq_);
  return dir_;
}

}  // namespace zkdet::replication
