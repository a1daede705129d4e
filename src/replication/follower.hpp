// Replication follower: applies the primary's shipped WAL stream to
// its own directory and acknowledges its durable watermark.
//
// A follower is a warm standby, not a second chain: it holds a
// ledger::ReplayImage (the same fold Ledger recovery uses) plus its own
// WAL write head, and every applied record goes through
// ReplayImage::apply_record with hash verification ON. Any record that
// does not extend the follower's tip self-consistently — wrong content
// hash, broken prev-link, undecodable body — is divergence, and the
// follower fail-stops: it marks itself failed, reports a kFailStop
// frame upstream, and refuses promotion. A diverged replica that kept
// serving would be a silent fork, the one failure mode this subsystem
// exists to rule out.
//
// Durability mirrors the primary: a record is acked only after it has
// been appended to the follower's WAL and fsynced, so an acked sequence
// survives a follower crash, and the primary may treat acked == safe.
// Gap frames (a sequence above watermark+1, e.g. after a dropped
// datagram) are silently ignored — the missing range stays un-acked and
// the shipper's retry re-delivers it; duplicates below the watermark
// are skipped idempotently.
//
// Promotion (prepare_promotion) is the failover handoff: flush, cut the
// WAL after the durable watermark (dropping any torn or unacked tail),
// and hand back the directory for a new primary Ledger to open. The
// promoted chain is then byte-identical to the dead primary's chain up
// to the follower's watermark — proven by the failover matrix test.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "check/mutex.hpp"
#include "ledger/replay.hpp"
#include "ledger/wal.hpp"
#include "replication/transport.hpp"

namespace zkdet::replication {

class Follower {
 public:
  // Loads `dir` (fresh or a previous follower incarnation's state) and
  // announces its watermark so the shipper knows where to start.
  Follower(std::string dir, Link& link);

  // Drains the link: applies records/snapshots, sends one consolidated
  // ack. Throws CrashInjected when the repl.follower.crash fail-point
  // fires (the harness restarts the follower from its directory).
  void pump();

  // Failover: refuse if diverged, otherwise flush and truncate the WAL
  // after the durable watermark. Returns the directory, ready for a
  // primary Ledger to open. The follower must not be pumped again.
  [[nodiscard]] std::string prepare_promotion();

  [[nodiscard]] std::uint64_t durable_seq() const {
    const MutexLock lk(mu_);
    return durable_seq_;
  }
  [[nodiscard]] bool failed() const {
    const MutexLock lk(mu_);
    return failed_;
  }
  [[nodiscard]] std::string diagnostic() const {
    const MutexLock lk(mu_);
    return diagnostic_;
  }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  // Read view for follower-served queries (core/follower_view.hpp).
  // Callers must not outlive the follower; the reference is stable
  // across pumps. Prefix-consistency: between pumps this is exactly the
  // primary's state at some durable sequence — never a mix.
  [[nodiscard]] const ledger::ReplayImage& image() const
      ZKDET_NO_THREAD_SAFETY_ANALYSIS {
    return image_;
  }

 private:
  void fail_stop(const std::string& why) ZKDET_REQUIRES(mu_);
  void send_ack() ZKDET_REQUIRES(mu_);
  void apply_snapshot(const Frame& frame) ZKDET_REQUIRES(mu_);
  bool apply_record_frame(const Frame& frame) ZKDET_REQUIRES(mu_);

  const std::string dir_;
  Link& link_;
  mutable Mutex mu_{check::LockLevel::kReplFollower, "repl.follower"};
  ledger::ReplayImage image_ ZKDET_GUARDED_BY(mu_);
  // Last sequence on this follower's disk covered by an fsync; what
  // gets acked. == image_.seq except mid-pump before the sync barrier.
  std::uint64_t durable_seq_ ZKDET_GUARDED_BY(mu_) = 0;
  std::uint64_t segment_ ZKDET_GUARDED_BY(mu_) = 1;
  std::optional<ledger::WalWriter> wal_ ZKDET_GUARDED_BY(mu_);
  bool failed_ ZKDET_GUARDED_BY(mu_) = false;
  std::string diagnostic_ ZKDET_GUARDED_BY(mu_);
  bool promoted_ ZKDET_GUARDED_BY(mu_) = false;
};

}  // namespace zkdet::replication
