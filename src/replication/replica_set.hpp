// ReplicaSet: wires one primary Ledger to N in-process followers and
// drives the whole ensemble with manual pumps.
//
// The per-follower transport is pluggable: InMemoryLink (default) or
// SocketLink — both ends of a real AF_UNIX stream pair — selected by
// Config::transport or the ZKDET_REPL_TRANSPORT env var ("socket" /
// "memory"). The socket transport exercises the exact byte path an
// out-of-process follower would use (stream framing, partial writes,
// kernel-buffer backpressure) while staying pump-driven and
// deterministic.
//
// This is the deployment shape the tests, the failover matrix and the
// ZKDET_REPLICAS quickstart use: follower i lives in
// `<base_dir>/r<i>`, the shipper streams the primary's durable WAL to
// all of them, and sync() pumps until every live follower acked the
// primary's durable watermark. Killing the primary and promoting a
// follower is modeled as: destroy the primary objects, call
// promote(i), then open a fresh primary Ledger on the returned
// directory.
//
// Everything is pump-driven — no threads, no sleeps — so fault
// schedules replay deterministically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/chain.hpp"
#include "ledger/ledger.hpp"
#include "replication/follower.hpp"
#include "replication/shipper.hpp"
#include "replication/transport.hpp"

namespace zkdet::replication {

enum class TransportKind : std::uint8_t {
  kDefault = 0,  // consult ZKDET_REPL_TRANSPORT; fall back to memory
  kMemory = 1,
  kSocket = 2,
};

// Resolves kDefault against ZKDET_REPL_TRANSPORT ("socket"/"memory";
// anything else, or unset, means memory).
[[nodiscard]] TransportKind resolve_transport(TransportKind kind);

class ReplicaSet {
 public:
  struct Config {
    Shipper::Config shipper;
    TransportKind transport = TransportKind::kDefault;
  };

  // Creates `replicas` followers under `<base_dir>/r<i>`. Existing
  // follower directories are reloaded (a restarted replica resumes
  // from its own durable state).
  ReplicaSet(ledger::Ledger& ledger, const chain::Chain& chain,
             std::string base_dir, std::size_t replicas, Config cfg);
  ReplicaSet(ledger::Ledger& ledger, const chain::Chain& chain,
             std::string base_dir, std::size_t replicas)
      : ReplicaSet(ledger, chain, std::move(base_dir), replicas, Config{}) {}

  // One round: shipper first, then every follower. CrashInjected from
  // a follower fail-point propagates to the caller (the chaos harness
  // restarts that follower).
  void pump();

  // Pumps until all live followers are caught up, up to `max_rounds`.
  // Returns true when caught up.
  bool sync(std::size_t max_rounds = 10'000);

  // Deadline-bounded sync for shutdown paths: pumps while progress is
  // being made (any follower's acked watermark advancing re-arms the
  // budget), but gives up after `policy.max_attempts` consecutive
  // fruitless rounds — a dead follower transport costs a bounded number
  // of pumps, never a stall. Returns true when every live follower
  // caught up within the budget.
  bool final_sync(runtime::BackoffPolicy policy = {
      .max_attempts = 64, .base_delay_us = 100, .max_delay_us = 10'000});

  // Replaces follower `i` with a fresh incarnation loaded from its
  // directory — the restart after an injected follower crash. Queued
  // in-flight datagrams survive on the link; the new incarnation skips
  // duplicates idempotently and lets retransmission fill gaps.
  void restart_follower(std::size_t i);

  // Failover: prepares follower `i` for promotion (refuses if it
  // diverged) and returns its directory for a new primary to open.
  // The caller must have destroyed (or stopped pumping) the primary.
  [[nodiscard]] std::string promote(std::size_t i);

  [[nodiscard]] std::size_t size() const { return followers_.size(); }
  [[nodiscard]] Shipper& shipper() { return shipper_; }
  [[nodiscard]] Follower& follower(std::size_t i) { return *followers_.at(i); }
  [[nodiscard]] Link& link(std::size_t i) { return *links_.at(i); }
  [[nodiscard]] const std::string& follower_dir(std::size_t i) const {
    return dirs_.at(i);
  }

 private:
  Shipper shipper_;
  std::vector<std::string> dirs_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Follower>> followers_;
};

// Parses a replica count from an environment-style string ("3" → 3).
// Returns 0 (replication disabled) on empty/invalid/out-of-range
// input; counts above 16 are clamped to 16.
[[nodiscard]] std::size_t parse_replica_count(const char* value);

}  // namespace zkdet::replication
