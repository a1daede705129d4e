// Lightweight runtime metrics for the concurrent proving substrate.
//
// Everything is a process-global relaxed atomic counter: cheap enough to
// leave enabled in release builds, precise enough for the benches and
// the cache-behaviour tests. stats() takes a consistent-enough snapshot
// (each field individually atomic); reset_stats() zeroes all counters.
//
// Wall-time counters accumulate nanoseconds measured on the thread that
// performed the stage, so with W workers the per-stage sums can exceed
// elapsed real time (they are CPU-stage time, not wall time).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

// The one list of runtime counters. Each entry generates a StatsSnapshot
// field, a counters:: atomic, and its stats()/reset_stats() handling.
#define ZKDET_RUNTIME_COUNTERS(X)                                            \
  /* ProverService job lifecycle. */                                         \
  X(jobs_submitted)                                                          \
  X(jobs_completed)                                                          \
  X(jobs_failed)                                                             \
  /* ProverService proving/verifying-key cache. */                           \
  X(key_cache_hits)                                                          \
  X(key_cache_misses)                                                        \
  X(key_cache_evictions)      /* always 0: keys are never evicted */         \
  /* Attributed batch verification (plonk::batch_verify_attributed). */      \
  X(proofs_verified)                                                         \
  X(batch_verifications)                                                     \
  X(batch_fold_checks)        /* pairing products evaluated */               \
  X(batch_entries_folded)     /* entries processed */                        \
  X(batch_invalid_attributed) /* entries attributed invalid */               \
  /* Batched settlement (Chain::execute_batch pre-execution claim stage). */ \
  X(settle_batches)  /* batches with >= 1 proof claim */                     \
  X(settle_claims)   /* settle claims pre-verified */                        \
  X(settle_max_fold) /* gauge: largest claim fold so far */                  \
  /* Thread pool. */                                                         \
  X(parallel_regions)                                                        \
  X(chunks_executed)                                                         \
  X(chunks_stolen) /* chunks run by a thread other than the caller */        \
  /* Transaction pool / batch executor (src/txpool). */                      \
  X(txpool_submitted)                                                        \
  X(txpool_rejected)                                                         \
  X(txpool_replaced)                                                         \
  X(txpool_batches_sealed)                                                   \
  X(txpool_txs_executed)                                                     \
  X(txpool_conflict_aborts)                                                  \
  X(txpool_queue_depth) /* gauge: pending txs right now */                   \
  /* WAL replication (src/replication). */                                   \
  X(repl_records_shipped)                                                    \
  X(repl_retransmits) /* re-ships after a missing ack */                     \
  X(repl_snapshots_shipped)                                                  \
  X(repl_records_applied) /* follower-side, post-fsync */                    \
  X(repl_failstops)       /* divergence fail-stops raised */                 \
  /* RPC front end (src/rpc). */                                             \
  X(rpc_admitted)       /* requests past admission control */                \
  X(rpc_shed)           /* typed Overloaded responses sent */                \
  X(rpc_batched_proves) /* prove requests coalesced into groups */           \
  X(rpc_inflight)       /* gauge: requests dispatching right now */          \
  X(rpc_queue_depth)    /* gauge: admitted-but-undispatched */               \
  /* Per-stage wall time (ns, summed per executing thread). */               \
  X(msm_ns)                                                                  \
  X(ntt_ns)                                                                  \
  X(quotient_ns)                                                             \
  X(preprocess_ns)                                                           \
  X(prove_ns)                                                                \
  X(verify_ns)

namespace zkdet::runtime {

struct StatsSnapshot {
#define ZKDET_STATS_FIELD(name) std::uint64_t name = 0;
  ZKDET_RUNTIME_COUNTERS(ZKDET_STATS_FIELD)
#undef ZKDET_STATS_FIELD
};

// Snapshot of all counters since process start / last reset.
[[nodiscard]] StatsSnapshot stats();
void reset_stats();

// Raw counters; hot paths bump these directly. Relaxed ordering is fine:
// the counters carry no synchronization duties.
namespace counters {
#define ZKDET_STATS_COUNTER(name) extern std::atomic<std::uint64_t> name;
ZKDET_RUNTIME_COUNTERS(ZKDET_STATS_COUNTER)
#undef ZKDET_STATS_COUNTER
}  // namespace counters

// Adds the scope's elapsed nanoseconds to `sink` on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::atomic<std::uint64_t>& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    sink_.fetch_add(static_cast<std::uint64_t>(ns),
                    std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>& sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace zkdet::runtime
