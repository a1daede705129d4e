// Transaction pool: mempool + scheduler + parallel batch executor.
//
// The pump-driven front door of the chain pipeline. Producers submit()
// signed intents from any thread; a driver thread (the load harness, or
// the synchronous call() helper) pumps seal_next_batch(), which asks
// the scheduler for a conflict-free batch and hands it to
// Chain::execute_batch — signature checks and contract closures fan out
// over the runtime thread pool, effects commit serially in canonical
// order, and the batch seals as ONE block. The pool owns no threads
// (src/runtime holds the only thread primitives in the tree), so
// determinism and shutdown are trivial: no pump, no progress.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "chain/chain.hpp"
#include "check/mutex.hpp"
#include "txpool/intent.hpp"
#include "txpool/mempool.hpp"
#include "txpool/scheduler.hpp"

namespace zkdet::txpool {

struct Config {
  std::size_t capacity = 65536;  // mempool admission bound
  std::size_t max_batch = 128;   // max txs per sealed block
  // Run batch stages concurrently on the runtime pool. Off = the serial
  // baseline, byte-identical to parallel execution by construction
  // (benches and determinism tests diff the two).
  bool parallel = true;
};

class TxPool {
 public:
  explicit TxPool(chain::Chain& chain, Config cfg = {});

  // Thread-safe admission. The kChainSubmit and kTxpoolAdmitFull
  // fail-points can reject here (callers observe and retry).
  SubmitResult submit(TxIntent intent);

  // Seals at most one batch; returns the number of txs included.
  // Single-pumper: not safe to call concurrently with itself.
  std::size_t seal_next_batch();
  // Pumps until the pool stops making progress; returns txs sealed.
  std::size_t drain();
  // Pumps until every ticket resolves, at most pending() + 2 rounds and
  // no further than the first unproductive pump. Bounded: every
  // productive pump shrinks the pool, so only a permanently
  // unschedulable tx (nonce gap from a lost predecessor) stays
  // unresolved; callers check done() on each ticket.
  void await(std::span<const TicketPtr> tickets);

  // Synchronous pool-routed analogue of Chain::call: submits a built
  // intent (make_intent at next_nonce) and pumps until its ticket
  // resolves.
  chain::Receipt call(TxIntent intent);

  // Next assignable nonce for `sender`: one past the highest queued
  // intent, or the chain nonce when nothing is queued.
  [[nodiscard]] std::uint64_t next_nonce(const chain::Address& sender) const;

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] chain::Chain& chain() { return chain_; }

 private:
  chain::Chain& chain_;
  Config cfg_;
  // Guards mempool_ (admission vs scheduling). Outermost level of the
  // lock order: submit() reads the chain nonce map (kChain) while
  // holding it, and admission fail-points (kFault) fire under it.
  mutable Mutex mu_{check::LockLevel::kTxPool, "txpool.mu_"};
  Mempool mempool_ ZKDET_GUARDED_BY(mu_);
  Scheduler scheduler_;
};

}  // namespace zkdet::txpool
