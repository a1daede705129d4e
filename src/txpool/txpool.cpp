#include "txpool/txpool.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "runtime/stats.hpp"

namespace zkdet::txpool {

TxIntent make_intent(const crypto::KeyPair& sender, std::uint64_t nonce,
                     std::string description,
                     std::function<void(chain::CallContext&)> fn,
                     AccessSet access, std::uint64_t value,
                     chain::Address pay_to, std::uint64_t gas_limit,
                     std::uint64_t priority,
                     std::shared_ptr<const chain::ProofClaim> claim) {
  TxIntent in;
  in.tx.sender = crypto::address_of(sender.pk);
  in.tx.nonce = nonce;
  in.tx.sig = chain::Chain::sign_tx(sender, description, nonce);
  in.tx.description = std::move(description);
  in.tx.fn = std::move(fn);
  in.tx.value = value;
  in.tx.pay_to = std::move(pay_to);
  in.tx.gas_limit = gas_limit;
  in.tx.claim = std::move(claim);
  in.access = std::move(access);
  in.priority = priority;
  return in;
}

TxPool::TxPool(chain::Chain& chain, Config cfg)
    : chain_(chain),
      cfg_(cfg),
      mempool_(cfg.capacity),
      scheduler_(cfg.max_batch) {}

SubmitResult TxPool::submit(TxIntent intent) {
  SubmitResult out;
  // Same drop semantics as the direct path: the tx never reaches the
  // sequencer, the caller retries or surfaces the error.
  if (fault::fire(fault::points::kChainSubmit)) {
    runtime::counters::txpool_rejected.fetch_add(1, std::memory_order_relaxed);
    out.error = "injected: tx dropped before submission";
    return out;
  }
  TicketPtr replaced;
  {
    const MutexLock lk(mu_);
    if (fault::fire(fault::points::kTxpoolAdmitFull) ||
        mempool_.size() >= mempool_.capacity()) {
      runtime::counters::txpool_rejected.fetch_add(1,
                                                   std::memory_order_relaxed);
      out.error = "txpool: admission queue full";
      return out;
    }
    const std::uint64_t chain_nonce = chain_.account_nonce(intent.tx.sender);
    PendingTx tx;
    tx.intent = std::move(intent);
    tx.ticket = std::make_shared<Ticket>();
    out.ticket = tx.ticket;
    auto res = mempool_.admit(std::move(tx), chain_nonce);
    if (!res.accepted) {
      runtime::counters::txpool_rejected.fetch_add(1,
                                                   std::memory_order_relaxed);
      out.ticket.reset();
      out.error = std::move(res.error);
      return out;
    }
    replaced = std::move(res.replaced_ticket);
    runtime::counters::txpool_submitted.fetch_add(1,
                                                  std::memory_order_relaxed);
    runtime::counters::txpool_queue_depth.store(mempool_.size(),
                                                std::memory_order_relaxed);
  }
  if (replaced) {
    runtime::counters::txpool_replaced.fetch_add(1, std::memory_order_relaxed);
    chain::Receipt r;
    r.error = "txpool: replaced by a higher-priority resubmission";
    replaced->resolve(std::move(r));
  }
  out.accepted = true;
  return out;
}

std::size_t TxPool::seal_next_batch() {
  BatchPlan plan;
  {
    const MutexLock lk(mu_);
    plan = scheduler_.plan(mempool_, [this](const chain::Address& a) {
      return chain_.account_nonce(a);
    });
    runtime::counters::txpool_queue_depth.store(mempool_.size(),
                                                std::memory_order_relaxed);
  }
  for (auto& tx : plan.stale) {
    chain::Receipt r;
    r.error = "txpool: stale nonce (replay rejected)";
    tx.ticket->resolve(std::move(r));
  }
  if (plan.txs.empty()) return 0;

  std::vector<AccessPolicy> policies;
  policies.reserve(plan.txs.size());
  std::vector<chain::BatchTx> batch;
  batch.reserve(plan.txs.size());
  for (PendingTx& tx : plan.txs) {
    policies.emplace_back(tx.intent.access);
    batch.push_back(std::move(tx.intent.tx));
    // reserve() above keeps &policies.back() stable.
    if (!tx.intent.access.undeclared()) batch.back().policy = &policies.back();
  }

  const auto receipts = chain_.execute_batch(batch, cfg_.parallel);
  runtime::counters::txpool_batches_sealed.fetch_add(
      1, std::memory_order_relaxed);
  runtime::counters::txpool_txs_executed.fetch_add(batch.size(),
                                                   std::memory_order_relaxed);
  for (std::size_t i = 0; i < plan.txs.size(); ++i) {
    plan.txs[i].ticket->resolve(receipts[i]);
  }
  return plan.txs.size();
}

std::size_t TxPool::drain() {
  std::size_t total = 0;
  // Bounded by pool contents: each round seals >= 1 tx or exits.
  for (;;) {  // zkdet-lint: allow(unbounded-retry)
    const std::size_t n = seal_next_batch();
    if (n == 0) return total;
    total += n;
  }
}

void TxPool::await(std::span<const TicketPtr> tickets) {
  const auto all_done = [&] {
    return std::all_of(tickets.begin(), tickets.end(),
                       [](const TicketPtr& t) { return t->done(); });
  };
  std::size_t rounds = pending() + 2;
  while (!all_done() && rounds-- > 0) {
    if (seal_next_batch() == 0 && !all_done()) break;
  }
}

chain::Receipt TxPool::call(TxIntent intent) {
  auto res = submit(std::move(intent));
  if (!res.accepted) {
    chain::Receipt r;
    r.error = std::move(res.error);
    return r;
  }
  await({&res.ticket, 1});
  if (!res.ticket->done()) {
    chain::Receipt r;
    r.error = "txpool: tx not schedulable (nonce gap)";
    return r;
  }
  return res.ticket->receipt;
}

std::uint64_t TxPool::next_nonce(const chain::Address& sender) const {
  const MutexLock lk(mu_);
  if (const auto hi = mempool_.highest_nonce(sender)) return *hi + 1;
  return chain_.account_nonce(sender);
}

std::size_t TxPool::pending() const {
  const MutexLock lk(mu_);
  return mempool_.size();
}

}  // namespace zkdet::txpool
