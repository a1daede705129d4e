#include "txpool/mempool.hpp"

#include "chain/chain.hpp"

namespace zkdet::txpool {

Mempool::AdmitResult Mempool::admit(PendingTx tx, std::uint64_t chain_nonce) {
  AdmitResult out;
  const TxIntent& in = tx.intent;
  if (in.tx.nonce < chain_nonce) {
    out.error = "txpool: stale nonce (replay rejected)";
    return out;
  }
  auto& q = queues_[in.tx.sender];
  if (const auto it = q.find(in.tx.nonce); it != q.end()) {
    if (in.priority <= it->second.intent.priority) {
      if (q.empty()) queues_.erase(in.tx.sender);
      out.error = "txpool: replacement underpriced";
      return out;
    }
    out.replaced_ticket = std::move(it->second.ticket);
    it->second = std::move(tx);
    out.accepted = true;
    return out;
  }
  if (size_ >= capacity_) {
    if (q.empty()) queues_.erase(in.tx.sender);
    out.error = "txpool: admission queue full";
    return out;
  }
  q.emplace(in.tx.nonce, std::move(tx));
  ++size_;
  out.accepted = true;
  return out;
}

PendingTx Mempool::pop(const chain::Address& sender, std::uint64_t nonce) {
  const auto qit = queues_.find(sender);
  if (qit == queues_.end()) throw chain::Revert("mempool: unknown sender");
  const auto it = qit->second.find(nonce);
  if (it == qit->second.end()) throw chain::Revert("mempool: unknown nonce");
  PendingTx tx = std::move(it->second);
  qit->second.erase(it);
  if (qit->second.empty()) queues_.erase(qit);
  --size_;
  return tx;
}

std::vector<PendingTx> Mempool::drop_stale(const chain::Address& sender,
                                           std::uint64_t chain_nonce) {
  std::vector<PendingTx> dropped;
  const auto qit = queues_.find(sender);
  if (qit == queues_.end()) return dropped;
  auto& q = qit->second;
  while (!q.empty() && q.begin()->first < chain_nonce) {
    dropped.push_back(std::move(q.begin()->second));
    q.erase(q.begin());
    --size_;
  }
  if (q.empty()) queues_.erase(qit);
  return dropped;
}

std::optional<std::uint64_t> Mempool::highest_nonce(
    const chain::Address& sender) const {
  const auto qit = queues_.find(sender);
  if (qit == queues_.end() || qit->second.empty()) return std::nullopt;
  return qit->second.rbegin()->first;
}

}  // namespace zkdet::txpool
