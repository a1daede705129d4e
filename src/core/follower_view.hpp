// Follower-served exchange status queries.
//
// A replication follower holds a ledger::ReplayImage — block history,
// balances and contract KV slots — but no live Contract objects: the
// follower never executes, it only folds verified records. Contract
// slots are the only copy of contract state, so this view answers the
// read-side queries exchange clients actually issue (exchange status by
// id, recovery lookup by h_v, balances) by decoding the image's
// KeySecureArbiter slots with the same chain::read_exchange the primary
// uses.
//
// Prefix-consistency guarantee: the follower applies records atomically
// between pumps, so every answer this view returns is the primary's
// state as of some block the primary actually sealed — a stale prefix,
// never a mix of two states and never a state the primary's chain
// never had. The replication tests assert this invariant mid-catch-up.
#pragma once

#include <cstdint>
#include <optional>

#include "chain/arbiter.hpp"
#include "replication/follower.hpp"

namespace zkdet::core {

class FollowerReadView {
 public:
  explicit FollowerReadView(const replication::Follower& follower)
      : follower_(follower) {}

  // KeySecureArbiter-compatible reads (any shard; ids are global).
  [[nodiscard]] std::optional<chain::ExchangeInfo> exchange(
      std::uint64_t id) const;
  [[nodiscard]] std::optional<chain::ExchangeInfo> find_by_hv(
      const chain::Fr& h_v) const;

  [[nodiscard]] std::uint64_t height() const;
  [[nodiscard]] std::uint64_t balance(const chain::Address& addr) const;

 private:
  const replication::Follower& follower_;
};

}  // namespace zkdet::core
