#include "core/follower_view.hpp"

namespace zkdet::core {

std::optional<chain::ExchangeInfo> FollowerReadView::exchange(
    std::uint64_t id) const {
  for (const auto& [addr, rc] : follower_.image().contracts) {
    if (rc.name != chain::KeySecureArbiter::kName) continue;
    if (auto x = chain::read_exchange(chain::slot_reader(rc.slots), id)) {
      return x;
    }
  }
  return std::nullopt;
}

std::optional<chain::ExchangeInfo> FollowerReadView::find_by_hv(
    const chain::Fr& h_v) const {
  for (const auto& [addr, rc] : follower_.image().contracts) {
    if (rc.name != chain::KeySecureArbiter::kName) continue;
    if (auto x = chain::find_exchange_by_hv(rc.slots, h_v)) return x;
  }
  return std::nullopt;
}

std::uint64_t FollowerReadView::height() const {
  return follower_.image().height();
}

std::uint64_t FollowerReadView::balance(const chain::Address& addr) const {
  const auto& balances = follower_.image().balances;
  const auto it = balances.find(addr);
  return it == balances.end() ? 0 : it->second;
}

}  // namespace zkdet::core
