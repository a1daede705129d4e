#include "chain/nft.hpp"

#include <algorithm>
#include <set>

namespace zkdet::chain {

namespace {
// Equivalent flattened-bytecode size of the Solidity DataNFT (ERC-721 +
// provenance extensions); calibrated so deployment gas matches the
// paper's Table II (see DESIGN.md substitution #4).
constexpr std::size_t kNftCodeSize = 4839;

std::string slot_key(const char* field, std::uint64_t id) {
  return std::string(field) + "/" + std::to_string(id);
}
}  // namespace

const char* formula_name(Formula f) {
  switch (f) {
    case Formula::kGenesis: return "genesis";
    case Formula::kAggregation: return "aggregation";
    case Formula::kPartition: return "partition";
    case Formula::kDuplication: return "duplication";
    case Formula::kProcessing: return "processing";
  }
  return "?";
}

std::optional<TokenInfo> read_token(const SlotReader& read,
                                   std::uint64_t id) {
  const auto owner = read(slot_key("owner", id));
  if (!owner) return std::nullopt;
  TokenInfo t;
  t.id = id;
  t.owner = decode_address(*owner);
  t.uri = required_slot(read, slot_key("uri", id));
  t.data_commitment = required_slot(read, slot_key("datacm", id));
  t.key_commitment = required_slot(read, slot_key("keycm", id));
  if (const auto f = read(slot_key("formula", id))) {
    t.formula = static_cast<Formula>(slot_u64(*f));
  }
  if (const auto n = read(slot_key("prevn", id))) {
    for (std::uint64_t i = 0; i < slot_u64(*n); ++i) {
      t.prev_ids.push_back(slot_u64(required_slot(
          read, slot_key("prev", id) + "/" + std::to_string(i))));
    }
  }
  return t;
}

DataNft::DataNft() : Contract("DataNFT", kNftCodeSize) {}

std::optional<Address> DataNft::owner(CallContext& ctx,
                                      std::uint64_t token_id) const {
  const auto v = store().get(ctx, slot_key("owner", token_id));
  if (!v) return std::nullopt;
  return decode_address(*v);
}

std::uint64_t DataNft::mint(CallContext& ctx, const Fr& uri, const Fr& data_cm,
                            const Fr& key_cm) {
  const std::uint64_t id = store().get_u64(ctx, "count").value_or(0) + 1;
  store().set_u64(ctx, "count", id);
  store().set(ctx, slot_key("owner", id), encode_address(ctx.sender()));
  store().set(ctx, slot_key("uri", id), uri);
  store().set(ctx, slot_key("datacm", id), data_cm);
  store().set(ctx, slot_key("keycm", id), key_cm);
  const auto bal = store().get_u64(ctx, "balance/" + ctx.sender());
  store().set_u64(ctx, "balance/" + ctx.sender(), bal.value_or(0) + 1);
  ctx.emit(Event{"Mint",
                 {{"tokenId", std::to_string(id)}, {"owner", ctx.sender()}}});
  return id;
}

std::uint64_t DataNft::mint_derived(
    CallContext& ctx, const Fr& uri, const Fr& data_cm, const Fr& key_cm,
    Formula formula, const std::vector<std::uint64_t>& prev_ids) {
  ctx.require(!prev_ids.empty(), "derived token needs parents");
  const std::uint64_t id = mint(ctx, uri, data_cm, key_cm);
  record_transformation(ctx, id, formula, prev_ids);
  return id;
}

void DataNft::record_transformation(
    CallContext& ctx, std::uint64_t token_id, Formula formula,
    const std::vector<std::uint64_t>& prev_ids) {
  const auto own = owner(ctx, token_id);
  ctx.require(own.has_value(), "no such token");
  ctx.require(!prev_ids.empty(), "derived token needs parents");
  ctx.require(*own == ctx.sender(), "only the owner records");
  ctx.require(!store().get(ctx, slot_key("formula", token_id)).has_value(),
              "provenance already recorded");
  for (const std::uint64_t p : prev_ids) {
    const auto parent_owner = owner(ctx, p);
    ctx.require(parent_owner.has_value(), "parent does not exist");
    ctx.require(*parent_owner == ctx.sender(),
                "caller does not own parent token");
    ctx.require(p != token_id, "token cannot be its own parent");
  }
  store().set_u64(ctx, slot_key("prevn", token_id), prev_ids.size());
  for (std::size_t i = 0; i < prev_ids.size(); ++i) {
    store().set_u64(ctx, slot_key("prev", token_id) + "/" + std::to_string(i),
                    prev_ids[i]);
  }
  store().set_u64(ctx, slot_key("formula", token_id),
                  static_cast<std::uint64_t>(formula));
  ctx.emit(Event{"Transformation",
                 {{"tokenId", std::to_string(token_id)},
                  {"formula", formula_name(formula)}}});
}

void DataNft::transfer_from(CallContext& ctx, const Address& from,
                            const Address& to, std::uint64_t token_id) {
  const auto own = owner(ctx, token_id);
  ctx.require(own.has_value(), "no such token");
  ctx.require(*own == from, "from is not the owner");
  const std::string approved_key = slot_key("approved", token_id);
  const auto approved = store().get(ctx, approved_key);
  const bool authorized =
      ctx.sender() == from ||
      (approved.has_value() && *approved == encode_address(ctx.sender()));
  ctx.require(authorized, "caller not authorized");

  store().set(ctx, slot_key("owner", token_id), encode_address(to));
  if (approved) store().erase(ctx, approved_key);
  const auto bf = store().get_u64(ctx, "balance/" + from);
  store().set_u64(ctx, "balance/" + from, bf.value_or(1) - 1);
  const auto bt = store().get_u64(ctx, "balance/" + to);
  store().set_u64(ctx, "balance/" + to, bt.value_or(0) + 1);
  ctx.emit(Event{"Transfer",
                 {{"tokenId", std::to_string(token_id)},
                  {"from", from},
                  {"to", to}}});
}

void DataNft::approve(CallContext& ctx, const Address& to,
                      std::uint64_t token_id) {
  const auto own = owner(ctx, token_id);
  ctx.require(own.has_value(), "no such token");
  ctx.require(*own == ctx.sender(), "only owner can approve");
  store().set(ctx, slot_key("approved", token_id), encode_address(to));
  ctx.emit(Event{"Approval",
                 {{"tokenId", std::to_string(token_id)}, {"approved", to}}});
}

void DataNft::burn(CallContext& ctx, std::uint64_t token_id) {
  const auto own = owner(ctx, token_id);
  ctx.require(own.has_value(), "no such token");
  ctx.require(*own == ctx.sender(), "only owner can burn");
  store().erase(ctx, slot_key("owner", token_id));
  store().erase(ctx, slot_key("uri", token_id));
  store().erase(ctx, slot_key("datacm", token_id));
  store().erase(ctx, slot_key("keycm", token_id));
  const std::string approved_key = slot_key("approved", token_id);
  if (store().get(ctx, approved_key)) store().erase(ctx, approved_key);
  const auto bal = store().get_u64(ctx, "balance/" + ctx.sender());
  store().set_u64(ctx, "balance/" + ctx.sender(), bal.value_or(1) - 1);
  ctx.emit(Event{"Burn", {{"tokenId", std::to_string(token_id)}}});
}

Address DataNft::owner_of(CallContext& ctx, std::uint64_t token_id) const {
  const auto own = owner(ctx, token_id);
  if (!own) throw Revert("no such token");
  return *own;
}

std::optional<TokenInfo> DataNft::token(std::uint64_t token_id) const {
  return read_token(store().committed(), token_id);
}

std::uint64_t DataNft::total_minted() const {
  const auto count = store().peek("count");
  return count ? slot_u64(*count) : 0;
}

bool DataNft::exists(std::uint64_t token_id) const {
  return store().peek(slot_key("owner", token_id)).has_value();
}

std::vector<std::uint64_t> DataNft::provenance(std::uint64_t token_id) const {
  const SlotReader read = store().committed();
  std::vector<std::uint64_t> order;
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> stack{token_id};
  while (!stack.empty()) {
    const std::uint64_t cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    const auto info = read_token(read, cur);
    if (!info) continue;
    if (cur != token_id) order.push_back(cur);
    for (const std::uint64_t p : info->prev_ids) stack.push_back(p);
  }
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace zkdet::chain
