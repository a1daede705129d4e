#include "chain/auction.hpp"

namespace zkdet::chain {

namespace {
constexpr std::size_t kAuctionCodeSize = 2100;
const std::string kNextId = "next_id";

std::string auction_prefix(std::uint64_t id) {
  return "auction/" + std::to_string(id) + "/";
}

std::uint64_t price_at(const AuctionInfo& a, std::uint64_t height) {
  const std::uint64_t elapsed =
      height > a.start_block ? height - a.start_block : 0;
  const std::uint64_t decayed = a.decay_per_block * elapsed;
  if (a.start_price < a.floor_price + decayed) return a.floor_price;
  return a.start_price - decayed;
}
}  // namespace

std::optional<AuctionInfo> read_auction(const SlotReader& read,
                                        std::uint64_t id) {
  const std::string p = auction_prefix(id);
  const auto open = read(p + "open");
  if (!open) return std::nullopt;
  AuctionInfo a;
  a.id = id;
  a.open = slot_u64(*open) != 0;
  a.token_id = slot_u64(required_slot(read, p + "token"));
  a.seller = decode_address(required_slot(read, p + "seller"));
  a.start_price = slot_u64(required_slot(read, p + "start"));
  a.floor_price = slot_u64(required_slot(read, p + "floor"));
  a.decay_per_block = slot_u64(required_slot(read, p + "decay"));
  a.start_block = slot_u64(required_slot(read, p + "startblock"));
  if (const auto w = read(p + "winner")) a.winner = decode_address(*w);
  if (const auto price = read(p + "settled")) a.settle_price = slot_u64(*price);
  return a;
}

ClockAuction::ClockAuction(DataNft& nft)
    : Contract("ClockAuction", kAuctionCodeSize), nft_(nft) {}

std::uint64_t ClockAuction::create(CallContext& ctx, std::uint64_t token_id,
                                   std::uint64_t start_price,
                                   std::uint64_t floor_price,
                                   std::uint64_t decay_per_block) {
  ctx.require(start_price >= floor_price, "start below floor");
  const Address seller = ctx.sender();
  ctx.require(nft_.owner_of(ctx, token_id) == seller, "not the token owner");
  // Escrow the token (requires prior approval of this contract).
  nft_.transfer_from(ctx, seller, address(), token_id);

  const std::uint64_t id = store().get_u64(ctx, kNextId).value_or(1);
  store().set_u64(ctx, kNextId, id + 1);
  const std::string p = auction_prefix(id);
  store().set_u64(ctx, p + "token", token_id);
  store().set(ctx, p + "seller", encode_address(seller));
  store().set_u64(ctx, p + "start", start_price);
  store().set_u64(ctx, p + "floor", floor_price);
  store().set_u64(ctx, p + "decay", decay_per_block);
  store().set_u64(ctx, p + "startblock", ctx.block_height());
  store().set_u64(ctx, p + "open", 1);
  ctx.emit(Event{"AuctionCreated",
                 {{"auctionId", std::to_string(id)},
                  {"tokenId", std::to_string(token_id)},
                  {"seller", seller},
                  {"startPrice", std::to_string(start_price)},
                  {"floorPrice", std::to_string(floor_price)},
                  {"decayPerBlock", std::to_string(decay_per_block)}}});
  return id;
}

std::uint64_t ClockAuction::current_price(std::uint64_t auction_id,
                                          std::uint64_t height) const {
  const auto a = read_auction(store().committed(), auction_id);
  return a ? price_at(*a, height) : 0;
}

void ClockAuction::bid(CallContext& ctx, std::uint64_t auction_id) {
  const auto a = read_auction(store().metered(ctx), auction_id);
  ctx.require(a.has_value(), "no such auction");
  ctx.require(a->open, "auction closed");
  const std::uint64_t price = price_at(*a, ctx.block_height());
  ctx.require(ctx.value() >= price, "bid below current clock price");

  // Hand over the token first (checks may still revert), then move money.
  const Address bidder = ctx.sender();
  {
    CallContext::SenderScope as_contract(ctx, address());
    nft_.transfer_from(ctx, address(), bidder, a->token_id);
  }
  // Forward the escrowed payment to the seller; refund any overshoot.
  ctx.chain().transfer(address(), a->seller, price);
  if (ctx.value() > price) {
    ctx.chain().transfer(address(), bidder, ctx.value() - price);
  }

  const std::string p = auction_prefix(auction_id);
  store().set_u64(ctx, p + "open", 0);
  store().set(ctx, p + "winner", encode_address(bidder));
  store().set_u64(ctx, p + "settled", price);
  ctx.emit(Event{"AuctionSettled",
                 {{"auctionId", std::to_string(auction_id)},
                  {"winner", bidder},
                  {"price", std::to_string(price)}}});
}

void ClockAuction::cancel(CallContext& ctx, std::uint64_t auction_id) {
  const auto a = read_auction(store().metered(ctx), auction_id);
  ctx.require(a.has_value(), "no such auction");
  ctx.require(a->open, "auction closed");
  ctx.require(a->seller == ctx.sender(), "only seller may cancel");
  {
    CallContext::SenderScope as_contract(ctx, address());
    nft_.transfer_from(ctx, address(), a->seller, a->token_id);
  }
  store().set_u64(ctx, auction_prefix(auction_id) + "open", 0);
  ctx.emit(Event{"AuctionCancelled",
                 {{"auctionId", std::to_string(auction_id)}}});
}

std::optional<AuctionInfo> ClockAuction::auction(std::uint64_t id) const {
  return read_auction(store().committed(), id);
}

}  // namespace zkdet::chain
