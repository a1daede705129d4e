// Clock (descending-price / Dutch) auction for data tokens (paper III-C:
// "S launches a clock auction which locks its token for sale").
//
// The seller escrows the token in the auction contract; the ask price
// decays per block from start_price to floor_price. The first bid at or
// above the current price wins: the token moves to the bidder and the
// payment to the seller. The seller can cancel an unsold auction and
// reclaim the token.
#pragma once

#include "chain/chain.hpp"
#include "chain/nft.hpp"

namespace zkdet::chain {

// An auction's fields live in slots under auction/<id>/ (token,
// seller, start, floor, decay, startblock, open; winner and settled
// once sold), next to the contract's "next_id" counter.
struct AuctionInfo {
  std::uint64_t id = 0;
  std::uint64_t token_id = 0;
  Address seller;
  std::uint64_t start_price = 0;
  std::uint64_t floor_price = 0;
  std::uint64_t decay_per_block = 0;
  std::uint64_t start_block = 0;
  bool open = false;
  Address winner;
  std::uint64_t settle_price = 0;
};

// The one decoder of an auction record (nullopt = never created).
[[nodiscard]] std::optional<AuctionInfo> read_auction(const SlotReader& read,
                                                      std::uint64_t id);

class ClockAuction : public Contract {
 public:
  explicit ClockAuction(DataNft& nft);

  // Seller must have approved the auction contract for `token_id`.
  std::uint64_t create(CallContext& ctx, std::uint64_t token_id,
                       std::uint64_t start_price, std::uint64_t floor_price,
                       std::uint64_t decay_per_block);

  [[nodiscard]] std::uint64_t current_price(std::uint64_t auction_id,
                                            std::uint64_t height) const;

  // Buyer calls with value >= current price (value escrowed to this
  // contract by the chain runtime; forwarded to the seller here).
  void bid(CallContext& ctx, std::uint64_t auction_id);

  void cancel(CallContext& ctx, std::uint64_t auction_id);

  [[nodiscard]] std::optional<AuctionInfo> auction(std::uint64_t id) const;

 private:
  DataNft& nft_;
};

}  // namespace zkdet::chain
