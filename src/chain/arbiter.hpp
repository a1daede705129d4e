// Exchange arbiter contracts.
//
// KeySecureArbiter — the paper's key-secure two-phase protocol (IV-F):
// the buyer locks payment together with h_v = H(k_v); the seller settles
// by publishing k_c = k + k_v and a Plonk proof pi_k that
//   Open(k, c, o) = 1  AND  h_v = H(k_v)  AND  k_c = k + k_v
// against the key commitment c recorded in the token. The contract
// verifies pi_k on-chain and forwards the payment; k itself never
// touches the chain — only the blinded k_c does.
//
// ZkcpArbiter — the classic ZKCP Open phase (paper III-C), kept as the
// baseline: the seller must reveal k on-chain to redeem the payment,
// which leaks k to everyone (the vulnerability IV-F fixes). Tests and
// examples use it to demonstrate the paper's critique.
#pragma once

#include "chain/chain.hpp"
#include "chain/verifier_contract.hpp"

namespace zkdet::chain {

enum class ExchangeState : std::uint8_t {
  kNone = 0,
  kLocked = 1,
  kSettled = 2,
  kRefunded = 3,
};

// Every contract field lives in the contract's MeteredStore, one slot
// per field under a per-record prefix (xc/<id>/, zkcp/<id>/), plus one
// "next_id" counter slot per contract. The read_* functions are the one
// decoder of each record kind, over any SlotReader.

struct ExchangeInfo {
  std::uint64_t id = 0;
  Address buyer;
  Address seller;
  std::uint64_t amount = 0;
  Fr h_v;             // H(k_v) chosen by the buyer
  Fr key_commitment;  // c from the token being bought
  Fr k_c;             // published by the seller at settlement
  std::uint64_t deadline = 0;
  ExchangeState state = ExchangeState::kNone;
};

// Decodes exchange `id` from KeySecureArbiter slots (nullopt = no lock
// created it).
[[nodiscard]] std::optional<ExchangeInfo> read_exchange(const SlotReader& read,
                                                        std::uint64_t id);

// The exchange whose h_v slot holds `h_v` among one KeySecureArbiter's
// slots (committed storage or a follower image), if any.
[[nodiscard]] std::optional<ExchangeInfo> find_exchange_by_hv(
    const std::map<std::string, Fr>& slots, const Fr& h_v);

class KeySecureArbiter : public Contract {
 public:
  static constexpr std::string_view kName = "KeySecureArbiter";

  // `verifier` must hold the verifying key of the pi_k circuit, whose
  // public inputs are ordered (k_c, c, h_v).
  //
  // Sharding (ZkdetSystem deploys S instances to parallelize escrow
  // flows across token ids): shard s of S uses (first_id = s + 1,
  // stride = S), so ids stay globally unique across shards and
  // shard-of-exchange is recoverable as (id - 1) % S. The default
  // (1, 1) is a single unsharded arbiter — the pre-sharding behavior.
  explicit KeySecureArbiter(const PlonkVerifierContract& verifier,
                            std::uint64_t first_id = 1,
                            std::uint64_t stride = 1);

  // Buyer escrows `ctx.value()` against seller; the exchange can be
  // refunded after `timeout_blocks` if the seller never settles.
  std::uint64_t lock(CallContext& ctx, const Address& seller, const Fr& h_v,
                     const Fr& key_commitment, std::uint64_t timeout_blocks);

  // Seller publishes (k_c, pi_k); on valid proof the payment transfers.
  void settle(CallContext& ctx, std::uint64_t exchange_id, const Fr& k_c,
              const plonk::Proof& proof_k);

  // Buyer reclaims funds after the deadline.
  void refund(CallContext& ctx, std::uint64_t exchange_id);

  [[nodiscard]] std::optional<ExchangeInfo> exchange(std::uint64_t id) const;

  // Off-chain lookup by the buyer's h_v (unique per session because k_v
  // is drawn fresh). This is how a crashed buyer client that persisted
  // only its session secrets re-discovers its exchange id from public
  // chain state (ExchangeDriver recovery).
  [[nodiscard]] std::optional<ExchangeInfo> find_by_hv(const Fr& h_v) const;

 private:
  const PlonkVerifierContract& verifier_;
  std::uint64_t first_id_;
  std::uint64_t stride_;
};

struct ZkcpExchangeInfo {
  std::uint64_t id = 0;
  Address buyer;
  Address seller;
  std::uint64_t amount = 0;
  Fr key_hash;       // H(k)
  Fr revealed_key;   // k, publicly readable after Open (the leak)
  bool key_revealed = false;
  ExchangeState state = ExchangeState::kNone;
};

[[nodiscard]] std::optional<ZkcpExchangeInfo> read_zkcp_exchange(
    const SlotReader& read, std::uint64_t id);

class ZkcpArbiter : public Contract {
 public:
  ZkcpArbiter();

  std::uint64_t lock(CallContext& ctx, const Address& seller,
                     const Fr& key_hash);
  // The seller reveals k; the contract checks H(k) == key_hash (Poseidon)
  // and pays out. k becomes part of public contract state.
  void open(CallContext& ctx, std::uint64_t exchange_id, const Fr& key);

  [[nodiscard]] std::optional<ZkcpExchangeInfo> exchange(
      std::uint64_t id) const;

  // What any third party can read off the chain after settlement.
  [[nodiscard]] std::optional<Fr> leaked_key(std::uint64_t id) const;
};

}  // namespace zkdet::chain
