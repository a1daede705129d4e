#include "chain/arbiter.hpp"

#include "crypto/poseidon.hpp"

namespace zkdet::chain {

namespace {
constexpr std::size_t kKeySecureCodeSize = 2600;
constexpr std::size_t kZkcpCodeSize = 1400;
// Next exchange id to assign (absent = the contract's first id).
const std::string kNextId = "next_id";

std::string exchange_prefix(std::uint64_t id) {
  return "xc/" + std::to_string(id) + "/";
}

std::string zkcp_prefix(std::uint64_t id) {
  return "zkcp/" + std::to_string(id) + "/";
}
}  // namespace

std::optional<ExchangeInfo> read_exchange(const SlotReader& read,
                                          std::uint64_t id) {
  const std::string p = exchange_prefix(id);
  const auto state = read(p + "state");
  if (!state) return std::nullopt;
  ExchangeInfo x;
  x.id = id;
  x.state = static_cast<ExchangeState>(slot_u64(*state));
  x.buyer = decode_address(required_slot(read, p + "buyer"));
  x.seller = decode_address(required_slot(read, p + "seller"));
  x.amount = slot_u64(required_slot(read, p + "amount"));
  x.h_v = required_slot(read, p + "hv");
  x.key_commitment = required_slot(read, p + "c");
  x.k_c = read(p + "kc").value_or(Fr::zero());
  x.deadline = slot_u64(required_slot(read, p + "deadline"));
  return x;
}

std::optional<ExchangeInfo> find_exchange_by_hv(
    const std::map<std::string, Fr>& slots, const Fr& h_v) {
  constexpr std::string_view kHead = "xc/";
  constexpr std::string_view kTail = "/hv";
  for (const auto& [key, value] : slots) {
    if (value != h_v || !key.starts_with(kHead) || !key.ends_with(kTail)) {
      continue;
    }
    const std::uint64_t id = std::stoull(
        key.substr(kHead.size(), key.size() - kHead.size() - kTail.size()));
    return read_exchange(slot_reader(slots), id);
  }
  return std::nullopt;
}

KeySecureArbiter::KeySecureArbiter(const PlonkVerifierContract& verifier,
                                   std::uint64_t first_id,
                                   std::uint64_t stride)
    : Contract(std::string(kName), kKeySecureCodeSize),
      verifier_(verifier),
      first_id_(first_id),
      stride_(stride == 0 ? 1 : stride) {}

std::uint64_t KeySecureArbiter::lock(CallContext& ctx, const Address& seller,
                                     const Fr& h_v, const Fr& key_commitment,
                                     std::uint64_t timeout_blocks) {
  ctx.require(ctx.value() > 0, "payment required");
  const std::uint64_t id = store().get_u64(ctx, kNextId).value_or(first_id_);
  store().set_u64(ctx, kNextId, id + stride_);
  const std::string p = exchange_prefix(id);
  const std::uint64_t deadline = ctx.block_height() + timeout_blocks;
  store().set(ctx, p + "buyer", encode_address(ctx.sender()));
  store().set(ctx, p + "seller", encode_address(seller));
  store().set_u64(ctx, p + "amount", ctx.value());
  store().set(ctx, p + "hv", h_v);
  store().set(ctx, p + "c", key_commitment);
  store().set_u64(ctx, p + "deadline", deadline);
  store().set_u64(ctx, p + "state",
                  static_cast<std::uint64_t>(ExchangeState::kLocked));
  ctx.emit(Event{"PaymentLocked",
                 {{"exchangeId", std::to_string(id)},
                  {"buyer", ctx.sender()},
                  {"seller", seller},
                  {"amount", std::to_string(ctx.value())},
                  {"deadline", std::to_string(deadline)}}});
  return id;
}

void KeySecureArbiter::settle(CallContext& ctx, std::uint64_t exchange_id,
                              const Fr& k_c, const plonk::Proof& proof_k) {
  const auto x = read_exchange(store().metered(ctx), exchange_id);
  ctx.require(x.has_value(), "no such exchange");
  ctx.require(x->state == ExchangeState::kLocked, "exchange not open");
  ctx.require(ctx.sender() == x->seller, "only the seller settles");

  // Public inputs of the pi_k relation: (k_c, c, h_v).
  const bool ok =
      verifier_.verify(ctx, {k_c, x->key_commitment, x->h_v}, proof_k);
  ctx.require(ok, "invalid key proof");

  const std::string p = exchange_prefix(exchange_id);
  store().set(ctx, p + "kc", k_c);
  store().set_u64(ctx, p + "state",
                  static_cast<std::uint64_t>(ExchangeState::kSettled));
  ctx.chain().transfer(address(), x->seller, x->amount);
  ctx.emit(Event{"ExchangeSettled",
                 {{"exchangeId", std::to_string(exchange_id)},
                  {"seller", x->seller}}});
}

void KeySecureArbiter::refund(CallContext& ctx, std::uint64_t exchange_id) {
  const auto x = read_exchange(store().metered(ctx), exchange_id);
  ctx.require(x.has_value(), "no such exchange");
  ctx.require(x->state == ExchangeState::kLocked, "exchange not open");
  ctx.require(ctx.sender() == x->buyer, "only the buyer refunds");
  ctx.require(ctx.block_height() > x->deadline, "deadline not reached");
  store().set_u64(ctx, exchange_prefix(exchange_id) + "state",
                  static_cast<std::uint64_t>(ExchangeState::kRefunded));
  ctx.chain().transfer(address(), x->buyer, x->amount);
  ctx.emit(Event{"ExchangeRefunded",
                 {{"exchangeId", std::to_string(exchange_id)}}});
}

std::optional<ExchangeInfo> KeySecureArbiter::exchange(
    std::uint64_t id) const {
  return read_exchange(store().committed(), id);
}

std::optional<ExchangeInfo> KeySecureArbiter::find_by_hv(const Fr& h_v) const {
  return find_exchange_by_hv(store().peek_all(), h_v);
}

// --- ZKCP baseline ---

std::optional<ZkcpExchangeInfo> read_zkcp_exchange(const SlotReader& read,
                                                   std::uint64_t id) {
  const std::string p = zkcp_prefix(id);
  const auto state = read(p + "state");
  if (!state) return std::nullopt;
  ZkcpExchangeInfo x;
  x.id = id;
  x.state = static_cast<ExchangeState>(slot_u64(*state));
  x.buyer = decode_address(required_slot(read, p + "buyer"));
  x.seller = decode_address(required_slot(read, p + "seller"));
  x.amount = slot_u64(required_slot(read, p + "amount"));
  x.key_hash = required_slot(read, p + "h");
  if (const auto key = read(p + "key")) {
    x.revealed_key = *key;
    x.key_revealed = true;
  }
  return x;
}

ZkcpArbiter::ZkcpArbiter() : Contract("ZkcpArbiter", kZkcpCodeSize) {}

std::uint64_t ZkcpArbiter::lock(CallContext& ctx, const Address& seller,
                                const Fr& key_hash) {
  ctx.require(ctx.value() > 0, "payment required");
  const std::uint64_t id = store().get_u64(ctx, kNextId).value_or(1);
  store().set_u64(ctx, kNextId, id + 1);
  const std::string p = zkcp_prefix(id);
  store().set(ctx, p + "buyer", encode_address(ctx.sender()));
  store().set(ctx, p + "seller", encode_address(seller));
  store().set_u64(ctx, p + "amount", ctx.value());
  store().set(ctx, p + "h", key_hash);
  store().set_u64(ctx, p + "state",
                  static_cast<std::uint64_t>(ExchangeState::kLocked));
  ctx.emit(Event{"ZkcpPaymentLocked",
                 {{"exchangeId", std::to_string(id)},
                  {"buyer", ctx.sender()},
                  {"seller", seller},
                  {"amount", std::to_string(ctx.value())}}});
  return id;
}

void ZkcpArbiter::open(CallContext& ctx, std::uint64_t exchange_id,
                       const Fr& key) {
  const auto x = read_zkcp_exchange(store().metered(ctx), exchange_id);
  ctx.require(x.has_value(), "no such exchange");
  ctx.require(x->state == ExchangeState::kLocked, "exchange not open");
  ctx.require(ctx.sender() == x->seller, "only the seller opens");
  const Fr h = crypto::poseidon_hash({key}, /*domain_tag=*/0x6b6579);  // "key"
  ctx.require(h == x->key_hash, "key does not match hash");
  // The key is now part of public chain state — anyone can decrypt the
  // publicly stored ciphertext. This is exactly the flaw the key-secure
  // protocol removes.
  const std::string p = zkcp_prefix(exchange_id);
  store().set(ctx, p + "key", key);
  store().set_u64(ctx, p + "state",
                  static_cast<std::uint64_t>(ExchangeState::kSettled));
  ctx.chain().transfer(address(), x->seller, x->amount);
  ctx.emit(Event{"ZkcpKeyRevealed",
                 {{"exchangeId", std::to_string(exchange_id)},
                  {"seller", x->seller}}});
}

std::optional<ZkcpExchangeInfo> ZkcpArbiter::exchange(std::uint64_t id) const {
  return read_zkcp_exchange(store().committed(), id);
}

std::optional<Fr> ZkcpArbiter::leaked_key(std::uint64_t id) const {
  return store().peek(zkcp_prefix(id) + "key");
}

}  // namespace zkdet::chain
