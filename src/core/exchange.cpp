#include "core/exchange.hpp"

#include "chain/claim.hpp"
#include "crypto/mimc.hpp"
#include "fault/fault.hpp"
#include "fault/points.hpp"

namespace zkdet::core {

namespace {

// Key names of the exchange proofs. The prover and the verifier both
// derive them (n is the dataset length, which the verifier reads off the
// stored ciphertext); an offer or sample never carries one.
std::string pi_p_shape(const std::string& predicate_tag, std::size_t n) {
  return "pi_p/" + predicate_tag + "/" + std::to_string(n);
}

std::string pi_s_shape(std::size_t n, std::size_t index) {
  return "pi_s/" + std::to_string(n) + "/" + std::to_string(index);
}

}  // namespace

std::optional<Offer> KeySecureExchange::make_offer(
    const OwnedAsset& asset, const Predicate& phi,
    const std::string& predicate_tag) {
  gadgets::CircuitBuilder bld = build_exchange_data_circuit(
      asset.plain, asset.key, asset.nonce, asset.data_blinder, phi);
  auto proof = sys_.prove(pi_p_shape(predicate_tag, asset.plain.size()),
                          bld.cs(), bld.witness());
  if (!proof) return std::nullopt;
  Offer offer;
  offer.token_id = asset.token_id;
  offer.predicate_tag = predicate_tag;
  offer.proof_p = *proof;
  return offer;
}

bool KeySecureExchange::verify_offer(const Offer& offer) const {
  // Fail-point: the buyer client aborts mid-verification (retryable;
  // nothing on chain has been touched).
  if (fault::fire(fault::points::kExchangeVerify)) return false;
  const auto statement = transform_.encryption_statement(offer.token_id);
  if (!statement) return false;
  // statement = (nonce, c_d, ct...): the key follows from the advertised
  // predicate and the ciphertext length. pi_e has the same public
  // inputs, so a key named by the seller would accept a proof of no
  // predicate at all.
  return sys_.verify(pi_p_shape(offer.predicate_tag, statement->size() - 2),
                     *statement, offer.proof_p);
}

std::optional<BuyerSession> KeySecureExchange::lock_payment(
    const crypto::KeyPair& buyer, const Offer& offer, std::uint64_t amount,
    std::uint64_t timeout_blocks, const chain::Address& seller) {
  return lock_payment_with(buyer, offer, amount, timeout_blocks,
                           sys_.rng().random_fr(), seller);
}

std::optional<BuyerSession> KeySecureExchange::lock_payment_with(
    const crypto::KeyPair& buyer, const Offer& offer, std::uint64_t amount,
    std::uint64_t timeout_blocks, const Fr& k_v,
    const chain::Address& seller) {
  // Fail-point: the buyer client dies before issuing the lock tx. No
  // funds have moved; the step is safely retryable.
  if (fault::fire(fault::points::kExchangeLock)) return std::nullopt;
  auto exchange_id = std::make_shared<std::uint64_t>(0);
  auto intent = make_lock_intent(buyer, offer, amount, timeout_blocks, k_v,
                                 exchange_id, seller);
  if (!intent || !sys_.pool().call(std::move(*intent)).success) {
    return std::nullopt;
  }
  BuyerSession session;
  session.exchange_id = *exchange_id;
  session.token_id = offer.token_id;
  session.k_v = k_v;
  return session;
}

std::optional<txpool::TxIntent> KeySecureExchange::make_lock_intent(
    const crypto::KeyPair& buyer, const Offer& offer, std::uint64_t amount,
    std::uint64_t timeout_blocks, const Fr& k_v,
    std::shared_ptr<std::uint64_t> exchange_id, const chain::Address& seller) {
  const auto info = sys_.nft().token(offer.token_id);
  if (!info) return std::nullopt;
  // Shard-routed: the lock lands on the arbiter shard that owns this
  // token id, and the declared access set lets non-conflicting exchange
  // txs (other shards, other buyers) batch in parallel.
  auto& arb = sys_.arbiter_for_token(offer.token_id);
  const chain::Address from = crypto::address_of(buyer.pk);
  txpool::AccessSet access;
  access.write_contract(arb.address())
      .touch_account(from)
      .touch_account(arb.address());
  return txpool::make_intent(
      buyer, sys_.pool().next_nonce(from), "arbiter.lock",
      [arbp = &arb, pay_seller = seller.empty() ? info->owner : seller,
       h_v = hash_key(k_v), c_k = info->key_commitment, timeout_blocks,
       out = std::move(exchange_id)](chain::CallContext& ctx) {
        *out = arbp->lock(ctx, pay_seller, h_v, c_k, timeout_blocks);
      },
      std::move(access), /*value=*/amount, /*pay_to=*/arb.address());
}

std::optional<txpool::TxIntent> KeySecureExchange::make_settle_intent(
    const crypto::KeyPair& seller, const OwnedAsset& asset,
    std::uint64_t exchange_id, const Fr& k_v) {
  // Seller-side sanity: the buyer's k_v must hash to the on-chain h_v
  // (an honest seller aborts before proving otherwise — paper V-B).
  auto& arb = sys_.arbiter_for_exchange(exchange_id);
  const auto xinfo = arb.exchange(exchange_id);
  if (!xinfo || hash_key(k_v) != xinfo->h_v) return std::nullopt;
  if (xinfo->key_commitment != commit_key(asset.key, asset.key_blinder)) {
    return std::nullopt;  // exchange is not about this asset's key
  }

  const Fr k_c = asset.key + k_v;
  gadgets::CircuitBuilder bld =
      build_key_circuit(asset.key, asset.key_blinder, k_v);
  auto proof = sys_.prove("pi_k", bld.cs(), bld.witness());
  if (!proof) return std::nullopt;

  // The claim is the exact triple the closure hands to the verifier
  // contract, so the batch stage's folded verdict is consumed instead
  // of an inline pairing (the closure reads the proof back out of the
  // claim to keep the two byte-identical by construction).
  auto claim = std::make_shared<chain::ProofClaim>();
  claim->vk = &sys_.key_verifier().vk();
  claim->public_inputs = {k_c, xinfo->key_commitment, xinfo->h_v};
  claim->proof = *proof;

  // Settle pays the escrow out to the seller, so the access set covers
  // the shard's storage plus both balance legs of the transfer.
  txpool::AccessSet access;
  access.write_contract(arb.address())
      .touch_account(arb.address())
      .touch_account(xinfo->seller);
  return txpool::make_intent(
      seller, sys_.pool().next_nonce(crypto::address_of(seller.pk)),
      "arbiter.settle",
      [arbp = &arb, exchange_id, k_c, claim](chain::CallContext& ctx) {
        arbp->settle(ctx, exchange_id, k_c, claim->proof);
      },
      std::move(access), /*value=*/0, /*pay_to=*/{},
      /*gas_limit=*/30'000'000, /*priority=*/0, claim);
}

bool KeySecureExchange::settle(const crypto::KeyPair& seller,
                               const OwnedAsset& asset,
                               std::uint64_t exchange_id, const Fr& k_v) {
  // Fail-point: the seller client dies before settling. The escrow is
  // untouched; the buyer's refund path guarantees liveness.
  if (fault::fire(fault::points::kExchangeSettle)) return false;
  auto intent = make_settle_intent(seller, asset, exchange_id, k_v);
  return intent && sys_.pool().call(std::move(*intent)).success;
}

std::vector<bool> KeySecureExchange::settle_batch(
    std::span<const SettleRequest> requests) {
  std::vector<bool> ok(requests.size(), false);
  std::vector<std::size_t> index;  // request index of tickets[j]
  std::vector<txpool::TicketPtr> tickets;
  auto& pool = sys_.pool();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SettleRequest& rq = requests[i];
    // Per-request fail-point: one dying seller client must not strand
    // the rest of the batch.
    if (fault::fire(fault::points::kExchangeSettle)) continue;
    if (rq.seller == nullptr || rq.asset == nullptr) continue;
    auto intent =
        make_settle_intent(*rq.seller, *rq.asset, rq.exchange_id, rq.k_v);
    if (!intent) continue;
    auto res = pool.submit(std::move(*intent));
    if (!res.accepted) continue;
    index.push_back(i);
    tickets.push_back(std::move(res.ticket));
  }
  // Pump to completion: conflict-free settles (distinct sellers on
  // distinct shards) seal together and share one folded pairing check;
  // conflicting ones spill into follow-up batches.
  pool.await(tickets);
  for (std::size_t j = 0; j < tickets.size(); ++j) {
    ok[index[j]] = tickets[j]->done() && tickets[j]->receipt.success;
  }
  return ok;
}

std::optional<std::vector<Fr>> KeySecureExchange::recover_data(
    const BuyerSession& session) const {
  // Fail-point: the buyer client dies while recovering. k_c stays
  // readable on-chain and k_v is persisted, so the step is idempotent.
  if (fault::fire(fault::points::kExchangeRecover)) return std::nullopt;
  const auto xinfo =
      sys_.arbiter_for_exchange(session.exchange_id).exchange(
          session.exchange_id);
  if (!xinfo || xinfo->state != chain::ExchangeState::kSettled) {
    return std::nullopt;
  }
  const Fr k = xinfo->k_c - session.k_v;

  const auto* enc = transform_.encryption_record(session.token_id);
  const auto ct = transform_.ciphertext(session.token_id);
  if (!ct) return std::nullopt;
  return crypto::mimc_ctr_decrypt(k, enc->nonce, *ct);
}

bool KeySecureExchange::refund(const crypto::KeyPair& buyer,
                               std::uint64_t exchange_id) {
  // Fail-point: the buyer client dies before issuing refund.
  if (fault::fire(fault::points::kExchangeRefund)) return false;
  auto intent = make_refund_intent(buyer, exchange_id);
  return intent && sys_.pool().call(std::move(*intent)).success;
}

std::optional<txpool::TxIntent> KeySecureExchange::make_refund_intent(
    const crypto::KeyPair& buyer, std::uint64_t exchange_id) {
  if (exchange_id == 0) return std::nullopt;
  auto& arb = sys_.arbiter_for_exchange(exchange_id);
  const auto xinfo = arb.exchange(exchange_id);
  if (!xinfo) return std::nullopt;
  // The escrow flows back to the recorded buyer.
  txpool::AccessSet access;
  access.write_contract(arb.address())
      .touch_account(arb.address())
      .touch_account(xinfo->buyer);
  return txpool::make_intent(
      buyer, sys_.pool().next_nonce(crypto::address_of(buyer.pk)),
      "arbiter.refund",
      [arbp = &arb, exchange_id](chain::CallContext& ctx) {
        arbp->refund(ctx, exchange_id);
      },
      std::move(access));
}

std::optional<KeySecureExchange::Sample> KeySecureExchange::disclose_sample(
    const OwnedAsset& asset, std::size_t index) {
  if (index >= asset.plain.size()) return std::nullopt;
  gadgets::CircuitBuilder bld =
      build_disclosure_circuit(asset.plain, asset.data_blinder, index);
  auto proof = sys_.prove(pi_s_shape(asset.plain.size(), index), bld.cs(),
                          bld.witness());
  if (!proof) return std::nullopt;
  Sample s;
  s.token_id = asset.token_id;
  s.index = index;
  s.value = asset.plain[index];
  s.proof = *proof;
  return s;
}

bool KeySecureExchange::verify_sample(const Sample& sample) const {
  const auto info = sys_.nft().token(sample.token_id);
  const auto ct = transform_.ciphertext(sample.token_id);
  if (!info || !ct) return false;
  // statement: (c_d from chain, revealed value); the index picks the key.
  return sys_.verify(pi_s_shape(ct->size(), sample.index),
                     {info->data_commitment, sample.value}, sample.proof);
}

// --- ZKCP baseline ---

std::optional<Offer> ZkcpExchange::make_offer(const OwnedAsset& asset,
                                              const Predicate& phi,
                                              const std::string& predicate_tag) {
  // Identical phase-1 relation; additionally publish h = H(k) as
  // ZKCP's Deliver step requires.
  auto offer = phase1_.make_offer(asset, phi, predicate_tag);
  if (offer) offer->key_hash = hash_key(asset.key);
  return offer;
}

bool ZkcpExchange::verify_offer(const Offer& offer) const {
  return phase1_.verify_offer(offer);
}

std::optional<std::uint64_t> ZkcpExchange::lock_payment(
    const crypto::KeyPair& buyer, const Offer& offer, std::uint64_t amount) {
  const auto info = sys_.nft().token(offer.token_id);
  if (!info) return std::nullopt;
  // In ZKCP the buyer locks against h = H(k) received from the seller
  // with the offer.
  std::uint64_t id = 0;
  // Locking allocates a fresh exchange id from the arbiter's shared
  // counter: whole-contract write, as for the key-secure lock.
  auto& arb = sys_.zkcp_arbiter();
  auto& pool = sys_.pool();
  const chain::Address from = crypto::address_of(buyer.pk);
  txpool::AccessSet access;
  access.write_contract(arb.address())
      .touch_account(from)
      .touch_account(arb.address());
  const auto receipt = pool.call(txpool::make_intent(
      buyer, pool.next_nonce(from), "zkcp.lock",
      [&](chain::CallContext& ctx) {
        id = arb.lock(ctx, info->owner, offer.key_hash);
      },
      std::move(access), /*value=*/amount, /*pay_to=*/arb.address()));
  if (!receipt.success) return std::nullopt;
  return id;
}

txpool::TxIntent ZkcpExchange::make_open_intent(const crypto::KeyPair& seller,
                                                std::uint64_t exchange_id,
                                                const Fr& key) {
  // Opens pay the escrow out of the shared ZKCP arbiter account, so
  // they conflict pairwise on that balance and serialize across blocks.
  auto& arb = sys_.zkcp_arbiter();
  const chain::Address from = crypto::address_of(seller.pk);
  txpool::AccessSet access;
  access
      .write_contract(arb.address(),
                      "zkcp/" + std::to_string(exchange_id) + "/")
      .touch_account(arb.address())
      .touch_account(from);
  return txpool::make_intent(
      seller, sys_.pool().next_nonce(from), "zkcp.open",
      [arbp = &arb, exchange_id, key](chain::CallContext& ctx) {
        arbp->open(ctx, exchange_id, key);
      },
      std::move(access));
}

bool ZkcpExchange::open(const crypto::KeyPair& seller, const OwnedAsset& asset,
                        std::uint64_t exchange_id) {
  return sys_.pool()
      .call(make_open_intent(seller, exchange_id, asset.key))
      .success;
}

std::vector<bool> ZkcpExchange::open_batch(
    std::span<const OpenRequest> requests) {
  std::vector<bool> ok(requests.size(), false);
  std::vector<std::size_t> index;  // request index of tickets[j]
  std::vector<txpool::TicketPtr> tickets;
  auto& pool = sys_.pool();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const OpenRequest& rq = requests[i];
    if (rq.seller == nullptr || rq.asset == nullptr) continue;
    // Opens serialize on the arbiter balance; accumulation still pays
    // one pump loop for all of them.
    auto res = pool.submit(
        make_open_intent(*rq.seller, rq.exchange_id, rq.asset->key));
    if (!res.accepted) continue;
    index.push_back(i);
    tickets.push_back(std::move(res.ticket));
  }
  pool.await(tickets);
  for (std::size_t j = 0; j < tickets.size(); ++j) {
    ok[index[j]] = tickets[j]->done() && tickets[j]->receipt.success;
  }
  return ok;
}

std::optional<std::vector<Fr>> ZkcpExchange::eavesdrop(
    std::uint64_t exchange_id, std::uint64_t token_id) const {
  const auto leaked = sys_.zkcp_arbiter().leaked_key(exchange_id);
  if (!leaked) return std::nullopt;
  const auto* enc = transform_.encryption_record(token_id);
  const auto ct = transform_.ciphertext(token_id);
  if (!ct) return std::nullopt;
  return crypto::mimc_ctr_decrypt(*leaked, enc->nonce, *ct);
}

}  // namespace zkdet::core
