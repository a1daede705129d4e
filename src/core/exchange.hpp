// Data exchange protocols.
//
// KeySecureExchange — the paper's two-phase key-secure protocol (IV-F):
//   Phase 1 (data validation): the seller proves pi_p — the publicly
//   stored ciphertext encrypts a committed dataset satisfying phi — and
//   the buyer verifies it off-chain, picks k_v, sends it to the seller
//   off-chain and locks payment on-chain with h_v = H(k_v).
//   Phase 2 (key negotiation): the seller publishes k_c = k + k_v with
//   pi_k; the arbiter contract verifies pi_k on-chain and releases the
//   payment; the buyer recovers k = k_c - k_v and decrypts. k never
//   appears on-chain, so the public ciphertext stays private.
//
// ZkcpExchange — the classic ZKCP baseline (III-C): same phase 1, but
// settlement reveals k on-chain; everyone can then decrypt the public
// ciphertext. Implemented to demonstrate the flaw and as the Fig. 7
// comparison baseline (its Groth16-style verification carries an
// ell-term G1 MSM + 3 pairings; see plonk::groth16::verify).
#pragma once

#include <memory>
#include <span>

#include "core/system.hpp"
#include "core/transformation.hpp"

namespace zkdet::core {

// The seller's public offer: everything a buyer needs to validate the
// data before paying (paper IV-F data validation phase). It names no
// proving key: the buyer checks proof_p under the pi_p key of
// (predicate_tag, stored ciphertext length), so the proof binds to the
// predicate the buyer asked for.
struct Offer {
  std::uint64_t token_id = 0;
  std::string predicate_tag;  // names phi; selects the pi_p key
  plonk::Proof proof_p;
  Fr key_hash;  // ZKCP baseline only: h = H(k) published by the seller
};

// The buyer's local session secrets.
struct BuyerSession {
  std::uint64_t exchange_id = 0;
  std::uint64_t token_id = 0;
  Fr k_v;  // secret; its hash h_v is on-chain
};

class KeySecureExchange {
 public:
  KeySecureExchange(ZkdetSystem& sys, TransformationProtocol& transform)
      : sys_(sys), transform_(transform) {}

  // Seller: phase-1 proof over the asset's ciphertext and predicate.
  std::optional<Offer> make_offer(const OwnedAsset& asset,
                                  const Predicate& phi,
                                  const std::string& predicate_tag);

  // Buyer: verify pi_p against on-chain commitment + stored ciphertext.
  [[nodiscard]] bool verify_offer(const Offer& offer) const;

  // Buyer: choose k_v, lock payment with h_v. Returns the session; k_v
  // must then be sent to the seller off-chain (the caller does this by
  // handing session.k_v to the seller's settle()). `seller` is the data
  // seller (key holder) the escrow pays out to; when empty it defaults
  // to the token's current owner — pass it explicitly when the token
  // itself already changed hands (e.g. bought at auction) but the key is
  // still being purchased from the original owner.
  std::optional<BuyerSession> lock_payment(const crypto::KeyPair& buyer,
                                           const Offer& offer,
                                           std::uint64_t amount,
                                           std::uint64_t timeout_blocks,
                                           const chain::Address& seller = {});

  // Like lock_payment, but with a caller-chosen k_v. A crash-safe buyer
  // client (ExchangeDriver) draws k_v itself and persists it durably
  // BEFORE the lock tx, so a crash in the window between the tx landing
  // and the local state update cannot strand escrowed funds without the
  // secret needed to use (or identify) the exchange.
  std::optional<BuyerSession> lock_payment_with(
      const crypto::KeyPair& buyer, const Offer& offer, std::uint64_t amount,
      std::uint64_t timeout_blocks, const Fr& k_v,
      const chain::Address& seller = {});

  // Seller: derive k_c = k + k_v, prove pi_k, settle on-chain. Returns
  // false if the chain rejects (e.g. forged k_v hash). The settle tx
  // carries a ProofClaim, so it rides the batched verification path:
  // every settle landing in the same sealed batch shares ONE folded
  // pairing check (a batch of one degenerates to the inline check).
  bool settle(const crypto::KeyPair& seller, const OwnedAsset& asset,
              std::uint64_t exchange_id, const Fr& k_v);

  // One pending settlement of a batched settle call.
  struct SettleRequest {
    const crypto::KeyPair* seller = nullptr;
    const OwnedAsset* asset = nullptr;
    std::uint64_t exchange_id = 0;
    Fr k_v;
  };
  // Batched settlement: proves every pi_k, submits all settle txs with
  // their proof claims, then pumps the pool to completion. Settles that
  // are conflict-free (distinct sellers on distinct arbiter shards)
  // seal into one batch and share a single folded pairing check; an
  // invalid entry is attributed by bisection and reverts alone while
  // the honest ones commit. Returns per-request success, index-aligned.
  std::vector<bool> settle_batch(std::span<const SettleRequest> requests);

  // Buyer: read k_c off-chain state, recover k, fetch and decrypt.
  [[nodiscard]] std::optional<std::vector<Fr>> recover_data(
      const BuyerSession& session) const;

  // Buyer: reclaim an expired escrow.
  bool refund(const crypto::KeyPair& buyer, std::uint64_t exchange_id);

  // The one builder of each arbiter transaction, shared by the calls
  // above and the RPC dispatcher, so each footprint (shard write plus
  // the two balance legs) is declared once. Each returns the intent
  // signed at the sender's next pool nonce.
  //
  // Lock: escrows `amount` against h_v = H(k_v) on the token's shard;
  // the closure writes the assigned exchange id to *exchange_id.
  // `seller` as in lock_payment. nullopt when the token does not exist.
  std::optional<txpool::TxIntent> make_lock_intent(
      const crypto::KeyPair& buyer, const Offer& offer, std::uint64_t amount,
      std::uint64_t timeout_blocks, const Fr& k_v,
      std::shared_ptr<std::uint64_t> exchange_id,
      const chain::Address& seller = {});
  // Settle: sanity checks, proves pi_k and attaches the ProofClaim (so
  // however the caller batches, the settle rides the folded
  // verification). nullopt on any seller-side rejection (bad k_v,
  // foreign asset, prover failure).
  std::optional<txpool::TxIntent> make_settle_intent(
      const crypto::KeyPair& seller, const OwnedAsset& asset,
      std::uint64_t exchange_id, const Fr& k_v);
  // Refund: nullopt for id 0 or an unknown exchange.
  std::optional<txpool::TxIntent> make_refund_intent(
      const crypto::KeyPair& buyer, std::uint64_t exchange_id);

  // --- sample disclosure (marketplace extension) ---
  // Seller: reveal entry `index` of the asset's plaintext with a proof
  // pi_s that it opens the token's on-chain commitment. The index is a
  // circuit constant: the verifier checks the proof under the pi_s key
  // of (stored ciphertext length, index), so the proof binds it.
  struct Sample {
    std::uint64_t token_id = 0;
    std::size_t index = 0;
    Fr value;
    plonk::Proof proof;
  };
  std::optional<Sample> disclose_sample(const OwnedAsset& asset,
                                        std::size_t index);
  // Anyone: check the revealed entry against the chain.
  [[nodiscard]] bool verify_sample(const Sample& sample) const;

 private:
  ZkdetSystem& sys_;
  TransformationProtocol& transform_;
};

class ZkcpExchange {
 public:
  ZkcpExchange(ZkdetSystem& sys, TransformationProtocol& transform)
      : sys_(sys), transform_(transform), phase1_(sys, transform) {}

  // Same data-validation phase as the key-secure protocol.
  std::optional<Offer> make_offer(const OwnedAsset& asset,
                                  const Predicate& phi,
                                  const std::string& predicate_tag) ;
  [[nodiscard]] bool verify_offer(const Offer& offer) const;

  // Buyer locks against h = H(k).
  std::optional<std::uint64_t> lock_payment(const crypto::KeyPair& buyer,
                                            const Offer& offer,
                                            std::uint64_t amount);
  // Seller reveals k on-chain to redeem (the leak).
  bool open(const crypto::KeyPair& seller, const OwnedAsset& asset,
            std::uint64_t exchange_id);

  // One pending open of a batched redeem call.
  struct OpenRequest {
    const crypto::KeyPair* seller = nullptr;
    const OwnedAsset* asset = nullptr;
    std::uint64_t exchange_id = 0;
  };
  // Batched redeem: accumulates all opens in the pool, then pumps to
  // completion. ZKCP settlement carries no pairing work (a Poseidon
  // preimage check), so there is nothing to fold — this batches for
  // block throughput, not gas amortization (DESIGN.md). Returns
  // per-request success, index-aligned.
  std::vector<bool> open_batch(std::span<const OpenRequest> requests);

  // ANY third party can now decrypt the public ciphertext — this is the
  // vulnerability the key-secure protocol eliminates.
  [[nodiscard]] std::optional<std::vector<Fr>> eavesdrop(
      std::uint64_t exchange_id, std::uint64_t token_id) const;

 private:
  // The one builder of the open tx, shared by open() and open_batch().
  txpool::TxIntent make_open_intent(const crypto::KeyPair& seller,
                                    std::uint64_t exchange_id, const Fr& key);

  ZkdetSystem& sys_;
  TransformationProtocol& transform_;
  KeySecureExchange phase1_;  // the shared data-validation phase
};

}  // namespace zkdet::core
