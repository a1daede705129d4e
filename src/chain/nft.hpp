// DataNFT: the ERC-721-style data-asset token contract (paper III-A/B).
//
// Every data asset is represented by a token carrying:
//   uri        — CID of the encrypted dataset in the storage network
//   dataCm     — Poseidon commitment c_d to the plaintext dataset
//   keyCm      — Poseidon commitment c to the encryption key
//   prevIds[]  — parent tokens (provenance DAG, paper Fig. 2)
//   formula    — which transformation produced it (mint/agg/part/dup/proc)
//
// mint/transfer/burn follow ERC-721 semantics (ownership, approvals,
// balances); mint_derived implements the four transformation formulae,
// requiring the caller to own every parent. Proof verification is done
// by the protocol layer against the verifier contract before the mint
// is submitted — the token records the provenance claim, the proof
// chain makes it checkable by anyone (paper IV-B).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/chain.hpp"

namespace zkdet::chain {

enum class Formula : std::uint8_t {
  kGenesis = 0,
  kAggregation = 1,
  kPartition = 2,
  kDuplication = 3,
  kProcessing = 4,
};

const char* formula_name(Formula f);

// A token's fields live in DataNFT slots keyed <field>/<id>: owner (an
// encoded address), uri, datacm, keycm, formula, prevn and prev/<id>/<i>
// (parents), approved (an encoded address); plus balance/<address> and
// the "count" of minted ids.
struct TokenInfo {
  std::uint64_t id = 0;
  Address owner;
  Fr uri;
  Fr data_commitment;
  Fr key_commitment;
  Formula formula = Formula::kGenesis;
  std::vector<std::uint64_t> prev_ids;
};

// The one decoder of a token record (nullopt = never minted or burned).
[[nodiscard]] std::optional<TokenInfo> read_token(const SlotReader& read,
                                                  std::uint64_t id);

class DataNft : public Contract {
 public:
  DataNft();

  // Mints a genesis token for a fresh data asset; returns the token id.
  std::uint64_t mint(CallContext& ctx, const Fr& uri, const Fr& data_cm,
                     const Fr& key_cm);

  // Mints a token derived from `prev_ids` under `formula`; the sender
  // must own all parents. Equivalent to mint() followed by
  // record_transformation() in a single transaction.
  std::uint64_t mint_derived(CallContext& ctx, const Fr& uri,
                             const Fr& data_cm, const Fr& key_cm,
                             Formula formula,
                             const std::vector<std::uint64_t>& prev_ids);

  // Records the provenance of an already-minted token (prevIds[] and the
  // transformation formula). Callable once per token by its owner; this
  // is the "Data Transformation" operation Table II meters separately
  // from minting.
  void record_transformation(CallContext& ctx, std::uint64_t token_id,
                             Formula formula,
                             const std::vector<std::uint64_t>& prev_ids);

  void transfer_from(CallContext& ctx, const Address& from, const Address& to,
                     std::uint64_t token_id);
  void approve(CallContext& ctx, const Address& to, std::uint64_t token_id);
  void burn(CallContext& ctx, std::uint64_t token_id);

  // Metered views (on-chain reads).
  [[nodiscard]] Address owner_of(CallContext& ctx, std::uint64_t token_id) const;

  // Unmetered node-RPC views for off-chain users.
  [[nodiscard]] std::optional<TokenInfo> token(std::uint64_t token_id) const;
  [[nodiscard]] std::uint64_t total_minted() const;
  [[nodiscard]] bool exists(std::uint64_t token_id) const;

  // Walks prevIds[] transitively: the full provenance (ancestor) set of
  // a token in topological order (paper Fig. 2 traceability).
  [[nodiscard]] std::vector<std::uint64_t> provenance(
      std::uint64_t token_id) const;

 private:
  // Owner of `token_id` read inside the transaction (nullopt = no such
  // token).
  [[nodiscard]] std::optional<Address> owner(CallContext& ctx,
                                             std::uint64_t token_id) const;
};

}  // namespace zkdet::chain
