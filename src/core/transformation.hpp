// Generic data transformation protocol (paper IV-B).
//
// publish() puts an encrypted dataset into the storage network, proves
// encryption correctness pi_e against a Poseidon commitment, and mints
// the genesis NFT. Each transformation (duplicate / aggregate /
// partition / process) produces a derived asset with:
//   - a transformation proof pi_t linking source commitment(s) to the
//     derived commitment, and
//   - a fresh encryption proof pi_e for the derived ciphertext,
// exactly the decoupling of Fig. 3 that lets pi_e be reused across
// subsequent transformations and lets pi_t form a provenance-validating
// proof chain. Proofs and statements are public: they are pushed into
// the storage network and indexed by the registry; verification rebuilds
// every statement from on-chain token state and storage contents, never
// trusting the registry blob.
#pragma once

#include <optional>

#include "core/circuits.hpp"
#include "core/system.hpp"

namespace zkdet::core {

// A party's view of an asset it owns (contains secrets; never shared).
struct OwnedAsset {
  std::uint64_t token_id = 0;
  std::vector<Fr> plain;
  Fr key;
  Fr nonce;
  Fr data_blinder;
  Fr key_blinder;
};

struct EncryptionRecord {
  std::string shape_id;
  Fr nonce;              // public CTR nonce
  storage::Cid data_cid; // full ciphertext CID (its field image is the URI)
  plonk::Proof proof;
  storage::Cid proof_cid;  // serialized proof in the storage network
};

struct TransformRecord {
  chain::Formula formula = chain::Formula::kGenesis;
  std::string shape_id;
  std::vector<std::uint64_t> parents;
  // For partitions: all sibling tokens of the same split, in order
  // (their commitments are public inputs of the shared pi_t).
  std::vector<std::uint64_t> siblings;
  plonk::Proof proof;
  storage::Cid proof_cid;
};

class TransformationProtocol {
 public:
  explicit TransformationProtocol(ZkdetSystem& sys) : sys_(sys) {}

  // --- owner-side operations ---
  std::optional<OwnedAsset> publish(const crypto::KeyPair& owner,
                                    std::vector<Fr> plain);
  std::optional<OwnedAsset> duplicate(const crypto::KeyPair& owner,
                                      const OwnedAsset& src);
  std::optional<OwnedAsset> aggregate(const crypto::KeyPair& owner,
                                      std::span<const OwnedAsset> srcs);
  std::optional<std::vector<OwnedAsset>> partition(
      const crypto::KeyPair& owner, const OwnedAsset& src,
      const std::vector<std::size_t>& sizes);
  // `shape_tag` must uniquely identify the transform's circuit shape
  // (used for key caching); the derived plaintext is read off the
  // transform gadget's output wires.
  std::optional<OwnedAsset> process(const crypto::KeyPair& owner,
                                    const OwnedAsset& src,
                                    const TransformGadget& transform,
                                    const std::string& shape_tag);

  // --- public verification (any third party) ---
  // pi_e: ciphertext at the token's URI encrypts the committed dataset.
  [[nodiscard]] bool verify_encryption(std::uint64_t token_id) const;
  // pi_t: the token's data derives from its parents as claimed.
  [[nodiscard]] bool verify_transformation(std::uint64_t token_id) const;
  // Full proof chain: pi_e of every ancestor and pi_t of every edge.
  [[nodiscard]] bool verify_provenance_chain(std::uint64_t token_id) const;

  [[nodiscard]] const EncryptionRecord* encryption_record(
      std::uint64_t token_id) const;
  // The token's stored ciphertext, fetched by its registry CID (the
  // storage layer re-checks the digest); nullopt when unregistered or
  // unreadable.
  [[nodiscard]] std::optional<std::vector<Fr>> ciphertext(
      std::uint64_t token_id) const;
  // The public statement (nonce, c_s, ct...) that pi_e and pi_p share,
  // with c_s read from the chain; nullopt unless the token exists and
  // its registry CID matches the on-chain URI.
  [[nodiscard]] std::optional<std::vector<Fr>> encryption_statement(
      std::uint64_t token_id) const;
  [[nodiscard]] const TransformRecord* transform_record(
      std::uint64_t token_id) const;

 private:
  // Encrypts, stores, proves pi_e; returns the minted token id.
  std::optional<std::uint64_t> mint_with_encryption(
      const crypto::KeyPair& owner, OwnedAsset& asset, chain::Formula formula,
      const std::vector<std::uint64_t>& parents);
  // Proves pi_t (`shape_id` over `bld`), mints `derived` as a child of
  // `parents` and files its pi_t record.
  std::optional<OwnedAsset> mint_transformed(
      const crypto::KeyPair& owner, OwnedAsset derived, chain::Formula formula,
      std::vector<std::uint64_t> parents, const std::string& shape_id,
      const gadgets::CircuitBuilder& bld);
  storage::Cid store_proof(const plonk::Proof& proof);

  ZkdetSystem& sys_;
  std::map<std::uint64_t, EncryptionRecord> enc_records_;
  std::map<std::uint64_t, TransformRecord> tf_records_;
};

}  // namespace zkdet::core
