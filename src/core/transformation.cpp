#include "core/transformation.hpp"


#include "crypto/mimc.hpp"

namespace zkdet::core {

using chain::Formula;
using gadgets::CircuitBuilder;
using storage::Cid;

Cid TransformationProtocol::store_proof(const plonk::Proof& proof) {
  return sys_.storage().put(proof.to_bytes());
}

std::optional<std::uint64_t> TransformationProtocol::mint_with_encryption(
    const crypto::KeyPair& owner, OwnedAsset& asset, Formula formula,
    const std::vector<std::uint64_t>& parents) {
  auto& rng = sys_.rng();
  asset.key = rng.random_fr();
  asset.nonce = rng.random_fr();
  asset.key_blinder = rng.random_fr();
  if (asset.data_blinder.is_zero()) asset.data_blinder = rng.random_fr();

  // Encrypt and store; the CID is the on-chain URI.
  const std::vector<Fr> ct =
      crypto::mimc_ctr_encrypt(asset.key, asset.nonce, asset.plain);
  const Cid cid = sys_.storage().put(storage::dataset_to_blob(ct));

  // pi_e
  CircuitBuilder enc = build_encryption_circuit(asset.plain, asset.key,
                                                asset.nonce,
                                                asset.data_blinder);
  const std::string shape_id = "pi_e/" + std::to_string(asset.plain.size());
  auto proof = sys_.prove(shape_id, enc.cs(), enc.witness());
  if (!proof) return std::nullopt;

  const Fr data_cm = commit_dataset(asset.plain, asset.data_blinder);
  const Fr key_cm = commit_key(asset.key, asset.key_blinder);

  std::uint64_t token_id = 0;
  // Minting allocates a fresh token id from shared NFT state, so it
  // serializes by nature: undeclared access, sealed alone.
  auto& pool = sys_.pool();
  const auto receipt = pool.call(txpool::make_intent(
      owner, pool.next_nonce(crypto::address_of(owner.pk)),
      formula == Formula::kGenesis ? "mint" : "mint_derived",
      [&](chain::CallContext& ctx) {
        if (formula == Formula::kGenesis) {
          token_id = sys_.nft().mint(ctx, cid.as_field(), data_cm, key_cm);
        } else {
          token_id = sys_.nft().mint_derived(ctx, cid.as_field(), data_cm,
                                             key_cm, formula, parents);
        }
      }));
  if (!receipt.success) return std::nullopt;

  EncryptionRecord rec;
  rec.shape_id = shape_id;
  rec.nonce = asset.nonce;
  rec.data_cid = cid;
  rec.proof = *proof;
  rec.proof_cid = store_proof(*proof);
  enc_records_[token_id] = std::move(rec);
  asset.token_id = token_id;
  return token_id;
}

std::optional<OwnedAsset> TransformationProtocol::mint_transformed(
    const crypto::KeyPair& owner, OwnedAsset derived, Formula formula,
    std::vector<std::uint64_t> parents, const std::string& shape_id,
    const CircuitBuilder& bld) {
  auto proof = sys_.prove(shape_id, bld.cs(), bld.witness());
  if (!proof) return std::nullopt;
  if (!mint_with_encryption(owner, derived, formula, parents)) {
    return std::nullopt;
  }
  TransformRecord rec;
  rec.formula = formula;
  rec.shape_id = shape_id;
  rec.parents = std::move(parents);
  rec.proof = *proof;
  rec.proof_cid = store_proof(*proof);
  tf_records_[derived.token_id] = std::move(rec);
  return derived;
}

std::optional<OwnedAsset> TransformationProtocol::publish(
    const crypto::KeyPair& owner, std::vector<Fr> plain) {
  if (plain.empty()) return std::nullopt;
  OwnedAsset asset;
  asset.plain = std::move(plain);
  if (!mint_with_encryption(owner, asset, Formula::kGenesis, {})) {
    return std::nullopt;
  }
  return asset;
}

std::optional<OwnedAsset> TransformationProtocol::duplicate(
    const crypto::KeyPair& owner, const OwnedAsset& src) {
  OwnedAsset derived;
  derived.plain = src.plain;
  derived.data_blinder = sys_.rng().random_fr();

  CircuitBuilder bld = build_duplication_circuit(src.plain, src.data_blinder,
                                                 derived.data_blinder);
  return mint_transformed(owner, std::move(derived), Formula::kDuplication,
                          {src.token_id},
                          "pi_t/dup/" + std::to_string(src.plain.size()), bld);
}

std::optional<OwnedAsset> TransformationProtocol::aggregate(
    const crypto::KeyPair& owner, std::span<const OwnedAsset> srcs) {
  if (srcs.empty()) return std::nullopt;
  OwnedAsset derived;
  std::vector<std::vector<Fr>> plains;
  std::vector<Fr> blinders;
  std::vector<std::uint64_t> parents;
  std::string shape_id = "pi_t/agg";
  for (const OwnedAsset& s : srcs) {
    plains.push_back(s.plain);
    blinders.push_back(s.data_blinder);
    parents.push_back(s.token_id);
    derived.plain.insert(derived.plain.end(), s.plain.begin(), s.plain.end());
    shape_id += "/" + std::to_string(s.plain.size());
  }
  derived.data_blinder = sys_.rng().random_fr();

  CircuitBuilder bld =
      build_aggregation_circuit(plains, blinders, derived.data_blinder);
  return mint_transformed(owner, std::move(derived), Formula::kAggregation,
                          std::move(parents), shape_id, bld);
}

std::optional<std::vector<OwnedAsset>> TransformationProtocol::partition(
    const crypto::KeyPair& owner, const OwnedAsset& src,
    const std::vector<std::size_t>& sizes) {
  std::size_t total = 0;
  for (const std::size_t s : sizes) {
    if (s == 0) return std::nullopt;  // parts must be nonempty
    total += s;
  }
  if (total != src.plain.size()) return std::nullopt;  // must be exhaustive

  std::vector<OwnedAsset> parts(sizes.size());
  std::vector<Fr> part_blinders;
  std::size_t off = 0;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    parts[k].plain.assign(
        src.plain.begin() + static_cast<std::ptrdiff_t>(off),
        src.plain.begin() + static_cast<std::ptrdiff_t>(off + sizes[k]));
    parts[k].data_blinder = sys_.rng().random_fr();
    part_blinders.push_back(parts[k].data_blinder);
    off += sizes[k];
  }

  std::string shape_id = "pi_t/part/" + std::to_string(src.plain.size());
  for (const std::size_t s : sizes) shape_id += "/" + std::to_string(s);
  CircuitBuilder bld = build_partition_circuit(src.plain, sizes,
                                               src.data_blinder, part_blinders);
  auto proof = sys_.prove(shape_id, bld.cs(), bld.witness());
  if (!proof) return std::nullopt;
  const Cid proof_cid = store_proof(*proof);

  // Mint every part, then cross-link the sibling sets.
  for (auto& part : parts) {
    if (!mint_with_encryption(owner, part, Formula::kPartition,
                              {src.token_id})) {
      return std::nullopt;
    }
  }
  std::vector<std::uint64_t> sibling_ids;
  sibling_ids.reserve(parts.size());
  for (const auto& p : parts) sibling_ids.push_back(p.token_id);
  for (const auto& p : parts) {
    TransformRecord rec;
    rec.formula = Formula::kPartition;
    rec.shape_id = shape_id;
    rec.parents = {src.token_id};
    rec.siblings = sibling_ids;
    rec.proof = *proof;
    rec.proof_cid = proof_cid;
    tf_records_[p.token_id] = std::move(rec);
  }
  return parts;
}

std::optional<OwnedAsset> TransformationProtocol::process(
    const crypto::KeyPair& owner, const OwnedAsset& src,
    const TransformGadget& transform, const std::string& shape_tag) {
  OwnedAsset derived;
  derived.data_blinder = sys_.rng().random_fr();

  // Build once to learn the derived plaintext (the values on the
  // transform's output wires), then the commitment in the circuit
  // matches commit_dataset(derived.plain, blinder) by construction.
  std::vector<Fr> derived_plain;
  const TransformGadget capture =
      [&](CircuitBuilder& bld,
          std::span<const gadgets::Wire> s) -> std::vector<gadgets::Wire> {
    std::vector<gadgets::Wire> out = transform(bld, s);
    derived_plain.clear();
    derived_plain.reserve(out.size());
    for (const auto w : out) derived_plain.push_back(bld.value(w));
    return out;
  };
  CircuitBuilder bld = build_processing_circuit(
      src.plain, src.data_blinder, derived.data_blinder, capture);
  if (derived_plain.empty()) return std::nullopt;
  derived.plain = derived_plain;

  return mint_transformed(
      owner, std::move(derived), Formula::kProcessing, {src.token_id},
      "pi_t/proc/" + shape_tag + "/" + std::to_string(src.plain.size()), bld);
}

// --- verification ---

bool TransformationProtocol::add_encryption_claim(
    std::uint64_t token_id, std::vector<Claim>& out) const {
  auto statement = encryption_statement(token_id);
  if (!statement) return false;
  const EncryptionRecord& rec = enc_records_.at(token_id);
  const plonk::KeyPairResult* keys = sys_.find_keys(rec.shape_id);
  if (keys == nullptr) return false;
  out.push_back({&keys->vk, std::move(*statement), &rec.proof});
  return true;
}

bool TransformationProtocol::add_transformation_claim(
    std::uint64_t token_id, std::vector<Claim>& out) const {
  const auto info = sys_.nft().token(token_id);
  if (!info) return false;
  if (info->formula == Formula::kGenesis) return true;  // nothing to check
  const auto rec_it = tf_records_.find(token_id);
  if (rec_it == tf_records_.end()) return false;
  const TransformRecord& rec = rec_it->second;
  if (rec.parents != info->prev_ids) return false;

  // Rebuild the public inputs from on-chain commitments only.
  std::vector<Fr> publics;
  const auto push_cm = [&](std::uint64_t id) {
    const auto t = sys_.nft().token(id);
    if (!t) return false;
    publics.push_back(t->data_commitment);
    return true;
  };
  switch (rec.formula) {
    case Formula::kDuplication:
    case Formula::kProcessing:
      if (!push_cm(rec.parents.at(0))) return false;
      publics.push_back(info->data_commitment);
      break;
    case Formula::kAggregation:
      for (const auto p : rec.parents) {
        if (!push_cm(p)) return false;
      }
      publics.push_back(info->data_commitment);
      break;
    case Formula::kPartition:
      if (!push_cm(rec.parents.at(0))) return false;
      for (const auto s : rec.siblings) {
        if (!push_cm(s)) return false;
      }
      break;
    case Formula::kGenesis:
      return true;
  }
  const plonk::KeyPairResult* keys = sys_.find_keys(rec.shape_id);
  if (keys == nullptr) return false;
  out.push_back({&keys->vk, std::move(publics), &rec.proof});
  return true;
}

plonk::BatchResult TransformationProtocol::fold(
    const std::vector<Claim>& claims) {
  std::vector<plonk::BatchEntry> entries;
  entries.reserve(claims.size());
  for (const Claim& c : claims) entries.push_back({c.vk, &c.publics, c.proof});
  return plonk::batch_verify_attributed(entries);
}

bool TransformationProtocol::verify_encryption(std::uint64_t token_id) const {
  std::vector<Claim> claims;
  return add_encryption_claim(token_id, claims) && fold(claims).all_ok();
}

bool TransformationProtocol::verify_transformation(
    std::uint64_t token_id) const {
  std::vector<Claim> claims;
  return add_transformation_claim(token_id, claims) && fold(claims).all_ok();
}

bool TransformationProtocol::verify_provenance_chain(
    std::uint64_t token_id) const {
  return !first_invalid_in_chain(token_id).has_value();
}

std::optional<std::uint64_t> TransformationProtocol::first_invalid_in_chain(
    std::uint64_t token_id) const {
  if (!sys_.nft().exists(token_id)) return token_id;
  std::vector<std::uint64_t> all = sys_.nft().provenance(token_id);
  all.push_back(token_id);

  // Gather every claim of the chain; a token whose statement cannot be
  // rebuilt is bad without a pairing.
  std::vector<Claim> claims;
  std::vector<std::size_t> owner;  // claim -> position in `all`
  std::vector<std::uint8_t> bad(all.size(), 0);
  for (std::size_t t = 0; t < all.size(); ++t) {
    const std::size_t first = claims.size();
    if (!add_encryption_claim(all[t], claims) ||
        !add_transformation_claim(all[t], claims)) {
      claims.resize(first);
      bad[t] = 1;
      continue;
    }
    owner.resize(claims.size(), t);
  }
  const plonk::BatchResult verdict = fold(claims);
  for (std::size_t k = 0; k < claims.size(); ++k) {
    if (verdict.ok[k] == 0) bad[owner[k]] = 1;
  }
  for (std::size_t t = 0; t < all.size(); ++t) {
    if (bad[t] != 0) return all[t];
  }
  return std::nullopt;
}

const EncryptionRecord* TransformationProtocol::encryption_record(
    std::uint64_t token_id) const {
  const auto it = enc_records_.find(token_id);
  return it == enc_records_.end() ? nullptr : &it->second;
}

std::optional<std::vector<Fr>> TransformationProtocol::ciphertext(
    std::uint64_t token_id) const {
  const EncryptionRecord* rec = encryption_record(token_id);
  if (rec == nullptr) return std::nullopt;
  const auto blob = sys_.storage().get(rec->data_cid);
  if (!blob) return std::nullopt;
  return storage::blob_to_dataset(*blob);
}

std::optional<std::vector<Fr>> TransformationProtocol::encryption_statement(
    std::uint64_t token_id) const {
  const auto info = sys_.nft().token(token_id);
  const EncryptionRecord* rec = encryption_record(token_id);
  if (!info || rec == nullptr) return std::nullopt;
  // The record's full CID must match the on-chain URI (its field image),
  // which binds the registry entry to the token.
  if (rec->data_cid.as_field() != info->uri) return std::nullopt;
  const auto ct = ciphertext(token_id);
  if (!ct) return std::nullopt;
  std::vector<Fr> publics;
  publics.reserve(ct->size() + 2);
  publics.push_back(rec->nonce);
  publics.push_back(info->data_commitment);
  publics.insert(publics.end(), ct->begin(), ct->end());
  return publics;
}

const TransformRecord* TransformationProtocol::transform_record(
    std::uint64_t token_id) const {
  const auto it = tf_records_.find(token_id);
  return it == tf_records_.end() ? nullptr : &it->second;
}

}  // namespace zkdet::core
