// ZkdetSystem: one fully-deployed ZKDET instance.
//
// Bundles the substrates (chain + contracts, storage network, SRS) and
// the proving-key cache. The universal SRS is set up once (paper VI-B.1)
// and reused by every circuit; per-shape preprocessing happens on first
// use and is cached, mirroring how the paper's deployment compiles each
// Circom circuit once.
#pragma once

#include <memory>
#include <string>

#include "chain/arbiter.hpp"
#include "chain/auction.hpp"
#include "chain/chain.hpp"
#include "chain/nft.hpp"
#include "chain/verifier_contract.hpp"
#include "ledger/ledger.hpp"
#include "plonk/plonk.hpp"
#include "replication/replica_set.hpp"
#include "runtime/prover_service.hpp"
#include "storage/storage.hpp"
#include "txpool/txpool.hpp"

namespace zkdet::core {

class ZkdetSystem {
 public:
  // max_constraints bounds the largest circuit the SRS supports.
  //
  // `data_dir` roots a durable ledger under the chain: every sealed
  // block is WAL-journaled before the sealing call returns, and
  // constructing a system over an existing directory restores the chain
  // (blocks, balances, contract state) exactly as it was — the deploys
  // below then re-bind to their persisted contracts instead of minting
  // fresh ones. Empty string consults ZKDET_DATA_DIR; if that is unset
  // too, the chain stays memory-only (the pre-ledger behaviour).
  // `arbiter_shards`: number of KeySecureArbiter instances deployed;
  // token id t routes to shard t % S, and exchange ids stay globally
  // unique (shard s issues s+1, s+1+S, ...). 0 means 1 (single arbiter
  // — the pre-sharding behavior). The count is part of the deploy
  // sequence, so reopening a data_dir requires the same value.
  explicit ZkdetSystem(std::size_t max_constraints, std::uint64_t seed = 7,
                       const std::string& data_dir = {},
                       const ledger::Options& ledger_opts = {},
                       std::size_t arbiter_shards = 0);
  // Best-effort final replica sync so an env-only run (ZKDET_REPLICAS
  // with no explicit pumping) leaves its followers caught up on clean
  // shutdown. A failed/diverged follower just stays behind.
  ~ZkdetSystem();

  [[nodiscard]] chain::Chain& chain() { return chain_; }
  // nullptr when running memory-only.
  [[nodiscard]] ledger::Ledger* ledger() { return ledger_.get(); }
  // Warm standbys streaming this system's WAL (ZKDET_REPLICAS > 0 with
  // a durable ledger; nullptr otherwise). Follower i lives under
  // <data_dir>/replicas/r<i>; pump with replicas()->pump() or sync().
  [[nodiscard]] replication::ReplicaSet* replicas() { return replicas_.get(); }
  [[nodiscard]] storage::StorageNetwork& storage() { return storage_; }
  [[nodiscard]] chain::DataNft& nft() { return *nft_; }
  [[nodiscard]] chain::ClockAuction& auction() { return *auction_; }
  [[nodiscard]] chain::KeySecureArbiter& arbiter() { return *shards_[0]; }
  [[nodiscard]] chain::ZkcpArbiter& zkcp_arbiter() { return *zkcp_arbiter_; }
  // The transaction pipeline front door (mempool + batch executor).
  [[nodiscard]] txpool::TxPool& pool() { return *pool_; }

  // --- arbiter sharding ---
  [[nodiscard]] std::size_t arbiter_shards() const { return shards_.size(); }
  [[nodiscard]] chain::KeySecureArbiter& arbiter_shard(std::size_t s) {
    return *shards_[s];
  }
  // Shard routing: by token id at lock time, by exchange id afterwards.
  [[nodiscard]] chain::KeySecureArbiter& arbiter_for_token(
      std::uint64_t token_id) {
    return *shards_[token_id % shards_.size()];
  }
  [[nodiscard]] chain::KeySecureArbiter& arbiter_for_exchange(
      std::uint64_t exchange_id) {
    return *shards_[(exchange_id - 1) % shards_.size()];
  }
  // Cross-shard lookup by the buyer's session-unique h_v (crash
  // recovery: the exchange id is not known yet).
  [[nodiscard]] std::optional<chain::ExchangeInfo> find_exchange_by_hv(
      const ff::Fr& h_v) const;
  [[nodiscard]] chain::PlonkVerifierContract& key_verifier() {
    return *key_verifier_;
  }
  [[nodiscard]] const plonk::Srs& srs() const { return srs_; }
  [[nodiscard]] crypto::Drbg& rng() { return rng_; }
  [[nodiscard]] const crypto::KeyPair& operator_keys() const {
    return operator_keys_;
  }
  // The async proof-job service every protocol-layer proof runs through.
  [[nodiscard]] runtime::ProverService& prover() { return prover_; }

  // Returns cached keys for `shape_id`, preprocessing `cs` on first use.
  // Different instances of the same logical circuit must produce
  // identical constraint systems (shape ids encode all size parameters).
  // The service never evicts keys, so the reference stays valid for the
  // system's lifetime. Throws when the SRS is too small for `cs`.
  const plonk::KeyPairResult& keys_for(const std::string& shape_id,
                                       const plonk::ConstraintSystem& cs);
  // Lookup-only variant for verifiers; nullptr if never preprocessed.
  [[nodiscard]] const plonk::KeyPairResult* find_keys(
      const std::string& shape_id) const;
  // The one off-chain proof check: `proof` against `publics` under the
  // keys of `shape_id`; false when the shape was never preprocessed.
  // Verifiers derive `shape_id` from what they check (predicate tag,
  // stored ciphertext length, index), never from the prover. Keys are
  // trusted on first use: whoever preprocesses a shape id first fixes
  // its circuit.
  [[nodiscard]] bool verify(const std::string& shape_id,
                            const std::vector<ff::Fr>& publics,
                            const plonk::Proof& proof) const;

  // A proof job for `cs` under `witness`, its shape preprocessed on the
  // caller's thread. Each job gets its own blinder rng derived from the
  // system rng, so results are reproducible for a fixed system seed and
  // call order.
  runtime::ProofJob proof_job(const std::string& shape_id,
                              const plonk::ConstraintSystem& cs,
                              std::vector<ff::Fr> witness);

  // Proves proof_job(shape_id, cs, witness) through the prover service,
  // retrying injected worker crashes.
  std::optional<plonk::Proof> prove(const std::string& shape_id,
                                    const plonk::ConstraintSystem& cs,
                                    std::vector<ff::Fr> witness);

 private:
  crypto::Drbg rng_;
  crypto::KeyPair operator_keys_;
  plonk::Srs srs_;
  runtime::ProverService prover_;
  chain::Chain chain_;
  // Declared after chain_ (observer detaches before the chain dies).
  std::unique_ptr<ledger::Ledger> ledger_;
  // Declared after ledger_ (the shipper reads the ledger's segments).
  std::unique_ptr<replication::ReplicaSet> replicas_;
  storage::StorageNetwork storage_;
  std::unique_ptr<txpool::TxPool> pool_;
  chain::DataNft* nft_ = nullptr;
  chain::ClockAuction* auction_ = nullptr;
  chain::PlonkVerifierContract* key_verifier_ = nullptr;
  std::vector<chain::KeySecureArbiter*> shards_;  // shards_[0] = arbiter()
  chain::ZkcpArbiter* zkcp_arbiter_ = nullptr;
};

}  // namespace zkdet::core
