#include "core/system.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "core/circuits.hpp"

namespace zkdet::core {

ZkdetSystem::ZkdetSystem(std::size_t max_constraints, std::uint64_t seed,
                         const std::string& data_dir,
                         const ledger::Options& ledger_opts,
                         std::size_t arbiter_shards)
    : rng_("zkdet-system", seed),
      operator_keys_(crypto::KeyPair::generate(rng_)),
      srs_(plonk::Srs::setup(max_constraints + 16, rng_)),
      prover_(srs_),
      storage_(/*num_nodes=*/4, /*replication=*/2) {
  std::string dir = data_dir;
  if (dir.empty()) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at system start-up
    const char* env = std::getenv("ZKDET_DATA_DIR");  // zkdet-lint: allow(env-knob)
    if (env != nullptr) dir = env;
  }
  // Attach durability before any chain activity: the account credit and
  // the deploys below are journaled (fresh directory) or replayed
  // against restored state (reopen — create_account is idempotent for a
  // known key and each deploy adopts its persisted contract).
  if (!dir.empty()) {
    ledger_ = std::make_unique<ledger::Ledger>(chain_, dir, ledger_opts);
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at system start-up
    const char* env = std::getenv("ZKDET_REPLICAS");  // zkdet-lint: allow(env-knob)
    const std::size_t n_replicas = replication::parse_replica_count(env);
    if (n_replicas > 0) {
      replicas_ = std::make_unique<replication::ReplicaSet>(
          *ledger_, chain_, dir + "/replicas", n_replicas);
    }
  }
  chain_.create_account(operator_keys_, 1'000'000'000);

  nft_ = &chain_.deploy<chain::DataNft>(operator_keys_, nullptr);
  auction_ = &chain_.deploy<chain::ClockAuction>(operator_keys_, nullptr, *nft_);

  // The pi_k circuit shape is fixed; preprocess it now and deploy the
  // on-chain verifier with its vk baked in.
  gadgets::CircuitBuilder kb = build_key_circuit(
      ff::Fr::from_u64(1), ff::Fr::from_u64(2), ff::Fr::from_u64(3));
  const auto& keys = keys_for("pi_k", kb.cs());
  key_verifier_ = &chain_.deploy<chain::PlonkVerifierContract>(
      operator_keys_, nullptr, keys.vk, "PlonkVerifier(pi_k)");
  const std::size_t n_shards = std::max<std::size_t>(1, arbiter_shards);
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards_.push_back(&chain_.deploy<chain::KeySecureArbiter>(
        operator_keys_, nullptr, *key_verifier_, /*first_id=*/s + 1,
        /*stride=*/n_shards));
  }
  zkcp_arbiter_ = &chain_.deploy<chain::ZkcpArbiter>(operator_keys_, nullptr);
  pool_ = std::make_unique<txpool::TxPool>(chain_);
}

ZkdetSystem::~ZkdetSystem() {
  if (!replicas_) return;
  try {
    ledger_->sync();
    // Deadline-bounded: final_sync's backoff budget burns only on
    // rounds that make no progress, so a healthy follower catches up
    // fully while a dead follower transport costs a bounded number of
    // pumps — shutdown never stalls on an unreachable peer.
    replicas_->final_sync();
  } catch (...) {
    // Shutdown is best-effort: a failed fsync or a fail-stopped
    // follower must not turn destruction into a crash. The follower
    // simply resumes from its last acked watermark next run.
  }
}

std::optional<chain::ExchangeInfo> ZkdetSystem::find_exchange_by_hv(
    const ff::Fr& h_v) const {
  for (const auto* shard : shards_) {
    if (auto info = shard->find_by_hv(h_v)) return info;
  }
  return std::nullopt;
}

const plonk::KeyPairResult& ZkdetSystem::keys_for(
    const std::string& shape_id, const plonk::ConstraintSystem& cs) {
  const auto keys = prover_.keys_for(shape_id, cs);
  if (!keys) {
    throw std::runtime_error("SRS too small for circuit shape " + shape_id +
                             " (domain " + std::to_string(cs.domain_size()) +
                             ")");
  }
  return *keys;
}

const plonk::KeyPairResult* ZkdetSystem::find_keys(
    const std::string& shape_id) const {
  return prover_.find_keys(shape_id).get();
}

bool ZkdetSystem::verify(const std::string& shape_id,
                         const std::vector<ff::Fr>& publics,
                         const plonk::Proof& proof) const {
  const plonk::KeyPairResult* keys = find_keys(shape_id);
  // zkdet-lint: allow(unbatched-verify) reviewed: off-chain client check
  return keys != nullptr && plonk::verify(keys->vk, publics, proof);
}

runtime::ProofJob ZkdetSystem::proof_job(const std::string& shape_id,
                                         const plonk::ConstraintSystem& cs,
                                         std::vector<ff::Fr> witness) {
  keys_for(shape_id, cs);  // preprocess on the caller's thread
  runtime::ProofJob job;
  job.circuit_id = shape_id;
  job.cs = std::make_shared<const plonk::ConstraintSystem>(cs);
  job.witness = std::move(witness);
  job.rng = crypto::Drbg("zkdet-proof-job", rng_());
  return job;
}

std::optional<plonk::Proof> ZkdetSystem::prove(
    const std::string& shape_id, const plonk::ConstraintSystem& cs,
    std::vector<ff::Fr> witness) {
  // Bounded retry: a worker crash (prover.job fail-point) is retried
  // with the same job — same blinder rng, so the recovered proof is
  // byte-identical to what the crashed attempt would have produced.
  return prover_.prove(proof_job(shape_id, cs, std::move(witness))).proof;
}

}  // namespace zkdet::core
