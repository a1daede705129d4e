// Asynchronous proof-job service with a proving/verifying-key cache.
//
// ProverService turns plonk::prove into a queued job: submit() enqueues
// the job on the shared ThreadPool and returns a future; prove() waits
// for it, retrying injected worker crashes. The expensive per-circuit
// preprocessing (SRS-sized selector/sigma commitments) is paid once per
// circuit id and kept for the service's lifetime, so a marketplace
// serving many proofs over a few circuit shapes amortizes setup the way
// the paper's deployment compiles each Circom circuit once. The SRS's
// batch-normalized affine power table (the base vector of every
// commit() MSM) is warmed at construction, so it too is built once per
// SRS rather than once per proof.
//
// Determinism contract: a job carries its own Drbg, so the blinder
// stream consumed by a proof is a function of the job alone — the same
// (circuit, witness, rng seed) yields byte-identical proofs at any
// worker count (tests/test_runtime.cpp asserts this at 1/2/8).
#pragma once

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/mutex.hpp"
#include "crypto/rng.hpp"
#include "plonk/plonk.hpp"
#include "runtime/retry.hpp"

namespace zkdet::runtime {

// One unit of proving work. `cs` is shared immutably with the worker;
// `rng` seeds the proof's blinders (copied in, consumed by the job).
struct ProofJob {
  std::string circuit_id;  // key cache key; must encode all size params
  std::shared_ptr<const plonk::ConstraintSystem> cs;
  std::vector<ff::Fr> witness;
  crypto::Drbg rng{0};
};

// Why a proof job produced no proof. kInjectedFault is the only
// transient class (a simulated worker crash via the prover.job
// fail-point); the others are permanent properties of the job and are
// never retried.
enum class ProveError : std::uint8_t {
  kNone = 0,
  kSrsTooSmall = 1,        // circuit domain exceeds the service's SRS
  kUnsatisfiedWitness = 2,  // witness does not satisfy the circuit
  kInjectedFault = 3,       // worker died (fault injection); retryable
};

[[nodiscard]] const char* prove_error_name(ProveError e);

// Terminal result of a job, possibly after retries. A failed job is
// never silently lost: either `proof` is set or `error` says why not,
// and `attempts` records how much work it took.
struct ProveOutcome {
  std::optional<plonk::Proof> proof;
  ProveError error = ProveError::kNone;
  int attempts = 0;
  // Virtual backoff recorded between attempts (never slept; see
  // runtime/retry.hpp).
  std::uint64_t backoff_us = 0;
};

class ProverService {
 public:
  // `srs` must outlive the service.
  explicit ProverService(const plonk::Srs& srs) : srs_(srs) {}

  // Returns the keys for `circuit_id`, preprocessing `cs` on first use.
  // Concurrent misses for the same id deduplicate: one caller
  // preprocesses, the rest wait on its result. Keys are never evicted,
  // so the returned pointer stays valid for the service's lifetime.
  // Returns nullptr (and caches nothing) when the SRS is too small for
  // the circuit.
  std::shared_ptr<const plonk::KeyPairResult> keys_for(
      const std::string& circuit_id, const plonk::ConstraintSystem& cs);

  // Lookup-only: nullptr when absent or still being preprocessed.
  [[nodiscard]] std::shared_ptr<const plonk::KeyPairResult> find_keys(
      const std::string& circuit_id) const;

  // Enqueues one attempt of the job on the shared ThreadPool. The
  // outcome's error distinguishes a transient failure (injected fault)
  // from a permanent one. Runs inline when the pool is single-threaded
  // or the caller is itself a pool worker (a blocking wait there would
  // starve the pool).
  std::future<ProveOutcome> submit(ProofJob job);

  // submit() + wait, retrying transient failures up to
  // policy.max_attempts total attempts. Permanent errors (bad witness,
  // SRS too small) return immediately. The returned outcome is always
  // conclusive: a proof, or a typed error after the attempt budget.
  ProveOutcome prove(const ProofJob& job, BackoffPolicy policy = {});

 private:
  using KeyPtr = std::shared_ptr<const plonk::KeyPairResult>;

  const plonk::Srs& srs_;

  mutable Mutex m_{check::LockLevel::kProverCache, "prover.key-cache"};
  // One entry per circuit id: ready once its preprocessing published,
  // pending while the first caller for the id still preprocesses.
  std::unordered_map<std::string, std::shared_future<KeyPtr>> keys_
      ZKDET_GUARDED_BY(m_);
};

}  // namespace zkdet::runtime
