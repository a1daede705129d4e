// Pre-execution proof claims for batched settlement.
//
// A settlement tx that will verify a Plonk proof on-chain attaches a
// ProofClaim — the exact (vk, statement, proof) triple its closure will
// hand to PlonkVerifierContract::verify. Chain::execute_batch folds
// every included claim of a batch into ONE attributed pairing check
// before execution (stage 2½), and the verifier contract consumes the
// per-tx verdict instead of re-running the pairing, charging each valid
// claim an equal share of the shared pairing cost. A claim that does
// not match what the closure actually verifies is simply ignored
// (the contract falls back to full inline verification at full price),
// so a lying claim buys nothing.
#pragma once

#include <cstddef>
#include <vector>

#include "ff/bn254.hpp"
#include "plonk/plonk.hpp"

namespace zkdet::chain {

struct ProofClaim {
  // Must point at the verifying key held by the verifier contract the
  // closure calls (identity comparison, no copy), alive for the tx.
  const plonk::VerifyingKey* vk = nullptr;
  std::vector<ff::Fr> public_inputs;
  plonk::Proof proof;
};

// Outcome of the batch claim-verification stage for one tx.
struct ClaimVerdict {
  const ProofClaim* claim = nullptr;  // nullptr = tx carried no claim
  bool valid = false;                 // attributed per-entry verdict
  std::size_t batch_claims = 0;       // claims folded in this tx's batch
};

}  // namespace zkdet::chain
