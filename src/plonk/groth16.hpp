// Groth16 (EUROCRYPT'16) over BN-254 — the baseline proving system.
//
// The ZKCP protocol the paper compares against (its reference [10],
// Campanelli et al.) instantiates its NIZK with Groth16, whose verifier
// performs 3 pairings plus an ell-term G1 multi-scalar multiplication
// over the public inputs; ZKDET's Fig. 7 argues Plonk's O(1) verifier
// wins as statements grow. This is a complete Groth16: per-circuit
// trusted setup over the same ConstraintSystem front end (gates are
// converted to R1CS rows), QAP-based prover, 4-pairing-product verifier.
//
// Trade-offs vs Plonk illustrated here (bench_ablation_provers):
//   + smaller proofs (2 G1 + 1 G2 = 256 bytes vs 768)
//   + faster prover (3 MSMs vs ~11)
//   - per-circuit trusted setup (vs universal SRS)
//   - verification grows with the public input count
#pragma once

#include <optional>

#include "plonk/constraint_system.hpp"
#include "plonk/srs.hpp"

namespace zkdet::plonk::groth16 {

using ec::G1;
using ec::G1Affine;
using ec::G2;
using ec::G2Affine;
using ff::Fr;

struct Proof {
  G1 a;
  G2 b;
  G1 c;

  [[nodiscard]] static constexpr std::size_t size_bytes() {
    return 2 * 64 + 128;
  }
};

struct VerifyingKey {
  G1 alpha_g1;
  G2 beta_g2;
  G2 gamma_g2;
  G2 delta_g2;
  std::vector<G1Affine> ic;  // [(beta A_i + alpha B_i + C_i)/gamma]_1, statement vars
};

struct ProvingKey {
  std::size_t num_constraints = 0;
  std::size_t domain_size = 0;
  std::size_t num_statement = 0;  // 1 + ell (the leading one-variable)

  G1 alpha_g1, beta_g1, delta_g1;
  G2 beta_g2, delta_g2;
  // MSM bases, stored affine (batch-normalised once by setup).
  std::vector<G1Affine> a_query;   // [A_i(tau)]_1, all variables
  std::vector<G1Affine> b_g1_query;
  std::vector<G2Affine> b_g2_query;
  std::vector<G1Affine> l_query;   // [(beta A_i + alpha B_i + C_i)/delta]_1, aux vars
  std::vector<G1Affine> h_query;   // [tau^i Z(tau)/delta]_1

  VerifyingKey vk;
};

struct KeyPairResult {
  ProvingKey pk;
  VerifyingKey vk;
};

// Per-circuit trusted setup (the limitation the paper's Plonk choice
// avoids; toxic waste is discarded on return).
std::optional<KeyPairResult> setup(const ConstraintSystem& cs,
                                   crypto::Drbg& rng);

std::optional<Proof> prove(const ProvingKey& pk, const ConstraintSystem& cs,
                           const std::vector<Fr>& witness, crypto::Drbg& rng);

// 3-pairing check (batched as one 4-way product) + ell-term MSM.
bool verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs,
            const Proof& proof);

}  // namespace zkdet::plonk::groth16
