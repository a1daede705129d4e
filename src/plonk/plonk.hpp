// Plonk (GWC19, ePrint 2019/953) over BN-254 with KZG commitments.
//
// The paper's NIZK backend: universal SRS, O(n log n) prover, constant
// proof size (9 G1 + 6 Fr = 768 bytes raw) and constant-time verifier
// (2 pairings + O(1) group operations + an O(ell) field-only public
// input evaluation) — the properties Figs. 5-7 measure.
//
// preprocess() builds the proving/verifying keys for a constraint
// system; prove()/verify() implement the 5-round protocol made
// non-interactive with a SHA-256 Fiat-Shamir transcript.
#pragma once

#include <memory>
#include <optional>

#include "ec/pairing.hpp"
#include "plonk/constraint_system.hpp"
#include "plonk/srs.hpp"
#include "plonk/transcript.hpp"
#include "ff/ntt.hpp"
#include "ff/polynomial.hpp"

namespace zkdet::plonk {

using ff::EvaluationDomain;
using ff::Polynomial;

struct Proof {
  G1 cm_a, cm_b, cm_c;          // wire commitments
  G1 cm_z;                      // permutation grand product
  G1 cm_t_lo, cm_t_mid, cm_t_hi;  // split quotient
  G1 w_zeta, w_zeta_omega;      // KZG opening proofs
  Fr eval_a, eval_b, eval_c;    // wire evaluations at zeta
  Fr eval_s1, eval_s2;          // sigma evaluations at zeta
  Fr eval_z_omega;              // z(zeta * omega)

  // Raw serialized size: 9 uncompressed G1 + 6 Fr.
  [[nodiscard]] static constexpr std::size_t size_bytes() {
    return 9 * 64 + 6 * 32;
  }
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  // Rejects wrong-length encodings, off-curve points and non-canonical
  // field elements.
  [[nodiscard]] static std::optional<Proof> from_bytes(
      std::span<const std::uint8_t> bytes);
};

// [1]_2 and [tau]_2 with their Miller-loop lines precomputed; building it
// validates both points (ec::G2Prepared).
struct PreparedG2Pair {
  ec::G2Prepared gen, tau;

  // True iff the lines were computed from exactly these points.
  [[nodiscard]] bool matches(const G2& g2_gen, const G2& g2_tau) const {
    return gen.point() == g2_gen && tau.point() == g2_tau;
  }
};

struct VerifyingKey {
  std::size_t n = 0;    // domain size
  std::size_t ell = 0;  // number of public inputs
  Fr k1, k2;            // wire cosets
  G1 cm_qm, cm_ql, cm_qr, cm_qo, cm_qc;
  G1 cm_s1, cm_s2, cm_s3;
  G2 g2_gen, g2_tau;
  // Prepared once per key by preprocess() / prepare_g2(), shared by
  // copies of the key. The verifier uses it only while matches(g2_gen,
  // g2_tau) holds; a missing or stale pair is prepared (and validated)
  // afresh on each call.
  std::shared_ptr<const PreparedG2Pair> g2_prepared;

  void bind_transcript(Transcript& t) const;
};

// Prepares vk.g2_gen / vk.g2_tau into vk.g2_prepared unless the cached
// pair is current. Leaves it null when either point is not in G2 (such a
// key verifies nothing).
void prepare_g2(VerifyingKey& vk);

struct ProvingKey {
  std::size_t n = 0;
  std::size_t ell = 0;
  Fr k1, k2;
  std::shared_ptr<EvaluationDomain> domain;      // size n
  std::shared_ptr<EvaluationDomain> ext_domain;  // size 4n (quotient coset)
  Fr coset_shift;

  Polynomial qm, ql, qr, qo, qc;  // selector polynomials
  Polynomial s1, s2, s3;          // sigma polynomials
  std::vector<Fr> s1_evals, s2_evals, s3_evals;  // on the n-domain

  // Per-row variable ids for the three wire columns (padded to n rows).
  std::vector<Var> wire_a, wire_b, wire_c;

  VerifyingKey vk;
};

struct KeyPairResult {
  ProvingKey pk;
  VerifyingKey vk;
};

// Builds keys for `cs` against `srs`. Fails (nullopt) if the SRS is too
// small for the circuit's padded domain.
std::optional<KeyPairResult> preprocess(const ConstraintSystem& cs,
                                        const Srs& srs);

// Produces a proof for `witness` (witness[i] = value of variable i).
// The witness must satisfy the circuit; violations are detected and
// reported as nullopt rather than producing an invalid proof.
std::optional<Proof> prove(const ProvingKey& pk, const ConstraintSystem& cs,
                           const Srs& srs, const std::vector<Fr>& witness,
                           crypto::Drbg& rng);

// Constant-time (in circuit size) verification.
bool verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs,
            const Proof& proof);

// The pairing check a proof reduces to after all transcript, scalar and
// MSM work: accept iff e(lhs, [tau]_2) * e(-rhs, [1]_2) == 1, with
// lhs = W_zeta + u W_zeta_omega and rhs the verifier's 18-term MSM.
struct PairingCheck {
  G1 lhs, rhs;
};

// Runs every verification step except the final pairing; nullopt on any
// structural failure (wrong public input count, off-curve point, zeta in
// the domain). verify() == prepare + one pairing product.
std::optional<PairingCheck> verify_prepare(const VerifyingKey& vk,
                                           const std::vector<Fr>& public_inputs,
                                           const Proof& proof);

// One proof in a batch-verification call. Pointed-to data must outlive
// the call; verifying keys may differ per entry. Entries sharing the
// SRS (identical [1]_2 / [tau]_2) fold into one pairing product;
// entries under a foreign SRS are grouped and checked separately
// rather than poisoning the batch.
struct BatchEntry {
  const VerifyingKey* vk = nullptr;
  const std::vector<Fr>* public_inputs = nullptr;
  const Proof* proof = nullptr;
};

// Per-entry outcome of an attributed batch verification.
struct BatchResult {
  // ok[i] != 0 iff entry i verifies (same verdict plain verify() would
  // return for that entry alone).
  std::vector<std::uint8_t> ok;
  // 2-pairing products actually evaluated: one per all-valid SRS group,
  // plus the bisection probes needed to attribute failures.
  std::size_t pairing_checks = 0;
  // Distinct (g2_gen, g2_tau) groups folded.
  std::size_t srs_groups = 0;

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] std::size_t invalid_count() const;
};

// Attributed batch verification: folds the per-proof pairing checks
// with Fiat-Shamir-derived random weights into one 2-pairing product
// per SRS group, and on fold failure bisects (fresh weights per
// sub-batch) until every invalid entry is individually attributed —
// honest entries in a batch with a forged one still verify. The fold
// works on scalars: each entry's check stays a list of (scalar, base)
// terms, terms over one base (a shared key's commitment, the generator)
// merge, and each side of the product is ONE MSM. Weights come from
// fold_weights, so duplicate entries draw distinct weights and cannot
// cancel. A batch of one skips the fold and runs the exact pairing
// check verify() runs. A forged proof escapes a fold only with
// probability ~1/r. Time spent is counted in the verify_ns counter.
BatchResult batch_verify_attributed(std::span<const BatchEntry> entries);

// The fold weights of a (sub-)batch: weight k belongs to the entry at
// batch position positions[k] whose verifier transcript ended in
// states[k]. That state binds the entry's key, public inputs and every
// proof element; each weight hashes every (position, state) pair of the
// (sub-)batch. Exposed for tests.
std::vector<Fr> fold_weights(std::span<const Transcript::State> states,
                             std::span<const std::size_t> positions);

// Accepts iff every entry verifies (batch_verify_attributed().all_ok()).
bool batch_verify(std::span<const BatchEntry> entries);

}  // namespace zkdet::plonk
