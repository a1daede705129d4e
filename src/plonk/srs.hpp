// KZG structured reference string (the "universal setup").
//
// The paper uses the Perpetual Powers of Tau ceremony output; here the
// SRS is generated from local randomness and the trapdoor discarded
// (DESIGN.md substitution #3). A single SRS of size N supports every
// circuit with at most N-6 constraints — the "universal & updatable"
// property that motivates Plonk in the paper.
//
// The G1 powers are stored affine, batch-normalized once by setup() (one
// field inversion for the whole table): every read is an affine-base
// MSM in commit(). After setup the SRS is immutable and is shared by
// concurrent provers without a lock.
#pragma once

#include <cstddef>
#include <vector>

#include "crypto/rng.hpp"
#include "ec/curve.hpp"
#include "ec/msm.hpp"
#include "ff/polynomial.hpp"

namespace zkdet::plonk {

using ec::G1;
using ec::G1Affine;
using ec::G2;
using ff::Fr;
using ff::Polynomial;

struct Srs {
  std::vector<G1Affine> g1_powers;  // [tau^i]_1, i in [0, max_degree]
  G2 g2_gen;                        // [1]_2
  G2 g2_tau;                        // [tau]_2

  [[nodiscard]] static Srs setup(std::size_t max_degree, crypto::Drbg& rng);

  // Largest committable degree; 0 for an empty (default-constructed)
  // SRS — the unguarded `size() - 1` underflowed to 2^64-1 and let
  // preprocess() walk past the end of g1_powers.
  [[nodiscard]] std::size_t max_degree() const {
    return g1_powers.empty() ? 0 : g1_powers.size() - 1;
  }

  // KZG commitment to a coefficient-form polynomial, affine: the one
  // place a commitment leaves Jacobian form. The zero polynomial (empty
  // coefficients) commits to the identity.
  [[nodiscard]] G1Affine commit(const Polynomial& p) const;
  [[nodiscard]] G1Affine commit(std::span<const Fr> coeffs) const;
};

}  // namespace zkdet::plonk
