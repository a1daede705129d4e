// Test-only differential oracle for the pairing: the reduced Tate
// pairing the verifier used before the optimal-ate rewrite.
//
//   e_T : G1 x G2 -> mu_r in Fp12,  e_T(P, Q) = f_{r,P}(psi(Q))^((p^12-1)/r)
//
// with psi the untwist (x, y) -> (x w^2, y w^3). The Miller loop runs over
// the 254-bit group order r in affine G1 coordinates (two field
// inversions per step); vertical lines land in Fp6 and are dropped
// (denominator elimination). The final exponent is one ~2,800-bit
// integer applied by square-and-multiply. Everything here is slow and
// deliberately simple: it shares only the field tower and the curve
// group law with src/ec/pairing.cpp, so agreement of accept/reject
// verdicts between the two is evidence for the fast path.
//
// e_T is a different (but equally bilinear, non-degenerate) pairing
// than the optimal ate pairing: values differ, product-equals-one
// verdicts must not.
#pragma once

#include <span>
#include <utility>

#include "ec/curve.hpp"
#include "ff/fp12.hpp"
#include "oracles/bigint.hpp"

namespace zkdet::oracle {

using ec::G1;
using ec::G2;
using ff::Fp12;

// (p^12 - 1) / r, computed once.
const BigUInt& tate_final_exponent();

// Plain square-and-multiply over a big exponent.
Fp12 pow_big(const Fp12& x, const BigUInt& e);

// Miller function f_{r,P} evaluated at psi(Q); 1 for identity inputs.
// Inputs must be valid group elements (ZKDET_CHECK otherwise).
Fp12 tate_miller_loop(const G1& p, const G2& q);

Fp12 tate_final_exponentiation(const Fp12& f);

Fp12 tate_pairing(const G1& p, const G2& q);

// prod_i e_T(P_i, Q_i) == 1 with one shared final exponentiation.
bool tate_product_is_one(std::span<const std::pair<G1, G2>> pairs);

// The subgroup check by definition: [r]Q == O.
bool in_g2_subgroup_by_order(const G2& q);

}  // namespace zkdet::oracle
