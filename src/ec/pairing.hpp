// Optimal ate pairing on BN-254.
//
//   e : G1 x G2 -> mu_r in Fp12,
//   e(P, Q) = (f_{6x+2,Q}(P) * l_{T,pi(Q)}(P) * l_{T+pi(Q),-pi^2(Q)}(P))^((p^12-1)/r)
//
// with T = [6x+2]Q and pi the p-power Frobenius carried to the twist
// (ec::g2_psi). The Miller loop walks the signed (NAF) digits of 6x + 2:
// 65 doubling steps and 21 addition steps, then the two Frobenius-twisted
// addition steps. G2 stays on the twist in homogeneous projective
// coordinates, so no step inverts; each step yields a line
// a + b w + c w^3 (a, b scaled by yP, xP) that enters f through the
// sparse Fp12::mul_by_034. The line coefficients depend on Q alone, so
// G2Prepared computes them once and any number of Miller loops reuse
// them. The final exponentiation splits into the easy part
// (p^6 - 1)(p^2 + 1) (a conjugate, one inversion, one Frobenius) and the
// hard part (p^4 - p^2 + 1)/r, computed with the Fuentes-Castaneda et al.
// addition chain: three exponentiations by x over cyclotomic squarings.
// That chain raises to a fixed multiple 2x(6x^2 + 3x + 1) of the hard
// part, coprime to r, so the map stays bilinear and non-degenerate and
// every "product equals one" verdict is the reduced pairing's.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ec/curve.hpp"
#include "ff/fp12.hpp"

namespace zkdet::ec {

using ff::Fp12;

// A validated G2 point together with the line coefficients of its Miller
// loop (88 lines, ~17 KB). Immutable once built.
class G2Prepared {
 public:
  // Always-on validation: CheckFailure (via ZKDET_CHECK) unless q is on
  // the twist and in the order-r subgroup.
  explicit G2Prepared(const G2& q);

  // Non-failing variant for untrusted points: nullopt unless q is in G2.
  [[nodiscard]] static std::optional<G2Prepared> try_prepare(const G2& q);

  // The source point the lines were computed from.
  [[nodiscard]] const G2& point() const { return point_; }

  struct Line {
    ff::Fp2 a, b, c;  // evaluates to a*yP + b*xP w + c w^3
  };
  [[nodiscard]] const std::vector<Line>& lines() const { return lines_; }

 private:
  struct Validated {};
  G2Prepared(const G2& q, Validated);

  G2 point_;
  std::vector<Line> lines_;  // empty for the identity
};

// One term of a pairing product over prepared G2 points; the pointee must
// outlive the call.
using PreparedPair = std::pair<G1, const G2Prepared*>;

// prod_i f_i(P_i) over prepared points, sharing one Fp12 accumulator
// (one squaring per step for all pairs). G1 inputs are validated
// (ZKDET_CHECK); identity inputs contribute 1.
Fp12 miller_loop(std::span<const PreparedPair> pairs);

// Miller loop of a single pair (no final exponentiation); multiply several
// of these together before a single shared final exponentiation. Both
// inputs are validated on every call.
Fp12 miller_loop(const G1& p, const G2& q);

// Full optimal ate pairing. Returns 1 for identity inputs.
Fp12 pairing(const G1& p, const G2& q);

// Checks e(a1, a2) * e(b1, b2) == 1 with one shared final exponentiation.
// The standard KZG verification shape: pass b1 = -C.
bool pairing_product_is_one(const G1& a1, const G2& a2, const G1& b1,
                            const G2& b2);

// General product check over any number of pairs (Groth16 uses four).
bool pairing_product_is_one(std::span<const std::pair<G1, G2>> pairs);

// Product check over prepared G2 points: the verifier's hot path.
bool pairing_product_is_one(std::span<const PreparedPair> pairs);

// f^((p^12-1)/r) up to the fixed, r-coprime power described above.
Fp12 final_exponentiation(const Fp12& f);

}  // namespace zkdet::ec
