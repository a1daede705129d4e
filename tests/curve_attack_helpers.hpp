// Helpers for building structurally invalid curve points: off-curve
// coordinates and — the interesting case — points on the G2 twist that
// lie outside the order-r subgroup. E'(Fp2) has a ~2^254 cofactor, so a
// point derived from an arbitrary x-coordinate is (overwhelmingly) not
// in the subgroup; we solve y^2 = x^3 + b' directly with an Fp2 square
// root (p == 3 mod 4).
#pragma once

#include "check/invariants.hpp"
#include "ec/curve.hpp"
#include "ff/bn254.hpp"
#include "ff/fp2.hpp"

namespace zkdet::test {

using ec::G1;
using ec::G2;
using ff::Fp;
using ff::Fp2;
using ff::U256;

// sqrt in Fp for p == 3 mod 4: c^((p+1)/4), validated by squaring.
inline bool fp_sqrt(const Fp& c, Fp& out) {
  U256 e = Fp::MOD;
  ff::u256_add(e, e, U256{1});
  for (std::size_t j = 0; j < 4; ++j) {  // e >>= 2
    e.limb[j] >>= 2;
    if (j + 1 < 4) e.limb[j] |= e.limb[j + 1] << 62;
  }
  const Fp r = c.pow(e);
  if (r.square() != c) return false;
  out = r;
  return true;
}

// sqrt in Fp2 = Fp[u]/(u^2+1) via the norm: c = a + bu is square iff
// N(c) = a^2 + b^2 is a QR in Fp.
inline bool fp2_sqrt(const Fp2& c, Fp2& out) {
  if (c.b.is_zero()) {
    Fp r;
    if (fp_sqrt(c.a, r)) {
      out = Fp2{r, Fp::zero()};
      return true;
    }
    if (fp_sqrt(-c.a, r)) {
      out = Fp2{Fp::zero(), r};  // (ru)^2 = -r^2 = a
      return true;
    }
    return false;
  }
  Fp s;
  if (!fp_sqrt(c.a.square() + c.b.square(), s)) return false;
  const Fp half = Fp::from_u64(2).inverse();
  Fp t = (c.a + s) * half;
  Fp x;
  if (!fp_sqrt(t, x)) {
    t = (c.a - s) * half;
    if (!fp_sqrt(t, x)) return false;
  }
  const Fp y = c.b * half * x.inverse();
  out = Fp2{x, y};
  return out.square() == c;
}

// A point on the twist E'(Fp2) but outside the order-r subgroup.
inline G2 wrong_subgroup_g2() {
  for (std::uint64_t i = 1; i < 1000; ++i) {
    const Fp2 x{Fp::from_u64(i), Fp::one()};
    const Fp2 rhs = x.square() * x + ec::G2Traits::b();
    Fp2 y;
    if (!fp2_sqrt(rhs, y)) continue;
    const G2 p = G2::from_affine(x, y);
    if (p.on_curve() && !check::in_g2_subgroup(p)) return p;
  }
  // Unreachable for BN-254: about half of all x give a point, and the
  // subgroup has density 1/cofactor ~ 2^-254.
  return G2::identity();
}

// Coordinates that satisfy no curve equation.
inline G1 off_curve_g1() {
  return G1::from_affine(Fp::one(), Fp::one());  // 1 != 1 + 3
}
// The same coordinates in the stored (affine) form of proof points.
inline ec::G1Affine off_curve_g1_affine() {
  return ec::G1Affine{Fp::one(), Fp::one()};
}
inline G2 off_curve_g2() { return G2::from_affine(Fp2::one(), Fp2::one()); }

}  // namespace zkdet::test
