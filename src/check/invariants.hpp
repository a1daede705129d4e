// Domain invariant checkers for the arithmetic substrate.
//
// Predicates here answer "is this value structurally sound?" — callers
// wire them into ZKDET_CHECK / ZKDET_ASSERT at the tier matching their
// cost. Everything is header-only (templates over the field/curve
// types); the checkers themselves never fail a check, they only report.
//
// Cost guide:
//   canonical / tower checks    O(1) limb compares      -> any tier
//   on-curve                    a handful of field muls -> any tier
//   G2 subgroup (psi vs 6x^2)   one 127-bit scalar mul  -> guards pairings
//   permutation audit           O(n) with a seen-bitmap -> ZKDET_ASSERT
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "check/check.hpp"
#include "ec/curve.hpp"
#include "ff/bn254.hpp"
#include "ff/fp12.hpp"
#include "ff/fp2.hpp"

namespace zkdet::check {

// --- Field canonicality -------------------------------------------------
// Montgomery representations are only meaningful when the raw value is
// fully reduced; a non-canonical limb vector silently corrupts every
// subsequent product.

template <typename Params>
[[nodiscard]] bool is_canonical(const ff::Fp_<Params>& x) {
  return ff::u256_less(x.raw(), ff::Fp_<Params>::MOD);
}

[[nodiscard]] inline bool is_canonical(const ff::Fp2& x) {
  return is_canonical(x.a) && is_canonical(x.b);
}

// Tower consistency: an Fp12 is sound iff both Fp6 halves, hence all six
// Fp2 coefficients and all twelve underlying Fp limbs, are canonical.
[[nodiscard]] inline bool is_canonical(const ff::Fp6& x) {
  return is_canonical(x.c0) && is_canonical(x.c1) && is_canonical(x.c2);
}
[[nodiscard]] inline bool is_canonical(const ff::Fp12& x) {
  return is_canonical(x.c0) && is_canonical(x.c1);
}

template <typename F>
[[nodiscard]] bool all_canonical(std::span<const F> xs) {
  for (const F& x : xs) {
    if (!is_canonical(x)) return false;
  }
  return true;
}

// --- Curve membership ---------------------------------------------------

// BN-254 G1 has cofactor 1: every point on E(Fp) is in the r-torsion,
// so on-curve is the whole subgroup check.
[[nodiscard]] inline bool in_g1(const ec::G1& p) { return p.on_curve(); }
[[nodiscard]] inline bool in_g1(const ec::G1Affine& p) { return p.on_curve(); }

// E'(Fp2) has a large cofactor; a point can sit on the twist yet outside
// the order-r subgroup, which breaks pairing bilinearity. Full check:
// on-curve plus subgroup membership. For a point on the BN-254 twist,
// membership is equivalent to psi(Q) == [6x^2]Q (El Housni, Guillevic,
// Piellard 2022): psi acts as [p] on G2 and p == 6x^2 (mod r). The scalar
// has 127 bits, half the length of r.
[[nodiscard]] inline bool on_g2_curve(const ec::G2& p) { return p.on_curve(); }
[[nodiscard]] inline bool in_g2_subgroup(const ec::G2& p) {
  constexpr unsigned __int128 k =
      static_cast<unsigned __int128>(ff::kBnX) * ff::kBnX * 6;  // < 2^127
  const ff::U256 six_x_sq{static_cast<std::uint64_t>(k),
                          static_cast<std::uint64_t>(k >> 64), 0, 0};
  return ec::g2_psi(p) == p.mul(six_x_sq);
}
[[nodiscard]] inline bool in_g2(const ec::G2& p) {
  return p.on_curve() && in_g2_subgroup(p);
}

// --- NTT domains --------------------------------------------------------

// A radix-2 evaluation domain exists iff the size is a power of two no
// larger than the field's 2-adic subgroup.
[[nodiscard]] inline bool valid_ntt_domain(std::size_t size) {
  if (size == 0 || (size & (size - 1)) != 0) return false;
  std::size_t log = 0;
  while ((std::size_t{1} << log) < size) ++log;
  return log <= ff::Fr::TWO_ADICITY;
}

// --- Plonk permutation --------------------------------------------------

// The copy-constraint argument is only sound when sigma is a genuine
// permutation of the 3n wire slots: every slot hit exactly once.
template <typename Int>
[[nodiscard]] bool is_permutation(std::span<const Int> sigma,
                                  std::size_t slots) {
  if (sigma.size() != slots) return false;
  std::vector<bool> seen(slots, false);
  for (const Int s : sigma) {
    if (static_cast<std::size_t>(s) >= slots ||
        seen[static_cast<std::size_t>(s)]) {
      return false;
    }
    seen[static_cast<std::size_t>(s)] = true;
  }
  return true;
}

// Grand-product postcondition: the permutation accumulator must close to
// one after the full cycle, else the copy constraints do not hold.
[[nodiscard]] inline bool grand_product_closes(const ff::Fr& closing) {
  return closing == ff::Fr::one();
}

}  // namespace zkdet::check
