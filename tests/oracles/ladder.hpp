// Test-only differential oracle for constant-time scalar multiplication:
// the Montgomery ladder that signed Schnorr keys and nonces before the
// fixed-base constant-time path (ec::g1_mul_generator_ct) replaced it.
// A fixed 256 iterations, each two constant-shape conditional swaps (a
// masked XOR over the raw Montgomery limbs) around one add and one
// double. It shares nothing with the fixed-base path but the group law.
#pragma once

#include <cstdint>

#include "ec/curve.hpp"

namespace zkdet::oracle {

namespace detail {

inline void ct_swap(ff::Fp& a, ff::Fp& b, std::uint64_t mask) {
  ff::U256 va = a.raw();
  ff::U256 vb = b.raw();
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t t = mask & (va.limb[i] ^ vb.limb[i]);
    va.limb[i] ^= t;
    vb.limb[i] ^= t;
  }
  a = ff::Fp::from_raw(va);
  b = ff::Fp::from_raw(vb);
}

inline void ct_swap(ff::Fp2& a, ff::Fp2& b, std::uint64_t mask) {
  ct_swap(a.a, b.a, mask);
  ct_swap(a.b, b.b, mask);
}

template <typename Traits>
void ct_swap(ec::Point<Traits>& a, ec::Point<Traits>& b, std::uint64_t mask) {
  ct_swap(a.X, b.X, mask);
  ct_swap(a.Y, b.Y, mask);
  ct_swap(a.Z, b.Z, mask);
}

}  // namespace detail

// k * p by the ladder; the invariant r1 - r0 == p holds at every step.
template <typename Traits>
ec::Point<Traits> mul_ladder(const ec::Point<Traits>& p, const ff::U256& k) {
  ec::Point<Traits> r0 = ec::Point<Traits>::identity();
  ec::Point<Traits> r1 = p;
  for (std::size_t i = 256; i-- > 0;) {
    const std::uint64_t bit = (k.limb[i / 64] >> (i % 64)) & 1u;
    const std::uint64_t mask = ~(bit - 1);  // 0 -> 0, 1 -> ~0
    detail::ct_swap(r0, r1, mask);
    r1 = r0 + r1;
    r0 = r0.dbl();
    detail::ct_swap(r0, r1, mask);
  }
  return r0;
}

template <typename Traits>
ec::Point<Traits> mul_ladder(const ec::Point<Traits>& p, const ff::Fr& k) {
  return mul_ladder(p, k.to_canonical());
}

}  // namespace zkdet::oracle
