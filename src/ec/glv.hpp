// The GLV endomorphism of BN-254 G1 (Gallant, Lambert and Vanstone,
// CRYPTO 2001).
//
// With beta a primitive cube root of unity in Fp, phi(x, y) = (beta x, y)
// maps E(Fp) to itself, and on G1 it acts as multiplication by lambda, a
// primitive cube root of unity in Fr: phi(P) = lambda P. G1 has cofactor
// 1, so this holds for every point on the curve. Splitting a scalar as
// k = k1 + lambda k2 (mod r) with |k1|, |k2| < 2^128 turns k P into
// k1 P + k2 phi(P): two half-length scalars, which is how the G1 MSM
// (ec/msm.cpp) halves its windows.
//
// beta, lambda and the short lattice basis behind glv_split are derived
// once per process from p, r and the group generator; nothing is
// transcribed.
#pragma once

#include <cstddef>

#include "ec/curve.hpp"

namespace zkdet::ec {

// Bit width of the half-scalars glv_split returns: |k1|, |k2| < 2^128.
inline constexpr std::size_t kGlvScalarBits = 128;

// beta in Fp and lambda in Fr, paired so that (beta x, y) = lambda (x, y)
// on G1.
const ff::Fp& glv_beta();
const Fr& glv_lambda();

// k = (neg1 ? -k1 : k1) + lambda (neg2 ? -k2 : k2) mod r, with the
// magnitudes k1, k2 < 2^kGlvScalarBits.
struct GlvSplit {
  U256 k1;
  U256 k2;
  bool neg1 = false;
  bool neg2 = false;
};

// Splits a canonical scalar k < r.
GlvSplit glv_split(const U256& k);

}  // namespace zkdet::ec
