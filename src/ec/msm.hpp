// Multi-scalar multiplication (Pippenger's bucket method) over G1/G2.
//
// The Plonk prover's hot loop is committing polynomials: an n-term MSM
// against the SRS powers. The production path works on affine bases
// (precomputed tables: SRS powers, fixed-base generator windows) with
// signed-digit windows — digits in [-2^(c-1), 2^(c-1)], so negating an
// affine base (free: (x, -y)) halves the bucket count and memory.
// Buckets accumulate in one of two ways, chosen by input size and window
// position only:
//   - full-width windows with at least 256 buckets: batch-affine
//     buckets. Up to 256 pending bucket adds share one batch inversion,
//     ~6 field muls per add plus its share of the inversion; a base
//     whose bucket is busy waits one batch, and what cannot wait (or is
//     a doubling/cancellation) goes to a Jacobian overflow.
//   - small inputs (e.g. the verifier's 18-term MSM) and the top window,
//     whose few live buckets would make most bases wait: Jacobian
//     buckets, one mixed add (~11 field muls) per base.
// The window model prices both kinds. G1 MSMs split every scalar by GLV
// (ec/glv.hpp) and hand the engine 2n bases with 128-bit scalars; G2
// MSMs keep the full 254-bit scalars.
// Windows are distributed over the shared runtime::ThreadPool from 256
// caller terms up (each window is independent; only the final
// Horner-style combine is sequential). Smaller inputs run serially on
// the calling thread — task dispatch would dominate.
#pragma once

#include <span>
#include <vector>

#include "ec/curve.hpp"

namespace zkdet::ec {

// Hard per-window bucket-memory bound: window width is chosen so one
// window's bucket array never exceeds this, regardless of n. (Before
// this cap a c = 16 window allocated (2^16 - 1) Jacobian G2 buckets,
// ~19 MB per window per pool worker.)
inline constexpr std::size_t kMsmMaxBucketBytes = 1u << 20;

// BN-254 scalars are < r < 2^254.
inline constexpr std::size_t kScalarBits = 254;

// Signed-digit window width for an n-term bucket MSM over points of
// `point_bytes` each and scalars below 2^scalar_bits;
// (1 << (c - 1)) * point_bytes <= kMsmMaxBucketBytes always holds. A G1
// MSM of n terms asks for 2n terms of kGlvScalarBits (ec/glv.hpp).
// Exposed for tests.
std::size_t msm_window_size(std::size_t n, std::size_t point_bytes,
                            std::size_t scalar_bits = kScalarBits);

// sum_i scalars[i] * points[i]; sizes must match. The affine overloads
// are the one implementation. Below 8 terms it is Straus' method: w-NAF
// digits (GLV halves for G1) against per-call odd-multiple tables, with
// one doubling chain shared by every term. From 8 terms it is the
// bucket method. Both are variable-time. The Jacobian-input overloads
// batch-normalize (one inversion) and call it. Long-lived bases are
// stored affine (cf. plonk::Srs::g1_powers). The naive reference the
// tests check against lives in tests/oracles/msm.hpp.
G1 msm(std::span<const Fr> scalars, std::span<const G1> points);
G1 msm(std::span<const Fr> scalars, std::span<const G1Affine> points);
G2 msm_g2(std::span<const Fr> scalars, std::span<const G2> points);
G2 msm_g2(std::span<const Fr> scalars, std::span<const G2Affine> points);

// Windowed fixed-base multiplication of the group generator (affine
// tables are built once per process); used by SRS generation and
// Groth16 setup where thousands of generator multiples are needed, and
// by Schnorr verification. Variable-time: public scalars only.
G1 g1_mul_generator(const Fr& k);
G2 g2_mul_generator(const Fr& k);

// Constant-time k * G for a secret k (Schnorr keys and nonces), affine,
// since every such product is stored or hashed affine. A fixed window of
// odd signed digits, none of them zero, over a 52 KiB affine table of
// G: every window reads each of its entries through a masked select and
// adds the result by complete formulas (Renes, Costello and Batina,
// eprint 2015/1060), so the sequence of operations and memory accesses
// is the same for every k. The only data-dependent branch is whether the
// result is the identity, that is whether k is zero.
G1Affine g1_mul_generator_ct(const Fr& k);

}  // namespace zkdet::ec
