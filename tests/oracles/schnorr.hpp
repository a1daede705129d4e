// Test-only differential oracle for Schnorr verification: the verifier
// as it stood before the fast path, on Jacobian points with two plain
// double-and-add multiplications, s*G == R + e*pk, and its own copy of
// the challenge hash H("zkdet-schnorr" || R || pk || msg).
#pragma once

#include <cstdint>
#include <span>

#include "crypto/schnorr.hpp"

namespace zkdet::oracle {

bool schnorr_verify_naive(const ec::G1& pk, std::span<const std::uint8_t> msg,
                          const ec::G1& r, const ff::Fr& s);

}  // namespace zkdet::oracle
