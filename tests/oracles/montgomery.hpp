// Test-only differential oracle for the field multiply: the looped CIOS
// Montgomery multiplication src/ff/prime_field.hpp used before the
// unrolled no-carry form. It keeps a fifth and sixth carry word, so it is
// correct for any odd modulus below 2^256 and does not rely on the spare
// top bit the fast path needs.
#pragma once

#include <cstdint>

#include "ff/u256.hpp"

namespace zkdet::oracle {

using ff::U256;

// a * b * 2^-256 mod `mod` for a, b < mod; `inv` is -mod^-1 mod 2^64.
U256 mont_mul_cios(const U256& a, const U256& b, const U256& mod,
                   std::uint64_t inv);

}  // namespace zkdet::oracle
