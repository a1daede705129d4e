// Test-only differential oracles for the field kernels:
//   - the looped CIOS Montgomery multiplication src/ff/prime_field.hpp
//     used before the unrolled no-carry form. It keeps a fifth and sixth
//     carry word, so it is correct for any odd modulus below 2^256 and
//     does not rely on the spare top bit the fast path needs;
//   - the branchy modular add and subtract it used before the carry-chain
//     kernels: limb loops over unsigned __int128, a limb-by-limb compare
//     and a data-dependent correction.
#pragma once

#include <cstdint>

#include "ff/u256.hpp"

namespace zkdet::oracle {

using ff::U256;

// a * b * 2^-256 mod `mod` for a, b < mod; `inv` is -mod^-1 mod 2^64.
U256 mont_mul_cios(const U256& a, const U256& b, const U256& mod,
                   std::uint64_t inv);

// (a + b) mod `mod` and (a - b) mod `mod` for a, b < mod.
U256 mod_add_branchy(const U256& a, const U256& b, const U256& mod);
U256 mod_sub_branchy(const U256& a, const U256& b, const U256& mod);

}  // namespace zkdet::oracle
