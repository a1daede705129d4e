// Fuzz target: u256 parsing, field arithmetic (the Montgomery multiply
// against the test oracles' looped CIOS, add and subtract against their
// branchy forms), the G1 GLV scalar split, and the oracles' bigint
// round-trips.
//
// The parsers are the first line of defense for every externally
// supplied scalar (proof bytes, decimal constants); this harness feeds
// them arbitrary bytes and checks the algebraic round-trip invariants
// on whatever survives.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "ec/glv.hpp"
#include "ff/bn254.hpp"
#include "ff/u256.hpp"
#include "oracles/bigint.hpp"
#include "oracles/montgomery.hpp"

using namespace zkdet::ff;
using zkdet::oracle::BigUInt;
using zkdet::oracle::bigint_div_u256;
using zkdet::oracle::mod_add_branchy;
using zkdet::oracle::mod_sub_branchy;
using zkdet::oracle::mont_mul_cios;

namespace {

U256 u256_from_raw(const std::uint8_t* data) {
  std::array<std::uint8_t, 32> buf{};
  std::memcpy(buf.data(), data, 32);
  return u256_from_bytes(buf);
}

// a and b, each reduced below F::MOD and read as raw Montgomery words:
// their product must match the looped CIOS oracle, and their sum,
// difference and negation the branchy oracle.
template <typename F>
void check_kernels(const U256& a, const U256& b) {
  U256 ra = a;
  U256 rb = b;
  while (u256_geq(ra, F::MOD)) u256_sub(ra, ra, F::MOD);
  while (u256_geq(rb, F::MOD)) u256_sub(rb, rb, F::MOD);
  const F fa = F::from_raw(ra);
  const F fb = F::from_raw(rb);
  if ((fa * fb).raw() != mont_mul_cios(ra, rb, F::MOD, F::INV)) {
    __builtin_trap();
  }
  if ((fa + fb).raw() != mod_add_branchy(ra, rb, F::MOD)) __builtin_trap();
  if ((fa - fb).raw() != mod_sub_branchy(ra, rb, F::MOD)) __builtin_trap();
  if ((-fa).raw() != mod_sub_branchy(U256{0}, ra, F::MOD)) __builtin_trap();
}

// The GLV split of a (reduced below r) recomposes: k1 + lambda k2 == a
// with both halves below 2^128.
void check_glv(const U256& a) {
  const Fr k = Fr::reduce_from(a);
  const zkdet::ec::GlvSplit s = zkdet::ec::glv_split(k.to_canonical());
  if (s.k1.bit_length() > zkdet::ec::kGlvScalarBits ||
      s.k2.bit_length() > zkdet::ec::kGlvScalarBits) {
    __builtin_trap();
  }
  const Fr k1 = Fr::from_canonical(s.k1);
  const Fr k2 = Fr::from_canonical(s.k2);
  const Fr back =
      (s.neg1 ? -k1 : k1) + zkdet::ec::glv_lambda() * (s.neg2 ? -k2 : k2);
  if (back != k) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t selector = data[0];
  ++data;
  --size;

  switch (selector % 4) {
    case 0: {
      // Decimal parser: must either parse or throw, never corrupt.
      const std::string s(reinterpret_cast<const char*>(data),
                          std::min<std::size_t>(size, 100));
      try {
        const U256 v = u256_from_dec(s);
        // Round-trip: to_dec(from_dec(s)) re-parses to the same value.
        if (u256_from_dec(u256_to_dec(v)) != v) __builtin_trap();
      } catch (const std::invalid_argument&) {
      } catch (const std::overflow_error&) {
      }
      break;
    }
    case 1: {
      // Byte round-trip.
      if (size < 32) break;
      const U256 v = u256_from_raw(data);
      if (u256_from_bytes(u256_to_bytes(v)) != v) __builtin_trap();
      if (u256_from_dec(u256_to_dec(v)) != v) __builtin_trap();
      break;
    }
    case 2: {
      // Field reduction: reduce_from lands in canonical range; add/sub
      // round-trips; Fp and Fr products, sums, differences and
      // negations match the oracles; the GLV split recomposes.
      if (size < 64) break;
      const U256 a = u256_from_raw(data);
      const U256 b = u256_from_raw(data + 32);
      const Fr fa = Fr::reduce_from(a);
      const Fr fb = Fr::reduce_from(b);
      if (!u256_less(fa.to_canonical(), Fr::MOD)) __builtin_trap();
      if ((fa + fb - fb) != fa) __builtin_trap();
      if (!fb.is_zero() && (fa * fb * fb.inverse()) != fa) __builtin_trap();
      check_kernels<Fp>(a, b);
      check_kernels<Fr>(a, b);
      check_glv(a);
      break;
    }
    default: {
      // BigUInt: mul/div exactness. q = (x * d) / d must return x with
      // zero remainder for any odd divisor.
      if (size < 64) break;
      const U256 x = u256_from_raw(data);
      U256 d = u256_from_raw(data + 32);
      d.limb[0] |= 1;  // bigint_div_u256 requires an odd divisor
      BigUInt n = BigUInt::from_u256(x);
      n.mul_u256(d);
      U256 rem{};
      const BigUInt q = bigint_div_u256(n, d, &rem);
      if (!rem.is_zero()) __builtin_trap();
      BigUInt back = q;
      back.mul_u256(d);
      for (std::size_t i = 0; i < back.limbs.size(); ++i) {
        const std::uint64_t expect =
            i < n.limbs.size() ? n.limbs[i] : 0;
        if (back.limbs[i] != expect) __builtin_trap();
      }
      break;
    }
  }
  return 0;
}
