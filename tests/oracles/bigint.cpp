#include "oracles/bigint.hpp"

#include "check/check.hpp"

namespace zkdet::oracle {

using ff::u256_add;
using ff::u256_geq;
using ff::u256_sub;

BigUInt BigUInt::from_u256(const U256& v) {
  return BigUInt{{v.limb[0], v.limb[1], v.limb[2], v.limb[3]}};
}

bool BigUInt::is_zero() const {
  for (const auto l : limbs)
    if (l != 0) return false;
  return true;
}

std::size_t BigUInt::bit_length() const {
  for (std::size_t i = limbs.size(); i-- > 0;) {
    if (limbs[i] != 0) {
      std::uint64_t v = limbs[i];
      std::size_t n = 0;
      while (v != 0) {
        v >>= 1;
        ++n;
      }
      return i * 64 + n;
    }
  }
  return 0;
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs.size()) return false;
  return (limbs[limb] >> (i % 64)) & 1u;
}

void BigUInt::mul_u256(const U256& m) {
  std::vector<std::uint64_t> out(limbs.size() + 4, 0);
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(limbs[i]) * m.limb[j] + out[i + j] + carry;
      out[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    std::size_t k = i + 4;
    while (carry != 0) {
      const unsigned __int128 cur = static_cast<unsigned __int128>(out[k]) + carry;
      out[k] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
      ++k;
    }
  }
  limbs = std::move(out);
}

void BigUInt::sub_u64(std::uint64_t v) {
  std::uint64_t borrow = v;
  for (std::size_t i = 0; i < limbs.size() && borrow != 0; ++i) {
    const unsigned __int128 d =
        static_cast<unsigned __int128>(limbs[i]) - borrow;
    limbs[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) != 0 ? 1 : 0;
  }
  ZKDET_CHECK(borrow == 0, "BigUInt::sub_u64 underflow");
}

BigUInt bigint_div_u256(const BigUInt& n, const U256& d, U256* remainder_out) {
  ZKDET_CHECK(!d.is_zero(), "bigint_div_u256: division by zero");
  const std::size_t nbits = n.bit_length();
  BigUInt q;
  q.limbs.assign((nbits + 63) / 64 + 1, 0);
  U256 rem{};
  for (std::size_t i = nbits; i-- > 0;) {
    // rem = (rem << 1) | n.bit(i). rem < d can reach 257 bits here when
    // d >= 2^255; the doubling carry stands in for bit 256, and since
    // 2*rem + 1 < 2*d a single subtraction restores rem < d (the borrow
    // cancels the carry).
    U256 shifted{};
    std::uint64_t carry = u256_add(shifted, rem, rem);
    if (n.bit(i)) {
      U256 tmp{};
      carry += u256_add(tmp, shifted, U256{1});
      shifted = tmp;
    }
    rem = shifted;
    if (carry != 0 || u256_geq(rem, d)) {
      u256_sub(rem, rem, d);
      q.limbs[i / 64] |= (1ull << (i % 64));
    }
  }
  if (remainder_out != nullptr) *remainder_out = rem;
  return q;
}

}  // namespace zkdet::oracle
