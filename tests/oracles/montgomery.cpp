#include "oracles/montgomery.hpp"

namespace zkdet::oracle {

namespace {

// out = a + b over limb loops, returns the carry.
std::uint64_t add_loop(U256& out, const U256& a, const U256& b) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const unsigned __int128 s =
        static_cast<unsigned __int128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<std::uint64_t>(s >> 64);
  }
  return carry;
}

// out = a - b over limb loops, returns the borrow.
std::uint64_t sub_loop(U256& out, const U256& a, const U256& b) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const unsigned __int128 d = static_cast<unsigned __int128>(a.limb[i]) -
                                b.limb[i] - borrow;
    out.limb[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) != 0 ? 1 : 0;
  }
  return borrow;
}

// a >= b, limb by limb from the top.
bool geq_loop(const U256& a, const U256& b) {
  for (std::size_t i = 4; i-- > 0;) {
    if (a.limb[i] != b.limb[i]) return a.limb[i] > b.limb[i];
  }
  return true;
}

}  // namespace

U256 mod_add_branchy(const U256& a, const U256& b, const U256& mod) {
  U256 out{};
  const std::uint64_t carry = add_loop(out, a, b);
  if (carry != 0 || geq_loop(out, mod)) sub_loop(out, out, mod);
  return out;
}

U256 mod_sub_branchy(const U256& a, const U256& b, const U256& mod) {
  U256 out{};
  if (sub_loop(out, a, b) != 0) add_loop(out, out, mod);
  return out;
}

U256 mont_mul_cios(const U256& a, const U256& b, const U256& mod,
                   std::uint64_t inv) {
  std::uint64_t t[6] = {0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < 4; ++i) {
    // t += a[i] * b
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    {
      const unsigned __int128 cur = static_cast<unsigned __int128>(t[4]) + carry;
      t[4] = static_cast<std::uint64_t>(cur);
      t[5] = static_cast<std::uint64_t>(cur >> 64);
    }
    // m = t[0] * inv mod 2^64; t += m * mod; t >>= 64
    const std::uint64_t m = t[0] * inv;
    unsigned __int128 cur =
        static_cast<unsigned __int128>(m) * mod.limb[0] + t[0];
    carry = static_cast<std::uint64_t>(cur >> 64);
    for (std::size_t j = 1; j < 4; ++j) {
      cur = static_cast<unsigned __int128>(m) * mod.limb[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    cur = static_cast<unsigned __int128>(t[4]) + carry;
    t[3] = static_cast<std::uint64_t>(cur);
    t[4] = t[5] + static_cast<std::uint64_t>(cur >> 64);
    t[5] = 0;
  }
  U256 out{t[0], t[1], t[2], t[3]};
  if (t[4] != 0 || geq_loop(out, mod)) sub_loop(out, out, mod);
  return out;
}

}  // namespace zkdet::oracle
