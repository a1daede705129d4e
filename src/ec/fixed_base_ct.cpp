// Constant-time fixed-base multiplication of the G1 generator
// (g1_mul_generator_ct in ec/msm.hpp).
//
// Recoding. For odd k < 2^254, set k_0 = k and for i < kWindows - 1
//   d_i = (k_i mod 2^(w+1)) - 2^w,   k_(i+1) = (k_i >> w) | 1,
// and d_(kWindows-1) = k_(kWindows-1). Then k = sum_i d_i 2^(w i), every
// d_i is odd, so none is zero, and |d_i| < 2^w: the last digit because
// w * kWindows >= 255. An even k is replaced by r - k, which is odd, and
// the result negated; k = 0 becomes r, whose sum is the identity.
//
// Table. Window i holds (2j + 1) 2^(w i) G for j < 2^(w-1), affine; no
// entry is the identity, since r is a prime above all these multipliers.
// Digit d_i selects entry (|d_i| - 1) / 2, negated when d_i < 0.
//
// Addition. The accumulator is homogeneous projective (X/Z, Y/Z) and
// starts at the identity (0 : 1 : 0). Complete mixed addition is correct
// for every accumulator, the identity and +-entry included, so the
// sequence of field operations never depends on k.
#include <array>
#include <cstdint>
#include <vector>

#include "ec/msm.hpp"

namespace zkdet::ec {

namespace {

using ff::Fp;

constexpr std::size_t kWidth = 5;
constexpr std::size_t kEntries = std::size_t{1} << (kWidth - 1);  // 16
constexpr std::size_t kWindows = (255 + kWidth - 1) / kWidth;       // 51

struct Entry {
  Fp x;
  Fp y;
};
using Table = std::array<std::array<Entry, kEntries>, kWindows>;
static_assert(sizeof(Table) <= 128 * 1024, "constant-time table too large");

const Table& table() {
  static const Table t = [] {
    std::vector<G1> flat;
    flat.reserve(kWindows * kEntries);
    G1 base = G1::generator();  // 2^(w i) G
    for (std::size_t i = 0; i < kWindows; ++i) {
      const G1 twice = base.dbl();
      G1 acc = base;
      for (std::size_t j = 0; j < kEntries; ++j) {
        flat.push_back(acc);
        acc += twice;
      }
      for (std::size_t b = 0; b < kWidth; ++b) base = base.dbl();
    }
    const std::vector<G1Affine> affine =
        batch_normalize(std::span<const G1>(flat));
    Table out;
    for (std::size_t i = 0; i < kWindows; ++i) {
      for (std::size_t j = 0; j < kEntries; ++j) {
        const G1Affine& a = affine[i * kEntries + j];
        out[i][j] = Entry{a.x, a.y};
      }
    }
    return out;
  }();
  return t;
}

// Keeps the compiler from turning a mask back into a branch.
inline std::uint64_t opaque(std::uint64_t v) {
#if defined(__GNUC__)
  __asm__("" : "+r"(v));
#endif
  return v;
}

// ~0 when a == b, else 0, without a comparison.
inline std::uint64_t eq_mask(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t d = a ^ b;
  return opaque(((d | (0 - d)) >> 63) - 1);
}

// mask ? b : a, limb by limb; mask is 0 or ~0.
inline Fp select(const Fp& a, const Fp& b, std::uint64_t mask) {
  U256 v = a.raw();
  const U256& w = b.raw();
  for (std::size_t l = 0; l < 4; ++l) v.limb[l] ^= mask & (v.limb[l] ^ w.limb[l]);
  return Fp::from_raw(v);
}

// Entry `idx` of a window, read by a masked select over all of them.
Entry lookup(const std::array<Entry, kEntries>& row, std::uint64_t idx) {
  Entry out{Fp::zero(), Fp::zero()};
  for (std::size_t j = 0; j < kEntries; ++j) {
    const std::uint64_t m = eq_mask(j, idx);
    out.x = select(out.x, row[j].x, m);
    out.y = select(out.y, row[j].y, m);
  }
  return out;
}

struct Projective {
  Fp X;
  Fp Y;
  Fp Z;
};

// p += (x2, y2) by Algorithm 8 of Renes-Costello-Batina (complete mixed
// addition for a = 0): 11 multiplications, 2 by 3b, no branch. (x2, y2)
// must not be the identity, which affine coordinates cannot express.
void add_complete(Projective& p, const Fp& x2, const Fp& y2) {
  static const Fp b3 = Fp::from_u64(3) * G1Traits::b();
  Fp t0 = p.X * x2;
  Fp t1 = p.Y * y2;
  Fp t3 = (x2 + y2) * (p.X + p.Y);
  Fp t4 = t0 + t1;
  t3 = t3 - t4;
  t4 = y2 * p.Z + p.Y;
  Fp y3 = x2 * p.Z + p.X;
  Fp x3 = t0 + t0;
  t0 = x3 + t0;
  Fp t2 = b3 * p.Z;
  Fp z3 = t1 + t2;
  t1 = t1 - t2;
  y3 = b3 * y3;
  x3 = t4 * y3;
  t2 = t3 * t1;
  x3 = t2 - x3;
  y3 = y3 * t0;
  t1 = t1 * z3;
  y3 = t1 + y3;
  t0 = t0 * t3;
  z3 = z3 * t4;
  z3 = z3 + t0;
  p = Projective{x3, y3, z3};
}

}  // namespace

G1Affine g1_mul_generator_ct(const Fr& k) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << kWidth;  // 2^w
  U256 v = k.to_canonical();
  // Odd representative: r - k when k is even.
  const std::uint64_t even = (v.limb[0] & 1) - 1;  // ~0 when even
  U256 neg;
  u256_sub(neg, Fr::MOD, v);
  for (std::size_t l = 0; l < 4; ++l) v.limb[l] ^= even & (v.limb[l] ^ neg.limb[l]);

  const Table& t = table();
  Projective acc{Fp::zero(), Fp::one(), Fp::zero()};
  for (std::size_t i = 0; i < kWindows; ++i) {
    std::uint64_t abs = v.limb[0];  // the last digit is k_i itself
    std::uint64_t negative = 0;
    if (i + 1 < kWindows) {  // the window index is public
      const std::uint64_t m = v.limb[0] & (2 * kHalf - 1);
      // d = m - 2^w; when bit w of m is clear d < 0 and |d| = 2^w - m.
      negative = opaque(((m >> kWidth) & 1) - 1);
      abs = ((m - kHalf) ^ negative) - negative;
      for (std::size_t l = 0; l < 3; ++l) {
        v.limb[l] = (v.limb[l] >> kWidth) | (v.limb[l + 1] << (64 - kWidth));
      }
      v.limb[3] >>= kWidth;
      v.limb[0] |= 1;
    }
    Entry e = lookup(t[i], abs >> 1);
    e.y = select(e.y, -e.y, negative);
    add_complete(acc, e.x, e.y);
  }
  acc.Y = select(acc.Y, -acc.Y, even);

  if (acc.Z.is_zero()) return G1Affine::identity();  // k == 0
  const Fp zinv = acc.Z.inverse();
  return G1Affine{acc.X * zinv, acc.Y * zinv};
}

}  // namespace zkdet::ec
