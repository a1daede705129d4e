#include "ff/bn254.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "ff/batch_inverse.hpp"
#include "ff/fp2.hpp"
#include "oracles/bigint.hpp"
#include "oracles/montgomery.hpp"

namespace zkdet::ff {
namespace {

using oracle::BigUInt;
using oracle::bigint_div_u256;
using oracle::mod_add_branchy;
using oracle::mod_sub_branchy;
using oracle::mont_mul_cios;

TEST(Field, Identities) {
  EXPECT_TRUE(Fr::zero().is_zero());
  EXPECT_EQ(Fr::one() * Fr::one(), Fr::one());
  EXPECT_EQ(Fr::one() + Fr::zero(), Fr::one());
  EXPECT_EQ(Fr::from_u64(5) - Fr::from_u64(5), Fr::zero());
}

TEST(Field, CanonicalRoundtrip) {
  std::mt19937_64 rng(1);
  for (int i = 0; i < 200; ++i) {
    const Fr x = random_field<Fr>(rng);
    EXPECT_EQ(Fr::from_canonical(x.to_canonical()), x);
  }
}

TEST(Field, FromDecMatchesFromU64) {
  EXPECT_EQ(Fr::from_dec("123456789"), Fr::from_u64(123456789));
  EXPECT_EQ(Fp::from_dec("0"), Fp::zero());
}

TEST(Field, FromDecReducesModulus) {
  // r itself reduces to zero
  EXPECT_EQ(Fr::from_dec("218882428718392752222464057452572750885483644004160"
                         "34343698204186575808495617"),
            Fr::zero());
}

TEST(Field, AdditionIsCommutativeAssociative) {
  std::mt19937_64 rng(2);
  for (int i = 0; i < 100; ++i) {
    const Fr a = random_field<Fr>(rng);
    const Fr b = random_field<Fr>(rng);
    const Fr c = random_field<Fr>(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST(Field, MultiplicationDistributes) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 100; ++i) {
    const Fr a = random_field<Fr>(rng);
    const Fr b = random_field<Fr>(rng);
    const Fr c = random_field<Fr>(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
  }
}

TEST(Field, NegationAndSubtraction) {
  std::mt19937_64 rng(4);
  for (int i = 0; i < 100; ++i) {
    const Fr a = random_field<Fr>(rng);
    EXPECT_TRUE((a + (-a)).is_zero());
    EXPECT_EQ(Fr::zero() - a, -a);
  }
  EXPECT_EQ(-Fr::zero(), Fr::zero());
}

TEST(Field, InverseProperty) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 100; ++i) {
    Fr a = random_field<Fr>(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fr::one());
  }
  // inverse of zero defined as zero
  EXPECT_TRUE(Fr::zero().inverse().is_zero());
}

TEST(Field, SquareMatchesMul) {
  std::mt19937_64 rng(6);
  for (int i = 0; i < 100; ++i) {
    const Fr a = random_field<Fr>(rng);
    EXPECT_EQ(a.square(), a * a);
    EXPECT_EQ(a.dbl(), a + a);
  }
}

TEST(Field, PowMatchesRepeatedMul) {
  const Fr a = Fr::from_u64(3);
  Fr expected = Fr::one();
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(a.pow(U256{e}), expected);
    expected *= a;
  }
}

TEST(Field, FermatLittleTheorem) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20; ++i) {
    const Fr a = random_field<Fr>(rng);
    if (a.is_zero()) continue;
    U256 e;
    u256_sub(e, Fr::MOD, U256{1});
    EXPECT_EQ(a.pow(e), Fr::one());  // a^(r-1) = 1
  }
}

TEST(Field, GeneratorHasFullOrderSignals) {
  // 5^((r-1)/2) must be -1 for a generator (odd part check is implied by
  // the two-adic root test below).
  U256 e;
  u256_sub(e, Fr::MOD, U256{1});
  for (std::size_t j = 0; j < 4; ++j) {
    e.limb[j] >>= 1;
    if (j + 1 < 4) e.limb[j] |= e.limb[j + 1] << 63;
  }
  EXPECT_EQ(Fr::generator().pow(e), -Fr::one());
}

TEST(Field, TwoAdicRoot) {
  const Fr root = Fr::two_adic_root();
  Fr x = root;
  for (std::size_t i = 0; i < Fr::TWO_ADICITY - 1; ++i) x = x.square();
  EXPECT_EQ(x, -Fr::one());
  EXPECT_EQ(x.square(), Fr::one());
}

TEST(Field, BaseFieldModulusDiffersFromScalar) {
  EXPECT_NE(Fp::MOD, Fr::MOD);
  // p > r for BN254
  EXPECT_TRUE(u256_less(Fr::MOD, Fp::MOD));
}

TEST(Field, ReduceFromLargeValue) {
  U256 big = Fr::MOD;
  U256 plus5{};
  u256_add(plus5, big, U256{5});
  EXPECT_EQ(Fr::reduce_from(plus5), Fr::from_u64(5));
}

TEST(BigUInt, MulAndDivide) {
  BigUInt n = BigUInt::from_u64(1);
  const U256 p = Fp::MOD;
  for (int i = 0; i < 3; ++i) n.mul_u256(p);
  // n = p^3; divide back down
  U256 rem{};
  BigUInt q = bigint_div_u256(n, p, &rem);
  EXPECT_TRUE(rem.is_zero());
  U256 rem2{};
  BigUInt q2 = bigint_div_u256(q, p, &rem2);
  EXPECT_TRUE(rem2.is_zero());
  U256 rem3{};
  BigUInt q3 = bigint_div_u256(q2, p, &rem3);
  EXPECT_TRUE(rem3.is_zero());
  EXPECT_EQ(q3.bit_length(), 1u);  // quotient 1
}

TEST(BigUInt, DivisionByFull256BitDivisor) {
  // Divisors with the top bit set used to overflow the shift-subtract
  // remainder (rem < d can exceed 2^255); found by fuzz_u256.
  const U256 d{0x4773a10690536de1ull, 0x1d7bb3f81dbf08e6ull,
               0x9d42b4777f4d0d75ull, 0xdfde7dfff2a166b4ull};
  const U256 x{0xd5429235bf24984full, 0x67dd1a329c0f8394ull,
               0xd7de0f6de56c68acull, 0x8a73554957bf8a0full};
  BigUInt n = BigUInt::from_u256(x);
  n.mul_u256(d);
  U256 rem{};
  const BigUInt q = bigint_div_u256(n, d, &rem);
  EXPECT_TRUE(rem.is_zero());
  BigUInt back = q;
  back.mul_u256(d);
  for (std::size_t i = 0; i < std::max(back.limbs.size(), n.limbs.size());
       ++i) {
    const std::uint64_t b = i < back.limbs.size() ? back.limbs[i] : 0;
    const std::uint64_t e = i < n.limbs.size() ? n.limbs[i] : 0;
    EXPECT_EQ(b, e) << "limb " << i;
  }
}

TEST(BigUInt, DivisionRemainder) {
  BigUInt n = BigUInt::from_u64(1000);
  U256 rem{};
  BigUInt q = bigint_div_u256(n, U256{7}, &rem);
  EXPECT_EQ(rem, U256{6});  // 1000 = 142*7 + 6
  EXPECT_TRUE(q.bit(1));    // 142 = 0b10001110
  EXPECT_EQ(q.bit_length(), 8u);
}

TEST(BigUInt, SubU64) {
  BigUInt n = BigUInt::from_u64(0);
  n.limbs = {0, 1};  // 2^64
  n.sub_u64(1);
  EXPECT_EQ(n.limbs[0], ~0ull);
  EXPECT_EQ(n.limbs[1], 0u);
}

// --- Montgomery multiply against the looped CIOS and BigUInt ---------

// Uniform raw Montgomery words below F::MOD, drawn without the field
// multiply under test (random_field would go through from_canonical).
template <typename F>
U256 random_raw(std::mt19937_64& rng) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    U256 v{rng(), rng(), rng(), rng() >> 2};
    if (u256_less(v, F::MOD)) return v;
  }
  ADD_FAILURE() << "random_raw: rejection sampling did not terminate";
  return U256{};
}

// out == a * b * 2^-256 mod p, decided with BigUInt alone: out < p and p
// divides a * b + (p - out) * 2^256.
template <typename F>
bool biguint_agrees(const U256& a, const U256& b, const U256& out) {
  if (!u256_less(out, F::MOD)) return false;
  BigUInt n = BigUInt::from_u256(a);
  n.mul_u256(b);
  n.limbs.resize(9, 0);
  U256 neg{};
  u256_sub(neg, F::MOD, out);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const unsigned __int128 s =
        static_cast<unsigned __int128>(n.limbs[4 + i]) + neg.limb[i] + carry;
    n.limbs[4 + i] = static_cast<std::uint64_t>(s);
    carry = static_cast<std::uint64_t>(s >> 64);
  }
  n.limbs[8] += carry;
  U256 rem{};
  bigint_div_u256(n, F::MOD, &rem);
  return rem.is_zero();
}

// operator* on raw words a, b must equal the looped CIOS oracle and, when
// asked, the BigUInt definition.
template <typename F>
void expect_mul_matches(const U256& a, const U256& b, bool with_biguint) {
  const U256 got = (F::from_raw(a) * F::from_raw(b)).raw();
  const U256 want = mont_mul_cios(a, b, F::MOD, F::INV);
  ASSERT_EQ(got, want) << "a=" << u256_to_hex(a) << " b=" << u256_to_hex(b);
  if (with_biguint) {
    ASSERT_TRUE(biguint_agrees<F>(a, b, got))
        << "a=" << u256_to_hex(a) << " b=" << u256_to_hex(b);
  }
}

template <typename F>
void mont_mul_differential(std::uint64_t seed) {
  // Edge operands: 0, 1, R mod p (the raw word of one), p - 1, p - 2 and
  // words of all-ones limbs below p.
  U256 p_minus_1{};
  U256 p_minus_2{};
  u256_sub(p_minus_1, F::MOD, U256{1});
  u256_sub(p_minus_2, F::MOD, U256{2});
  const std::uint64_t ones = ~std::uint64_t{0};
  const U256 edges[] = {
      U256{0},
      U256{1},
      F::one().raw(),
      p_minus_1,
      p_minus_2,
      U256{ones},
      U256{ones, ones, 0, 0},
      U256{ones, ones, ones, 0},
      U256{ones, ones, ones, F::MOD.limb[3] - 1},
      U256{0, 0, 0, F::MOD.limb[3] - 1},
  };
  for (const U256& a : edges) {
    ASSERT_TRUE(u256_less(a, F::MOD));
    for (const U256& b : edges) expect_mul_matches<F>(a, b, true);
  }
  // The BigUInt check divides bit by bit (~500 steps), so it samples
  // every 64th random pair; the oracle CIOS sees all of them.
  constexpr std::size_t kPairs = 1'000'000;
  constexpr std::size_t kBigUIntEvery = 64;
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const U256 a = random_raw<F>(rng);
    const U256 b = random_raw<F>(rng);
    expect_mul_matches<F>(a, b, i % kBigUIntEvery == 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Field, MontMulMatchesOracle) {
  mont_mul_differential<Fp>(1801);
  mont_mul_differential<Fr>(1802);
}

// --- Carry-chain add, subtract, negate and double against the branchy
// --- oracle --------------------------------------------------------------

template <typename F>
void expect_add_sub_match(const U256& a, const U256& b) {
  const F fa = F::from_raw(a);
  const F fb = F::from_raw(b);
  ASSERT_EQ((fa + fb).raw(), mod_add_branchy(a, b, F::MOD))
      << "a=" << u256_to_hex(a) << " b=" << u256_to_hex(b);
  ASSERT_EQ((fa - fb).raw(), mod_sub_branchy(a, b, F::MOD))
      << "a=" << u256_to_hex(a) << " b=" << u256_to_hex(b);
  ASSERT_EQ((-fa).raw(), mod_sub_branchy(U256{0}, a, F::MOD))
      << "a=" << u256_to_hex(a);
  ASSERT_EQ(fa.dbl().raw(), mod_add_branchy(a, a, F::MOD))
      << "a=" << u256_to_hex(a);
}

template <typename F>
void add_sub_differential(std::uint64_t seed) {
  U256 p_minus_1{};
  U256 p_minus_2{};
  u256_sub(p_minus_1, F::MOD, U256{1});
  u256_sub(p_minus_2, F::MOD, U256{2});
  const U256 edges[] = {U256{0}, U256{1}, p_minus_1, p_minus_2};
  for (const U256& a : edges) {
    for (const U256& b : edges) expect_add_sub_match<F>(a, b);
  }
  // Sums at the reduction boundary: a + b in {p - 1, p, p + 1}.
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 1000; ++i) {
    U256 a = random_raw<F>(rng);
    if (u256_less(a, U256{2})) a = U256{2};
    for (const std::uint64_t over : {0u, 1u, 2u}) {
      // b = p - 1 + over - a, which is below p for 2 <= a < p.
      U256 b{};
      u256_sub(b, p_minus_1, a);
      u256_add(b, b, U256{over});
      expect_add_sub_match<F>(a, b);
      expect_add_sub_match<F>(b, a);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  constexpr std::size_t kPairs = 1'000'000;
  for (std::size_t i = 0; i < kPairs; ++i) {
    expect_add_sub_match<F>(random_raw<F>(rng), random_raw<F>(rng));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Field, AddSubMatchOracle) {
  add_sub_differential<Fp>(1803);
  add_sub_differential<Fr>(1804);
}

// The intrinsic adc/sbb and their unsigned __int128 forms agree, carry
// in 0 and 1, on edge words and random ones.
TEST(Field, CarryPrimitiveMatchesInt128) {
  const std::uint64_t ones = ~std::uint64_t{0};
  std::vector<std::uint64_t> words = {0, 1, 2, ones, ones - 1,
                                      std::uint64_t{1} << 63};
  std::mt19937_64 rng(1805);
  for (int i = 0; i < 1000; ++i) words.push_back(rng());
  for (const std::uint64_t a : words) {
    for (const std::uint64_t b : words) {
      for (const Carry carry_in : {Carry{0}, Carry{1}}) {
        Carry c_fast = carry_in;
        Carry c_ref = carry_in;
        ASSERT_EQ(adc(a, b, c_fast), adc_u128(a, b, c_ref)) << a << " " << b;
        ASSERT_EQ(c_fast, c_ref) << a << " " << b;
        c_fast = carry_in;
        c_ref = carry_in;
        ASSERT_EQ(sbb(a, b, c_fast), sbb_u128(a, b, c_ref)) << a << " " << b;
        ASSERT_EQ(c_fast, c_ref) << a << " " << b;
      }
    }
  }
}

class FieldSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FieldSeedSweep, MulInverseRandom) {
  std::mt19937_64 rng(GetParam());
  const Fr a = random_field<Fr>(rng);
  const Fr b = random_field<Fr>(rng);
  if (b.is_zero()) return;
  const Fr q = a * b.inverse();
  EXPECT_EQ(q * b, a);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FieldSeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(BatchInverse, MatchesElementwiseInverse) {
  std::mt19937_64 rng(99);
  for (const std::size_t n : {0u, 1u, 2u, 7u, 64u}) {
    std::vector<Fr> xs(n);
    for (auto& x : xs) x = random_field<Fr>(rng);
    if (n > 2) xs[n / 2] = Fr::zero();  // zeros are skipped, stay zero
    if (n > 0) xs[0] = Fr::zero();
    std::vector<Fr> inv = xs;
    batch_inverse(std::span<Fr>(inv));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(inv[i], xs[i].inverse()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BatchInverse, CallerScratchIsReusedAcrossCalls) {
  // One scratch buffer, larger than any call and holding the previous
  // call's prefixes, serves calls of several sizes.
  std::mt19937_64 rng(97);
  std::vector<Fr> scratch(64, Fr::from_u64(5));
  for (const std::size_t n : {64u, 3u, 17u, 0u, 1u}) {
    std::vector<Fr> xs(n);
    for (auto& x : xs) x = random_field<Fr>(rng);
    if (n > 2) xs[1] = Fr::zero();
    std::vector<Fr> inv = xs;
    batch_inverse(std::span<Fr>(inv), std::span<Fr>(scratch));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(inv[i], xs[i].inverse()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BatchInverse, WorksOverFp2) {
  std::mt19937_64 rng(98);
  std::vector<Fp2> xs(9);
  for (auto& x : xs) x = Fp2{random_field<Fp>(rng), random_field<Fp>(rng)};
  xs[4] = Fp2::zero();
  std::vector<Fp2> inv = xs;
  batch_inverse(std::span<Fp2>(inv));
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(inv[i], xs[i].inverse());
}

}  // namespace
}  // namespace zkdet::ff
