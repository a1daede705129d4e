#include <gtest/gtest.h>

#include <random>

#include "ff/ntt.hpp"
#include "ff/polynomial.hpp"
#include "oracles/ntt.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::ff {
namespace {

std::vector<Fr> random_coeffs(std::size_t n, std::mt19937_64& rng) {
  std::vector<Fr> v(n);
  for (auto& x : v) x = random_field<Fr>(rng);
  return v;
}

class NttRoundtrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttRoundtrip, FftIfftIsIdentity) {
  const std::size_t n = GetParam();
  EvaluationDomain d(n);
  std::mt19937_64 rng(n);
  const std::vector<Fr> orig = random_coeffs(n, rng);
  std::vector<Fr> v = orig;
  d.fft(v);
  d.ifft(v);
  EXPECT_EQ(v, orig);
}

TEST_P(NttRoundtrip, CosetRoundtrip) {
  const std::size_t n = GetParam();
  EvaluationDomain d(n);
  std::mt19937_64 rng(n + 1);
  const std::vector<Fr> orig = random_coeffs(n, rng);
  std::vector<Fr> v = orig;
  const Fr shift = Fr::generator();
  d.coset_fft(v, shift);
  d.coset_ifft(v, shift);
  EXPECT_EQ(v, orig);
}

TEST_P(NttRoundtrip, FftMatchesDirectEvaluation) {
  const std::size_t n = GetParam();
  if (n > 64) return;  // direct evaluation is O(n^2)
  EvaluationDomain d(n);
  std::mt19937_64 rng(n + 2);
  const std::vector<Fr> coeffs = random_coeffs(n, rng);
  std::vector<Fr> evals = coeffs;
  d.fft(evals);
  const Polynomial p{coeffs};
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(evals[i], p.evaluate(d.element(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttRoundtrip,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024, 4096,
                                           16384));

// The table-twiddle NTT against the repeated-squaring oracle, byte for
// byte, from the parallel threshold (2^12) up to pi_e/8's 4n coset
// (2^16) and one size beyond. Width 1 runs the serial loop; width 4 runs
// both parallel schedules (whole blocks early, split blocks late).
class NttDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttDifferential, MatchesOracleAtPoolWidthsOneAndFour) {
  const std::size_t n = std::size_t{1} << GetParam();
  const EvaluationDomain d(n);
  std::mt19937_64 rng(n + 3);
  const std::vector<Fr> input = random_coeffs(n, rng);
  const Fr shift = Fr::generator();
  const std::vector<Fr> fft_ref = oracle::ntt_fft(input);
  const std::vector<Fr> ifft_ref = oracle::ntt_ifft(input);
  const std::vector<Fr> coset_fft_ref = oracle::ntt_coset_fft(input, shift);
  const std::vector<Fr> coset_ifft_ref = oracle::ntt_coset_ifft(input, shift);

  auto& pool = runtime::ThreadPool::instance();
  const std::size_t saved = pool.concurrency();
  for (const std::size_t workers : {1u, 4u}) {
    pool.configure(workers);
    std::vector<Fr> v = input;
    d.fft(v);
    EXPECT_EQ(v, fft_ref) << "fft, workers=" << workers;
    v = input;
    d.ifft(v);
    EXPECT_EQ(v, ifft_ref) << "ifft, workers=" << workers;
    v = input;
    d.coset_fft(v, shift);
    EXPECT_EQ(v, coset_fft_ref) << "coset_fft, workers=" << workers;
    v = input;
    d.coset_ifft(v, shift);
    EXPECT_EQ(v, coset_ifft_ref) << "coset_ifft, workers=" << workers;
  }
  pool.configure(saved);
}

INSTANTIATE_TEST_SUITE_P(LogSizes, NttDifferential,
                         ::testing::Range<std::size_t>(12, 18));

TEST(Ntt, RejectsNonPowerOfTwo) {
  EXPECT_THROW(EvaluationDomain(3), std::invalid_argument);
  EXPECT_THROW(EvaluationDomain(0), std::invalid_argument);
  EXPECT_THROW(EvaluationDomain(48), std::invalid_argument);
}

TEST(Ntt, OmegaHasExactOrder) {
  EvaluationDomain d(16);
  Fr x = d.omega();
  for (int i = 0; i < 3; ++i) x = x.square();  // omega^8
  EXPECT_NE(x, Fr::one());
  EXPECT_EQ(x.square(), Fr::one());
}

TEST(Ntt, VanishingPolynomial) {
  EvaluationDomain d(8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(d.vanishing_at(d.element(i)).is_zero());
  }
  EXPECT_FALSE(d.vanishing_at(Fr::from_u64(12345)).is_zero());
}

TEST(Ntt, LagrangeBasis) {
  EvaluationDomain d(8);
  const Fr x = Fr::from_u64(987654321);
  // sum of all Lagrange polynomials is 1
  Fr sum = Fr::zero();
  for (std::size_t i = 0; i < 8; ++i) sum += d.lagrange_at(i, x);
  EXPECT_EQ(sum, Fr::one());
  // batch version agrees
  const std::vector<Fr> all = d.all_lagrange_at(x);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(all[i], d.lagrange_at(i, x));
}

TEST(Ntt, LagrangeInterpolation) {
  EvaluationDomain d(8);
  std::mt19937_64 rng(42);
  std::vector<Fr> evals = random_coeffs(8, rng);
  const Polynomial p = Polynomial::from_evaluations(evals, d);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p.evaluate(d.element(i)), evals[i]);
  }
}

TEST(Polynomial, EvaluateHorner) {
  // p(x) = 3x^2 + 2x + 1
  const Polynomial p{{Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)}};
  EXPECT_EQ(p.evaluate(Fr::from_u64(2)), Fr::from_u64(17));
  EXPECT_EQ(p.evaluate(Fr::zero()), Fr::from_u64(1));
  EXPECT_EQ(p.degree(), 2u);
}

TEST(Polynomial, AddSub) {
  const Polynomial a{{Fr::from_u64(1), Fr::from_u64(2)}};
  const Polynomial b{{Fr::from_u64(5), Fr::zero(), Fr::from_u64(7)}};
  const Polynomial s = a + b;
  EXPECT_EQ(s.evaluate(Fr::from_u64(3)),
            a.evaluate(Fr::from_u64(3)) + b.evaluate(Fr::from_u64(3)));
  const Polynomial dd = a - b;
  EXPECT_EQ(dd.evaluate(Fr::from_u64(3)),
            a.evaluate(Fr::from_u64(3)) - b.evaluate(Fr::from_u64(3)));
}

TEST(Polynomial, MulMatchesEvaluation) {
  std::mt19937_64 rng(7);
  const Polynomial a{random_coeffs(13, rng)};
  const Polynomial b{random_coeffs(9, rng)};
  const Polynomial prod = a * b;
  EXPECT_EQ(prod.degree(), a.degree() + b.degree());
  for (int i = 0; i < 10; ++i) {
    const Fr x = random_field<Fr>(rng);
    EXPECT_EQ(prod.evaluate(x), a.evaluate(x) * b.evaluate(x));
  }
}

TEST(Polynomial, MulByZero) {
  const Polynomial z = Polynomial::zero();
  const Polynomial a{{Fr::from_u64(1), Fr::from_u64(2)}};
  EXPECT_TRUE((z * a).is_zero());
}

TEST(Polynomial, DivideByLinear) {
  std::mt19937_64 rng(8);
  Polynomial p{random_coeffs(16, rng)};
  const Fr z = random_field<Fr>(rng);
  // force p(z) = 0 by subtracting the constant
  p -= Polynomial::constant(p.evaluate(z));
  const Polynomial q = p.divide_by_linear(z);
  // q * (x - z) == p
  const Polynomial back =
      q * Polynomial{{-z, Fr::one()}};
  for (int i = 0; i < 5; ++i) {
    const Fr x = random_field<Fr>(rng);
    EXPECT_EQ(back.evaluate(x), p.evaluate(x));
  }
}

TEST(Polynomial, DivideByVanishingExact) {
  std::mt19937_64 rng(9);
  const std::size_t n = 8;
  const Polynomial q{random_coeffs(10, rng)};
  // p = q * (x^n - 1)
  Polynomial zh{std::vector<Fr>(n + 1, Fr::zero())};
  zh.coeffs()[0] = -Fr::one();
  zh.coeffs()[n] = Fr::one();
  const Polynomial p = q * zh;
  Polynomial rem;
  const Polynomial q2 = p.divide_by_vanishing(n, &rem);
  EXPECT_TRUE(rem.is_zero());
  for (int i = 0; i < 5; ++i) {
    const Fr x = random_field<Fr>(rng);
    EXPECT_EQ(q2.evaluate(x), q.evaluate(x));
  }
}

TEST(Polynomial, DivideByVanishingRemainder) {
  // p = x + 5, n = 4: quotient 0, remainder p
  const Polynomial p{{Fr::from_u64(5), Fr::one()}};
  Polynomial rem;
  const Polynomial q = p.divide_by_vanishing(4, &rem);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(rem.evaluate(Fr::from_u64(3)), Fr::from_u64(8));
}

TEST(Polynomial, ShiftAndDilate) {
  std::mt19937_64 rng(10);
  const Polynomial p{random_coeffs(6, rng)};
  const Fr x = random_field<Fr>(rng);
  const Fr s = Fr::from_u64(3);
  EXPECT_EQ(p.shifted(2).evaluate(x), p.evaluate(x) * x * x);
  EXPECT_EQ(p.dilated(s).evaluate(x), p.evaluate(s * x));
  EXPECT_EQ(p.scaled(s).evaluate(x), s * p.evaluate(x));
}

TEST(Polynomial, TrimRemovesHighZeros) {
  Polynomial p{{Fr::one(), Fr::zero(), Fr::zero()}};
  p.trim();
  EXPECT_EQ(p.coeffs().size(), 1u);
  Polynomial z{{Fr::zero(), Fr::zero()}};
  z.trim();
  EXPECT_TRUE(z.coeffs().empty());
}

}  // namespace
}  // namespace zkdet::ff
