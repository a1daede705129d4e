// Differential tests for the MSM: the signed-digit affine bucket path
// (on Jacobian and on pre-normalized affine bases) and the naive
// double-and-add reference must agree bit-for-bit on every input class
// that has historically broken bucket MSMs (zero scalars, identity
// bases, duplicate bases, scalars at the group order boundary, scalars
// at the edges of the GLV split, sizes straddling the
// naive/parallel and Jacobian/batch-affine bucket thresholds, doublings
// and cancellations inside a batch). Also covers
// batch normalization with identities, mixed (Jacobian + affine)
// addition, the constant-time ladder, and the bucket-memory window cap.
#include <gtest/gtest.h>

#include <initializer_list>
#include <random>
#include <vector>

#include "ec/glv.hpp"
#include "ec/msm.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::ec {
namespace {

using ff::Fr;
using ff::random_field;

// Scalar just below the group order: r - 1 == -1 mod r. Exercises the
// top signed-digit window and every carry in the decomposition.
Fr r_minus_one() { return Fr::zero() - Fr::one(); }

Fr pow2(std::size_t e) { return Fr::from_u64(2).pow(U256{e}); }

struct G1Api {
  using Jac = G1;
  using Aff = G1Affine;
  static G1 gen_mul(const Fr& k) { return g1_mul_generator(k); }
  static G1 run(std::span<const Fr> s, std::span<const G1> p) {
    return msm(s, p);
  }
  static G1 run_affine(std::span<const Fr> s, std::span<const G1Affine> p) {
    return msm(s, p);
  }
  static G1 run_naive(std::span<const Fr> s, std::span<const G1> p) {
    return msm_naive(s, p);
  }
};

struct G2Api {
  using Jac = G2;
  using Aff = G2Affine;
  static G2 gen_mul(const Fr& k) { return g2_mul_generator(k); }
  static G2 run(std::span<const Fr> s, std::span<const G2> p) {
    return msm_g2(s, p);
  }
  static G2 run_affine(std::span<const Fr> s, std::span<const G2Affine> p) {
    return msm_g2(s, p);
  }
  static G2 run_naive(std::span<const Fr> s, std::span<const G2> p) {
    return msm_naive_g2(s, p);
  }
};

// Every entry point on the same input must agree with the naive oracle.
template <typename Api>
void check_all_paths(const std::vector<Fr>& scalars,
                     const std::vector<typename Api::Jac>& points,
                     const char* what) {
  const auto expected = Api::run_naive(scalars, points);
  EXPECT_EQ(Api::run(scalars, points), expected) << what << " (msm)";
  const auto affine = batch_normalize(
      std::span<const typename Api::Jac>(points));
  EXPECT_EQ(Api::run_affine(scalars, affine), expected)
      << what << " (affine bases)";
}

template <typename Api>
void run_edge_suite(std::uint64_t seed,
                    std::initializer_list<std::size_t> large_sizes) {
  std::mt19937_64 rng(seed);
  // Sizes straddle the dispatch thresholds: n < 8 runs naive, n >= 256
  // distributes windows over the thread pool, and the large sizes
  // straddle the cut where the window grows to 256 buckets and
  // full-width windows switch to batch-affine buckets.
  std::vector<std::size_t> sizes = {1, 7, 8, 9, 255, 256, 257};
  sizes.insert(sizes.end(), large_sizes);
  for (const std::size_t n : sizes) {
    std::vector<Fr> scalars(n);
    std::vector<typename Api::Jac> points(n);
    for (std::size_t i = 0; i < n; ++i) {
      scalars[i] = random_field<Fr>(rng);
      points[i] = Api::gen_mul(random_field<Fr>(rng));
    }
    // Seed the edge cases into the front of the vector.
    scalars[0] = Fr::zero();
    if (n >= 3) {
      scalars[1] = r_minus_one();
      scalars[2] = Fr::one();
      points[1] = Api::Jac::identity();     // identity base, max scalar
      points[2] = points[n - 1];            // duplicate base
    }
    // GLV edges: lambda and r - lambda, whose exact split is (0, +-1),
    // and 2^127, 2^128 at the half-scalar width.
    if (n >= 7) {
      scalars[3] = glv_lambda();
      scalars[4] = -glv_lambda();
      scalars[5] = pow2(127);
      scalars[6] = pow2(128);
    }
    check_all_paths<Api>(scalars, points,
                         ("n=" + std::to_string(n)).c_str());
  }
}

// Buckets per window of an n-term G1 MSM: GLV hands the engine 2n
// half-scalars of kGlvScalarBits.
std::size_t g1_buckets(std::size_t n) {
  return std::size_t{1}
         << (msm_window_size(2 * n, sizeof(G1), kGlvScalarBits) - 1);
}

TEST(MsmDifferential, G1EdgeInputs) {
  // 295 and 296 must sit on either side of 256 buckets per window. The
  // suite keeps the sizes around the cut before batch-affine windows
  // were priced and GLV halved the scalars (2218, 2219), and the real
  // commitment sizes 2050 and 8195.
  EXPECT_LT(g1_buckets(295), 256u);
  EXPECT_GE(g1_buckets(296), 256u);
  run_edge_suite<G1Api>(101, {295, 296, 2047, 2048, 2050, 2218, 2219, 4096,
                              8195});
}
TEST(MsmDifferential, G2EdgeInputs) {
  // The full-width (254-bit) engine reaches 256 buckets at n = 592.
  EXPECT_LT(std::size_t{1} << (msm_window_size(591, sizeof(G2)) - 1), 256u);
  EXPECT_GE(std::size_t{1} << (msm_window_size(592, sizeof(G2)) - 1), 256u);
  run_edge_suite<G2Api>(202, {591, 592, 2048, 2219});
}

// Batch-affine buckets meet a base with the bucket's own x: with every
// base and scalar equal, each window sends all bases to one bucket, so
// every add after the first is a doubling.
TEST(MsmDifferential, G1BatchAffineDoubling) {
  constexpr std::size_t n = 4096;
  std::mt19937_64 rng(41);
  const G1 p = g1_mul_generator(random_field<Fr>(rng));
  const Fr k = random_field<Fr>(rng);
  const std::vector<Fr> scalars(n, k);
  const std::vector<G1> points(n, p);
  const G1 expected = p.mul(k * Fr::from_u64(n));
  EXPECT_EQ(msm(scalars, points), expected);
  const auto affine = batch_normalize(std::span<const G1>(points));
  EXPECT_EQ(msm(scalars, affine), expected);
}

// ... and the cancellation: bases alternate P, -P, and each pair shares a
// scalar, so every pair lands in the same buckets and the sum is zero.
TEST(MsmDifferential, G1BatchAffineCancellation) {
  constexpr std::size_t n = 4096;
  std::mt19937_64 rng(42);
  const G1 p = g1_mul_generator(random_field<Fr>(rng));
  std::vector<Fr> scalars(n);
  std::vector<G1> points(n);
  for (std::size_t i = 0; i < n; i += 2) {
    scalars[i] = scalars[i + 1] = random_field<Fr>(rng);
    points[i] = p;
    points[i + 1] = -p;
  }
  EXPECT_EQ(msm(scalars, points), G1::identity());
  const auto affine = batch_normalize(std::span<const G1>(points));
  EXPECT_EQ(msm(scalars, affine), G1::identity());
}

// Small scalars crowd window 0 into three buckets, so most bases find
// their bucket with an add pending: they wait, retry, or overflow into
// the Jacobian side. Bases are x_i * G, so the sum is (sum k_i x_i) * G.
TEST(MsmDifferential, G1BatchAffineCrowdedBuckets) {
  constexpr std::size_t n = 4096;
  std::mt19937_64 rng(43);
  const Fr choices[] = {Fr::one(), Fr::from_u64(2), Fr::from_u64(3),
                        r_minus_one()};
  std::vector<Fr> scalars(n);
  std::vector<G1> points(n);
  Fr exponent = Fr::zero();
  for (std::size_t i = 0; i < n; ++i) {
    scalars[i] = choices[rng() % 4];
    const Fr x = random_field<Fr>(rng);
    points[i] = g1_mul_generator(x);
    exponent += scalars[i] * x;
  }
  EXPECT_EQ(msm(scalars, points), g1_mul_generator(exponent));
}

TEST(MsmDifferential, G1AllZeroScalars) {
  std::mt19937_64 rng(7);
  std::vector<Fr> scalars(64, Fr::zero());
  std::vector<G1> points(64);
  for (auto& p : points) p = g1_mul_generator(random_field<Fr>(rng));
  EXPECT_EQ(msm(scalars, points), G1::identity());
}

TEST(MsmDifferential, G1AllIdentityPoints) {
  std::mt19937_64 rng(8);
  std::vector<Fr> scalars(64);
  for (auto& s : scalars) s = random_field<Fr>(rng);
  std::vector<G1> points(64, G1::identity());
  EXPECT_EQ(msm(scalars, points), G1::identity());
}

TEST(MsmDifferential, G1AllMaxScalars) {
  // Every digit in the signed decomposition of r-1 carries; a bucket
  // sign error anywhere shows up here.
  std::mt19937_64 rng(9);
  std::vector<Fr> scalars(32, r_minus_one());
  std::vector<G1> points(32);
  for (auto& p : points) p = g1_mul_generator(random_field<Fr>(rng));
  check_all_paths<G1Api>(scalars, points, "all r-1 scalars");
}

// Every scalar r - 1 at a commitment size: every half-scalar of the GLV
// split and every digit carry is extreme in every window, on
// batch-affine buckets. Bases are x_i * G, so the sum is -(sum x_i) * G.
TEST(MsmDifferential, G1AllMaxScalarsBatchAffine) {
  constexpr std::size_t n = 2050;
  std::mt19937_64 rng(10);
  const std::vector<Fr> scalars(n, r_minus_one());
  std::vector<G1> points(n);
  Fr exponent = Fr::zero();
  for (auto& p : points) {
    const Fr x = random_field<Fr>(rng);
    p = g1_mul_generator(x);
    exponent -= x;
  }
  EXPECT_EQ(msm(scalars, points), g1_mul_generator(exponent));
}

// Every full-width window of a commitment-size MSM runs batch-affine
// buckets whose batch inversions keep their prefix products in one
// scratch buffer per run of windows. On a 1-thread pool one buffer
// serves every window in turn, carrying stale prefixes from the window
// before; on the shared pool each chunk of windows has its own. Both
// must match the sum computed in the exponent.
TEST(MsmDifferential, G1BatchAffineWindowsShareOneScratch) {
  constexpr std::size_t n = 600;
  ASSERT_GE(g1_buckets(n), 256u);  // batch-affine windows
  std::mt19937_64 rng(11);
  std::vector<Fr> scalars(n);
  std::vector<G1> points(n);
  Fr exponent = Fr::zero();
  for (std::size_t i = 0; i < n; ++i) {
    scalars[i] = random_field<Fr>(rng);
    const Fr x = random_field<Fr>(rng);
    points[i] = g1_mul_generator(x);
    exponent += scalars[i] * x;
  }
  const G1 expected = g1_mul_generator(exponent);
  auto& pool = runtime::ThreadPool::instance();
  const std::size_t width = pool.concurrency();
  pool.configure(1);
  const G1 serial = msm(scalars, points);
  pool.configure(width);
  EXPECT_EQ(serial, expected);
  EXPECT_EQ(msm(scalars, points), expected);
}

TEST(MsmDifferential, EmptyInputIsIdentity) {
  EXPECT_EQ(msm(std::span<const Fr>{}, std::span<const G1>{}), G1::identity());
  EXPECT_EQ(msm_g2(std::span<const Fr>{}, std::span<const G2>{}),
            G2::identity());
}

// --- window sizing / bucket memory cap -------------------------------

TEST(MsmWindowCap, BucketMemoryBoundHolds) {
  // For any n, one window's bucket array must fit in kMsmMaxBucketBytes.
  for (const std::size_t n :
       {1u, 64u, 4096u, 1u << 16, 1u << 20, 1u << 24}) {
    for (const std::size_t bytes : {sizeof(G1), sizeof(G2)}) {
      const std::size_t c = msm_window_size(n, bytes);
      ASSERT_GE(c, std::size_t{1});
      EXPECT_LE((std::size_t{1} << (c - 1)) * bytes, kMsmMaxBucketBytes)
          << "n=" << n << " point_bytes=" << bytes << " c=" << c;
    }
  }
}

TEST(MsmWindowCap, LargeG2MsmStaysCorrectUnderCap) {
  // Large enough n that the uncapped heuristic would have picked a
  // wider window; the capped choice must still be correct. Bases are
  // x_i * G, so the sum is (sum k_i * x_i) * G — a cheap exact oracle.
  constexpr std::size_t n = 3000;
  std::mt19937_64 rng(33);
  std::vector<Fr> scalars(n);
  std::vector<G2> points(n);
  Fr exponent = Fr::zero();
  for (std::size_t i = 0; i < n; ++i) {
    scalars[i] = random_field<Fr>(rng);
    const Fr x = random_field<Fr>(rng);
    points[i] = g2_mul_generator(x);
    exponent += scalars[i] * x;
  }
  EXPECT_EQ(msm_g2(scalars, points), g2_mul_generator(exponent));
}

// --- batch normalization ---------------------------------------------

TEST(BatchNormalize, RoundTripsAndHandlesIdentity) {
  std::mt19937_64 rng(11);
  std::vector<G1> points;
  points.push_back(G1::identity());  // identity at the front
  for (int i = 0; i < 9; ++i) {
    points.push_back(g1_mul_generator(random_field<Fr>(rng)));
  }
  points.insert(points.begin() + 5, G1::identity());  // ... the middle
  points.push_back(G1::identity());                   // ... and the end
  const auto affine = batch_normalize(std::span<const G1>(points));
  ASSERT_EQ(affine.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].is_identity(), affine[i].is_identity()) << i;
    EXPECT_EQ(affine[i].to_jacobian(), points[i]) << i;
  }
}

TEST(BatchNormalize, AllIdentityAndEmpty) {
  const std::vector<G1> ids(5, G1::identity());
  const auto affine = batch_normalize(std::span<const G1>(ids));
  ASSERT_EQ(affine.size(), 5u);
  for (const auto& a : affine) EXPECT_TRUE(a.is_identity());
  EXPECT_TRUE(batch_normalize(std::span<const G1>{}).empty());
}

TEST(BatchNormalize, G2MatchesPerPointNormalization) {
  std::mt19937_64 rng(12);
  std::vector<G2> points;
  for (int i = 0; i < 6; ++i) {
    points.push_back(g2_mul_generator(random_field<Fr>(rng)));
  }
  points[3] = G2::identity();
  const auto affine = batch_normalize(std::span<const G2>(points));
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(affine[i].to_jacobian(), points[i]) << i;
  }
}

// --- mixed (Jacobian + affine) addition ------------------------------

TEST(MixedAdd, MatchesFullJacobianAdd) {
  std::mt19937_64 rng(21);
  for (int i = 0; i < 20; ++i) {
    const G1 p = g1_mul_generator(random_field<Fr>(rng));
    const G1 q = g1_mul_generator(random_field<Fr>(rng));
    const auto qa = batch_normalize(std::span<const G1>(&q, 1))[0];
    EXPECT_EQ(p + qa, p + q);
  }
}

TEST(MixedAdd, DoublingIdentityAndNegation) {
  std::mt19937_64 rng(22);
  const G1 p = g1_mul_generator(random_field<Fr>(rng));
  const auto pa = batch_normalize(std::span<const G1>(&p, 1))[0];
  EXPECT_EQ(p + pa, p.dbl());                       // P + P (mixed doubling)
  EXPECT_EQ(G1::identity() + pa, p);                // O + P
  EXPECT_EQ(p + G1Affine::identity(), p);           // P + O
  EXPECT_EQ(p + (-pa), G1::identity());             // P + (-P)
  EXPECT_EQ((-pa).to_jacobian() + pa, G1::identity());
}

// --- constant-time scalar multiplication -----------------------------

TEST(MulCt, G1MatchesVariableTime) {
  std::mt19937_64 rng(31);
  const G1 base = g1_mul_generator(random_field<Fr>(rng));
  for (const Fr& k : {Fr::zero(), Fr::one(), r_minus_one()}) {
    EXPECT_EQ(base.mul_ct(k), base.mul(k));
  }
  for (int i = 0; i < 10; ++i) {
    const Fr k = random_field<Fr>(rng);
    EXPECT_EQ(base.mul_ct(k), base.mul(k));
    EXPECT_EQ(G1::generator().mul_ct(k), g1_mul_generator(k));
  }
}

TEST(MulCt, G2MatchesVariableTime) {
  std::mt19937_64 rng(32);
  const G2 base = g2_mul_generator(random_field<Fr>(rng));
  for (const Fr& k : {Fr::zero(), Fr::one(), r_minus_one()}) {
    EXPECT_EQ(base.mul_ct(k), base.mul(k));
  }
  for (int i = 0; i < 5; ++i) {
    const Fr k = random_field<Fr>(rng);
    EXPECT_EQ(base.mul_ct(k), base.mul(k));
  }
}

TEST(MulCt, IdentityBase) {
  EXPECT_EQ(G1::identity().mul_ct(Fr::one()), G1::identity());
  EXPECT_EQ(G1::identity().mul_ct(r_minus_one()), G1::identity());
}

}  // namespace
}  // namespace zkdet::ec
