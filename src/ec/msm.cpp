#include "ec/msm.hpp"

#include <algorithm>
#include <type_traits>

#include "check/check.hpp"
#include "ec/glv.hpp"
#include "ff/batch_inverse.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::ec {

namespace {

// Below this input size one bucket pass is cheaper than dispatching
// window tasks to the pool; run the windows serially.
constexpr std::size_t kMsmParallelThreshold = 256;

// Below this size the bucket machinery (digit decomposition, bucket
// array setup) costs more than naive double-and-add.
constexpr std::size_t kMsmNaiveThreshold = 8;

// Pending bucket adds that share one inversion: at most 256, and at most
// half the window's buckets, so a batch can fill before most bases find
// their bucket busy.
constexpr std::size_t kBatchAffineSize = 256;

// Full-width windows with at least this many buckets (c >= 9) use
// batch-affine buckets. With fewer, a batch holds at most 64 adds, too
// few to repay its Fermat inversion: it would cost more than mixed adds.
// Small inputs, like the verifier's 18-term MSM, stay on Jacobian
// buckets.
constexpr std::size_t kBatchAffineMinBuckets = 256;

// Window cost model, in field multiplications (squares included). A
// mixed add is ~11, a Jacobian add ~16; a batch-affine bucket add is ~6
// plus its share of one Fermat inversion (~380) per batch.
constexpr std::uint64_t kMixedAddMuls = 11;
constexpr std::uint64_t kJacobianAddMuls = 16;
constexpr std::uint64_t kAffineAddMuls = 6;
constexpr std::uint64_t kInverseMuls = 380;

template <typename Point>
Point msm_naive_impl(std::span<const Fr> scalars, std::span<const Point> points) {
  ZKDET_CHECK(scalars.size() == points.size(),
              "msm: scalar/point count mismatch");
  Point acc = Point::identity();
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    acc += points[i].mul(scalars[i]);
  }
  return acc;
}

// c bits of k starting at bit `off` (off < 256; bits past 255 read 0).
std::uint64_t window_bits(const U256& k, std::size_t off, std::size_t c) {
  const std::size_t limb = off / 64;
  const std::size_t lo = off % 64;
  std::uint64_t v = k.limb[limb] >> lo;
  if (lo + c > 64 && limb + 1 < 4) v |= k.limb[limb + 1] << (64 - lo);
  return v & ((1ull << c) - 1);
}

// Signed-digit decomposition: k = sum_w out[w] * 2^(c*w) with digits in
// [-2^(c-1), 2^(c-1)], of -k when `negate` is set. Digits for scalar i
// land at out[w * stride + i] (column-major: window tasks read their
// digit row contiguously). For k < 2^bits and
// num_windows = floor(bits / c) + 1 the top window holds at most c-1 raw
// bits, so the final carry is always zero.
void signed_digits(const U256& k, bool negate, std::size_t c,
                   std::size_t num_windows, std::size_t stride, std::size_t i,
                   std::int32_t* out) {
  const std::int64_t full = std::int64_t{1} << c;
  const std::int64_t half = full >> 1;
  std::uint64_t carry = 0;
  for (std::size_t w = 0; w < num_windows; ++w) {
    const auto d = static_cast<std::int64_t>(window_bits(k, w * c, c) + carry);
    std::int64_t digit = d;
    carry = 0;
    if (d > half) {
      digit = d - full;
      carry = 1;
    }
    // digit in [-2^15, 2^15] (c <= 16), well inside int32 range.
    out[w * stride + i] =  // zkdet-lint: allow(narrowing-cast) digit fits c+1 bits
        static_cast<std::int32_t>(negate ? -digit : digit);
  }
}

// sum_j (j+1) * bucket[j] by the running-sum trick, where bucket j is
// buckets[j] plus, if there is an overflow array, overflow[j].
template <typename P, typename Bucket>
P running_sum(const std::vector<Bucket>& buckets,
              const std::vector<P>& overflow) {
  P running = P::identity();
  P acc = P::identity();
  for (std::size_t j = buckets.size(); j-- > 0;) {
    running += buckets[j];
    if (!overflow.empty()) running += overflow[j];
    acc += running;
  }
  return acc;
}

// The bases of one bucket MSM: size() of them, the i-th by at(i).
template <typename Traits_>
struct AffineBases {
  using Traits = Traits_;
  std::span<const AffinePoint<Traits>> points;

  [[nodiscard]] std::size_t size() const { return points.size(); }
  [[nodiscard]] const AffinePoint<Traits>& at(std::size_t i) const {
    return points[i];
  }
};

// The 2n GLV bases of n G1 points: P_i at i < n, then
// phi(P_i) = (beta x_i, y_i) at n + i. Only beta x_i is stored, one field
// element per point instead of a second copy of the points.
struct GlvBases {
  using Traits = G1Traits;
  std::span<const G1Affine> points;
  std::vector<ff::Fp> beta_x;

  [[nodiscard]] std::size_t size() const { return 2 * points.size(); }
  [[nodiscard]] G1Affine at(std::size_t i) const {
    const std::size_t n = points.size();
    if (i < n) return points[i];
    const G1Affine& p = points[i - n];
    return p.is_identity() ? p : G1Affine{beta_x[i - n], p.y};
  }
};

// Mixed-add Jacobian buckets: every bucket += ±base is one mixed add
// (~11 muls).
template <typename Bases>
Point<typename Bases::Traits> window_sum_jacobian(const std::int32_t* wd,
                                                  const Bases& bases,
                                                  std::size_t num_buckets) {
  using P = Point<typename Bases::Traits>;
  std::vector<P> buckets(num_buckets, P::identity());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::int32_t d = wd[i];
    if (d > 0) {
      buckets[static_cast<std::size_t>(d) - 1] += bases.at(i);
    } else if (d < 0) {
      buckets[static_cast<std::size_t>(-d) - 1] -= bases.at(i);
    }
  }
  return running_sum(buckets, std::vector<P>{});
}

// Batch-affine buckets: the buckets stay affine, and a batch of pending
// adds bucket += ±base, each into a different bucket, shares one
// ff::batch_inverse of their x-differences. An add then costs ~6 muls
// plus its share of the inversion, instead of a mixed add's ~11. A base
// whose bucket already has an add pending waits for the next batch, once. A base that cannot
// wait, and the rare base with its bucket's x (a doubling or a
// cancellation), goes into that bucket's Jacobian overflow by a mixed
// add; the overflow array is only allocated when that happens. The
// batch inversion keeps its prefix products in the caller's `scratch`,
// so one buffer serves every batch of every window a task runs.
template <typename Traits>
class BatchAffineBuckets {
 public:
  using A = AffinePoint<Traits>;
  using P = Point<Traits>;
  using F = typename Traits::Field;

  BatchAffineBuckets(std::size_t num_buckets, std::vector<F>& scratch)
      : batch_size_(std::min(kBatchAffineSize, num_buckets / 2)),
        buckets_(num_buckets),
        busy_(num_buckets, 0),
        scratch_(scratch) {
    pending_.reserve(batch_size_);
    dx_.reserve(batch_size_);
    if (scratch_.size() < batch_size_) scratch_.resize(batch_size_);
  }

  void add(std::size_t bucket, const A& base) {
    schedule(bucket, base, /*may_wait=*/true);
    if (pending_.size() >= batch_size_) run_batch();
  }

  // Runs what is left, then sums the window.
  P window_sum() {
    while (!pending_.empty() || !waiting_.empty()) run_batch();
    return running_sum(buckets_, overflow_);
  }

 private:
  struct Add {
    std::size_t bucket;
    A base;
  };

  void schedule(std::size_t bucket, const A& base, bool may_wait) {
    if (busy_[bucket] != 0) {
      if (may_wait && waiting_.size() < batch_size_) {
        waiting_.push_back({bucket, base});
      } else {
        to_overflow(bucket, base);
      }
      return;
    }
    A& acc = buckets_[bucket];
    if (acc.is_identity()) {
      acc = base;
    } else if (acc.x == base.x) {
      to_overflow(bucket, base);
    } else {
      busy_[bucket] = 1;
      pending_.push_back({bucket, base});
      dx_.push_back(base.x - acc.x);
    }
  }

  void to_overflow(std::size_t bucket, const A& base) {
    if (overflow_.empty()) overflow_.assign(buckets_.size(), P::identity());
    overflow_[bucket] += base;
  }

  // Applies the pending adds with one shared inversion, then gives each
  // waiting base its one retry.
  void run_batch() {
    if (!pending_.empty()) {
      ff::batch_inverse(std::span<F>(dx_), std::span<F>(scratch_));
      for (std::size_t k = 0; k < pending_.size(); ++k) {
        const Add& a = pending_[k];
        A& acc = buckets_[a.bucket];
        const F lambda = (a.base.y - acc.y) * dx_[k];
        const F x3 = lambda.square() - acc.x - a.base.x;
        acc.y = lambda * (acc.x - x3) - acc.y;
        acc.x = x3;
        busy_[a.bucket] = 0;
      }
      pending_.clear();
      dx_.clear();
    }
    retry_.swap(waiting_);
    for (const Add& a : retry_) schedule(a.bucket, a.base, /*may_wait=*/false);
    retry_.clear();
  }

  std::size_t batch_size_;
  std::vector<A> buckets_;
  std::vector<std::uint8_t> busy_;  // 1 while the bucket has an add pending
  std::vector<P> overflow_;
  std::vector<Add> pending_;
  std::vector<F> dx_;  // base.x - bucket.x per pending add
  std::vector<Add> waiting_;
  std::vector<Add> retry_;
  std::vector<F>& scratch_;  // batch_inverse prefix products
};

template <typename Bases>
Point<typename Bases::Traits> window_sum_batch_affine(
    const std::int32_t* wd, const Bases& bases, std::size_t num_buckets,
    std::vector<typename Bases::Traits::Field>& scratch) {
  BatchAffineBuckets<typename Bases::Traits> buckets(num_buckets, scratch);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::int32_t d = wd[i];
    if (d == 0) continue;
    const auto& base = bases.at(i);
    if (base.is_identity()) continue;
    if (d > 0) {
      buckets.add(static_cast<std::size_t>(d) - 1, base);
    } else {
      buckets.add(static_cast<std::size_t>(-d) - 1, -base);
    }
  }
  return buckets.window_sum();
}

// Signed-digit Pippenger over affine bases and scalars below 2^bits:
// negative digits use the free affine negation, and only 2^(c-1)
// buckets are needed per window. write_digits(c, num_windows, out) fills
// the digits of every scalar (signed_digits' layout). Full-width windows
// with kBatchAffineMinBuckets buckets or more accumulate in batch-affine
// buckets; small inputs and the top window, whose few live buckets would
// make nearly every base wait, keep mixed-add Jacobian buckets.
template <typename Bases, typename WriteDigits>
Point<typename Bases::Traits> pippenger(const Bases& bases, std::size_t bits,
                                        WriteDigits&& write_digits) {
  using P = Point<typename Bases::Traits>;
  const std::size_t n = bases.size();
  const std::size_t c = msm_window_size(n, sizeof(P), bits);
  const std::size_t num_windows = bits / c + 1;
  std::vector<std::int32_t> digits(num_windows * n);
  write_digits(c, num_windows, digits.data());

  const std::size_t num_buckets = 1ull << (c - 1);
  std::vector<P> window_sums(num_windows, P::identity());

  // Each run of windows owns one batch-inversion scratch buffer.
  using F = typename Bases::Traits::Field;
  const auto process_windows = [&](std::size_t lo, std::size_t hi) {
    std::vector<F> scratch;
    for (std::size_t w = lo; w < hi; ++w) {
      const std::int32_t* wd = digits.data() + w * n;
      const bool full_width = (w + 1) * c <= bits;
      window_sums[w] =
          num_buckets >= kBatchAffineMinBuckets && full_width
              ? window_sum_batch_affine(wd, bases, num_buckets, scratch)
              : window_sum_jacobian(wd, bases, num_buckets);
    }
  };

  // Windows are independent; large inputs share the process-wide pool
  // (one chunk per window) instead of spawning threads per call.
  auto& pool = runtime::ThreadPool::instance();
  if (n < kMsmParallelThreshold || pool.concurrency() <= 1) {
    process_windows(0, num_windows);
  } else {
    pool.parallel_for(num_windows, 1, process_windows);
  }

  P result = P::identity();
  for (std::size_t w = num_windows; w-- > 0;) {
    for (std::size_t b = 0; b < c; ++b) result = result.dbl();
    result += window_sums[w];
  }
  return result;
}

// The one bucket MSM entry. G1 splits every scalar by GLV, k P =
// k1 P + k2 phi(P), and runs the engine on 2n bases with 128-bit
// half-scalars; a negative half negates its digits, which the engine
// applies as the free affine negation. G2 runs the engine on the full
// 254-bit scalars.
template <typename Traits>
Point<Traits> msm_affine_impl(std::span<const Fr> scalars,
                              std::span<const AffinePoint<Traits>> points) {
  using P = Point<Traits>;
  ZKDET_CHECK(scalars.size() == points.size(),
              "msm: scalar/point count mismatch");
  const std::size_t n = scalars.size();
  if (n == 0) return P::identity();
  if (n < kMsmNaiveThreshold) {
    P acc = P::identity();
    for (std::size_t i = 0; i < n; ++i) {
      acc += points[i].to_jacobian().mul(scalars[i]);
    }
    return acc;
  }
  runtime::ScopedTimer timer(runtime::counters::msm_ns);

  if constexpr (std::is_same_v<Traits, G1Traits>) {
    GlvBases bases{points, std::vector<ff::Fp>(n)};
    const ff::Fp& beta = glv_beta();
    for (std::size_t i = 0; i < n; ++i) bases.beta_x[i] = beta * points[i].x;
    return pippenger(bases, kGlvScalarBits,
                     [&](std::size_t c, std::size_t num_windows,
                         std::int32_t* out) {
                       for (std::size_t i = 0; i < n; ++i) {
                         const GlvSplit s = glv_split(scalars[i].to_canonical());
                         signed_digits(s.k1, s.neg1, c, num_windows, 2 * n, i,
                                       out);
                         signed_digits(s.k2, s.neg2, c, num_windows, 2 * n,
                                       n + i, out);
                       }
                     });
  } else {
    return pippenger(AffineBases<Traits>{points}, kScalarBits,
                     [&](std::size_t c, std::size_t num_windows,
                         std::int32_t* out) {
                       for (std::size_t i = 0; i < n; ++i) {
                         signed_digits(scalars[i].to_canonical(), false, c,
                                       num_windows, n, i, out);
                       }
                     });
  }
}

// Fixed-base table: table[w][b] = (b+1) * 2^(8w) * G for the generator,
// stored affine (smaller table, mixed adds in fixed_mul). Built in
// Jacobian form, then batch-normalized with a single inversion.
template <typename Traits>
const std::vector<std::array<AffinePoint<Traits>, 255>>& generator_table() {
  using P = Point<Traits>;
  static const std::vector<std::array<AffinePoint<Traits>, 255>> table = [] {
    std::vector<P> flat;
    flat.reserve(32 * 255);
    P base = P::generator();
    for (std::size_t w = 0; w < 32; ++w) {
      P acc = base;
      for (std::size_t b = 0; b < 255; ++b) {
        flat.push_back(acc);
        acc += base;
      }
      base = acc;  // 256 * old base
    }
    const auto affine = batch_normalize_impl<Traits>(std::span<const P>(flat));
    std::vector<std::array<AffinePoint<Traits>, 255>> t(32);
    for (std::size_t w = 0; w < 32; ++w) {
      for (std::size_t b = 0; b < 255; ++b) t[w][b] = affine[w * 255 + b];
    }
    return t;
  }();
  return table;
}

template <typename Traits>
Point<Traits> fixed_mul(const Fr& k) {
  const U256 v = k.to_canonical();
  const auto& table = generator_table<Traits>();
  Point<Traits> acc = Point<Traits>::identity();
  for (std::size_t w = 0; w < 32; ++w) {
    const std::uint8_t byte =  // zkdet-lint: allow(narrowing-cast) window extract
        static_cast<std::uint8_t>(v.limb[w / 8] >> ((w % 8) * 8));
    if (byte != 0) acc += table[w][byte - 1];  // mixed add
  }
  return acc;
}

}  // namespace

std::size_t msm_window_size(std::size_t n, std::size_t point_bytes,
                            std::size_t scalar_bits) {
  if (n < 32) return 3;
  std::size_t best = 3;
  std::uint64_t best_cost = ~0ull;
  for (std::size_t c = 3; c <= 16; ++c) {
    if ((1ull << (c - 1)) * point_bytes > kMsmMaxBucketBytes) break;
    const std::uint64_t buckets = 1ull << (c - 1);
    // Per window: the first hit on an empty bucket is a coordinate copy
    // (~1), later hits are bucket adds, and the running sum costs two
    // adds per bucket. The first-touch term matters: wide windows see
    // most buckets only once or twice.
    const std::uint64_t touches = std::min<std::uint64_t>(n, buckets);
    const std::uint64_t jacobian = kMixedAddMuls * (n - touches) + touches +
                                   2 * kJacobianAddMuls * buckets;
    // Batch-affine windows: a bucket add is kAffineAddMuls plus its
    // share of the batch's inversion, and the running sum adds affine
    // buckets by mixed adds.
    std::uint64_t full = jacobian;
    if (buckets >= kBatchAffineMinBuckets) {
      const std::uint64_t batch = std::min<std::uint64_t>(kBatchAffineSize,
                                                          buckets / 2);
      full = (kAffineAddMuls * batch + kInverseMuls) * (n - touches) / batch +
             touches + (kMixedAddMuls + kJacobianAddMuls) * buckets;
    }
    // The top window holds the scalar_bits % c leftover bits and a carry,
    // in Jacobian buckets, 2^leftover of them live. With no leftover bits
    // its digit is the carry alone, nonzero for about half the scalars.
    const std::uint64_t full_windows = scalar_bits / c;
    const std::uint64_t leftover = scalar_bits % c;
    const std::uint64_t top = kMixedAddMuls * (leftover == 0 ? n / 2 : n) +
                              2 * kJacobianAddMuls * (1ull << leftover);
    const std::uint64_t cost = full_windows * full + top;
    if (cost < best_cost) {
      best_cost = cost;
      best = c;
    }
  }
  return best;
}

G1 msm_naive(std::span<const Fr> scalars, std::span<const G1> points) {
  return msm_naive_impl(scalars, points);
}

G2 msm_naive_g2(std::span<const Fr> scalars, std::span<const G2> points) {
  return msm_naive_impl(scalars, points);
}

G1 msm(std::span<const Fr> scalars, std::span<const G1> points) {
  ZKDET_CHECK(scalars.size() == points.size(),
              "msm: scalar/point count mismatch");
  if (points.size() < kMsmNaiveThreshold) {
    return msm_naive_impl(scalars, points);
  }
  const auto affine = batch_normalize(points);
  return msm_affine_impl<G1Traits>(scalars,
                                   std::span<const G1Affine>(affine));
}

G1 msm(std::span<const Fr> scalars, std::span<const G1Affine> points) {
  return msm_affine_impl<G1Traits>(scalars, points);
}

G2 msm_g2(std::span<const Fr> scalars, std::span<const G2> points) {
  ZKDET_CHECK(scalars.size() == points.size(),
              "msm: scalar/point count mismatch");
  if (points.size() < kMsmNaiveThreshold) {
    return msm_naive_impl(scalars, points);
  }
  const auto affine = batch_normalize(points);
  return msm_affine_impl<G2Traits>(scalars,
                                   std::span<const G2Affine>(affine));
}

G2 msm_g2(std::span<const Fr> scalars, std::span<const G2Affine> points) {
  return msm_affine_impl<G2Traits>(scalars, points);
}

G1 g1_mul_generator(const Fr& k) { return fixed_mul<G1Traits>(k); }
G2 g2_mul_generator(const Fr& k) { return fixed_mul<G2Traits>(k); }

}  // namespace zkdet::ec
