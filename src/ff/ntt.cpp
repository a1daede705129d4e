#include "ff/ntt.hpp"

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "ff/batch_inverse.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::ff {

void check_two_adic_root() {
  static const bool ok = [] {
    const Fr root = Fr::two_adic_root();
    Fr x = root;
    for (std::size_t i = 0; i < Fr::TWO_ADICITY - 1; ++i) x = x.square();
    // x = root^(2^27) must be -1 (primitive), and x^2 = 1.
    if (x != -Fr::one()) throw std::logic_error("Fr two-adic root not primitive");
    return true;
  }();
  (void)ok;
}

Fr EvaluationDomain::root_of_unity(std::size_t size) {
  ZKDET_CHECK(check::valid_ntt_domain(size), "no radix-2 domain of size ", size);
  static const Fr root = Fr::two_adic_root();  // order 2^TWO_ADICITY
  Fr omega = root;
  for (std::size_t s = size; s < (std::size_t{1} << Fr::TWO_ADICITY); s <<= 1) {
    omega = omega.square();
  }
  return omega;
}

EvaluationDomain::EvaluationDomain(std::size_t size) : size_(size) {
  if (size == 0 || (size & (size - 1)) != 0) {
    throw std::invalid_argument("domain size must be a power of two");
  }
  check_two_adic_root();
  std::size_t log_size = 0;
  while ((1ull << log_size) < size) ++log_size;
  if (log_size > Fr::TWO_ADICITY) {
    throw std::invalid_argument("domain larger than 2-adicity allows");
  }
  ZKDET_DCHECK(check::valid_ntt_domain(size),
               "domain precondition checker disagrees with constructor");
  omega_ = root_of_unity(size_);
  size_inv_ = Fr::from_u64(size_).inverse();
  powers_.resize(size_);
  powers_[0] = Fr::one();
  for (std::size_t i = 1; i < size_; ++i) powers_[i] = powers_[i - 1] * omega_;
}

namespace {

// Below this size a transform is microseconds of work; parallel dispatch
// would cost more than it saves.
constexpr std::size_t kNttParallelSize = 1ull << 12;

// One block's butterflies for the j-range [j0, j1). Twiddle j is read
// from the domain's table of powers: omega_m^j = powers[j * size/m]
// forward and omega_m^-j = powers[size - j * size/m] inverse, i.e.
// powers[(j * tw_step) mod size] with tw_step = size/m or size - size/m.
void butterflies(std::vector<Fr>& a, const std::vector<Fr>& powers,
                 std::size_t tw_step, std::size_t start, std::size_t half,
                 std::size_t j0, std::size_t j1) {
  const std::size_t mask = powers.size() - 1;
  for (std::size_t j = j0; j < j1; ++j) {
    const Fr t = powers[(j * tw_step) & mask] * a[start + j + half];
    const Fr u = a[start + j];
    a[start + j] = u + t;
    a[start + j + half] = u - t;
  }
}

// `powers` holds omega^i for i in [0, a.size()).
void ntt_in_place(std::vector<Fr>& a, const std::vector<Fr>& powers,
                  bool inverse) {
  runtime::ScopedTimer timer(runtime::counters::ntt_ns);
  const std::size_t n = a.size();
  // bit reversal permutation
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  auto& pool = runtime::ThreadPool::instance();
  const bool parallel = n >= kNttParallelSize && pool.concurrency() > 1;
  for (std::size_t m = 2; m <= n; m <<= 1) {
    const std::size_t half = m / 2;
    const std::size_t blocks = n / m;
    const std::size_t tw_step = inverse ? n - blocks : blocks;
    if (!parallel) {
      for (std::size_t start = 0; start < n; start += m) {
        butterflies(a, powers, tw_step, start, half, 0, half);
      }
    } else if (blocks >= pool.concurrency()) {
      // Early layers: many independent blocks — one chunk = some blocks.
      pool.parallel_for(blocks, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          butterflies(a, powers, tw_step, b * m, half, 0, half);
        }
      });
    } else {
      // Late layers: few wide blocks — split each block's j-range.
      const std::size_t piece =
          std::max<std::size_t>(1024, half / (4 * pool.concurrency()));
      const std::size_t per_block = (half + piece - 1) / piece;
      pool.parallel_for(blocks * per_block, 1,
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t t = lo; t < hi; ++t) {
                            const std::size_t b = t / per_block;
                            const std::size_t j0 = (t % per_block) * piece;
                            butterflies(a, powers, tw_step, b * m, half, j0,
                                        std::min(half, j0 + piece));
                          }
                        });
    }
  }
}

// a[i] *= base^i, chunked: each chunk recovers its starting power with
// one pow, so the loop parallelizes without a sequential carry.
void scale_by_powers(std::vector<Fr>& a, const Fr& base) {
  auto& pool = runtime::ThreadPool::instance();
  if (a.size() < kNttParallelSize || pool.concurrency() <= 1) {
    Fr cur = Fr::one();
    for (auto& x : a) {
      x *= cur;
      cur *= base;
    }
    return;
  }
  pool.parallel_for(a.size(), [&](std::size_t lo, std::size_t hi) {
    Fr cur = lo == 0 ? Fr::one() : base.pow(U256{lo});
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] *= cur;
      cur *= base;
    }
  });
}

}  // namespace

void EvaluationDomain::fft(std::vector<Fr>& a) const {
  ZKDET_CHECK(a.size() == size_, "fft: vector size ", a.size(),
              " does not match domain size ", size_);
  ntt_in_place(a, powers_, false);
}

void EvaluationDomain::ifft(std::vector<Fr>& a) const {
  ZKDET_CHECK(a.size() == size_, "ifft: vector size ", a.size(),
              " does not match domain size ", size_);
  ntt_in_place(a, powers_, true);
  const Fr s = size_inv_;
  runtime::ThreadPool::instance().parallel_for(
      a.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] *= s;
      });
}

void EvaluationDomain::coset_fft(std::vector<Fr>& a, const Fr& shift) const {
  scale_by_powers(a, shift);
  fft(a);
}

void EvaluationDomain::coset_ifft(std::vector<Fr>& a, const Fr& shift) const {
  ifft(a);
  scale_by_powers(a, shift.inverse());
}

Fr EvaluationDomain::vanishing_at(const Fr& x) const {
  return x.pow(U256{size_}) - Fr::one();
}

Fr EvaluationDomain::lagrange_at(std::size_t i, const Fr& x) const {
  // L_i(x) = omega^i * (x^n - 1) / (n * (x - omega^i))
  const Fr num = powers_[i] * vanishing_at(x);
  const Fr den = Fr::from_u64(size_) * (x - powers_[i]);
  return num * den.inverse();
}

std::vector<Fr> EvaluationDomain::all_lagrange_at(const Fr& x) const {
  // L_i(x) = w^i Z_H(x) / (n (x - w^i)), denominators batch-inverted.
  const Fr zh = vanishing_at(x);
  const Fr n = Fr::from_u64(size_);
  std::vector<Fr> out(size_);
  for (std::size_t i = 0; i < size_; ++i) out[i] = n * (x - powers_[i]);
  batch_inverse(std::span<Fr>(out));
  for (std::size_t i = 0; i < size_; ++i) out[i] *= powers_[i] * zh;
  return out;
}

}  // namespace zkdet::ff
