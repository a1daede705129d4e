#include "oracles/ntt.hpp"

#include <utility>

#include "ff/ntt.hpp"

namespace zkdet::oracle {

namespace {

void ntt_in_place(std::vector<Fr>& a, const Fr& root) {
  const std::size_t n = a.size();
  std::size_t log_n = 0;
  while ((std::size_t{1} << log_n) < n) ++log_n;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t s = 1; s <= log_n; ++s) {
    const std::size_t m = std::size_t{1} << s;
    const std::size_t half = m / 2;
    Fr wm = root;
    for (std::size_t k = s; k < log_n; ++k) wm = wm.square();
    for (std::size_t start = 0; start < n; start += m) {
      Fr w = Fr::one();
      for (std::size_t j = 0; j < half; ++j) {
        const Fr t = w * a[start + j + half];
        const Fr u = a[start + j];
        a[start + j] = u + t;
        a[start + j + half] = u - t;
        w *= wm;
      }
    }
  }
}

void scale_by_powers(std::vector<Fr>& a, const Fr& base) {
  Fr cur = Fr::one();
  for (auto& x : a) {
    x *= cur;
    cur *= base;
  }
}

}  // namespace

std::vector<Fr> ntt_fft(std::vector<Fr> a) {
  ntt_in_place(a, ff::EvaluationDomain::root_of_unity(a.size()));
  return a;
}

std::vector<Fr> ntt_ifft(std::vector<Fr> a) {
  ntt_in_place(a, ff::EvaluationDomain::root_of_unity(a.size()).inverse());
  const Fr size_inv = Fr::from_u64(a.size()).inverse();
  for (auto& x : a) x *= size_inv;
  return a;
}

std::vector<Fr> ntt_coset_fft(std::vector<Fr> a, const Fr& shift) {
  scale_by_powers(a, shift);
  return ntt_fft(std::move(a));
}

std::vector<Fr> ntt_coset_ifft(std::vector<Fr> a, const Fr& shift) {
  a = ntt_ifft(std::move(a));
  scale_by_powers(a, shift.inverse());
  return a;
}

}  // namespace zkdet::oracle
