// Radix-2 number-theoretic transform over the BN-254 scalar field.
//
// Fr has 2-adicity 28 (r - 1 = 2^28 * odd), so power-of-two evaluation
// domains up to 2^28 points exist. EvaluationDomain caches the root of
// unity and all its powers for one size; both transform directions read
// their twiddles from that table. Plonk uses a size-n domain for witness
// polynomials and a shifted (coset) size-4n domain for the quotient,
// whose degree is at most 3n + 5.
#pragma once

#include <cstddef>
#include <vector>

#include "ff/bn254.hpp"

namespace zkdet::ff {

class EvaluationDomain {
 public:
  // size must be a power of two, 1 <= size <= 2^28.
  explicit EvaluationDomain(std::size_t size);

  // The domain generator omega for `size` (a power of two <= 2^28),
  // without building the domain's table of powers.
  [[nodiscard]] static Fr root_of_unity(std::size_t size);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const Fr& omega() const { return omega_; }
  // omega^i, cached for all i in [0, size).
  [[nodiscard]] const Fr& element(std::size_t i) const { return powers_[i]; }

  // In-place coefficients -> evaluations on {omega^i}.
  void fft(std::vector<Fr>& a) const;
  // In-place evaluations -> coefficients.
  void ifft(std::vector<Fr>& a) const;
  // Evaluations on the coset {shift * omega^i}.
  void coset_fft(std::vector<Fr>& a, const Fr& shift) const;
  void coset_ifft(std::vector<Fr>& a, const Fr& shift) const;

  // Z_H(x) = x^n - 1 evaluated at an arbitrary point.
  [[nodiscard]] Fr vanishing_at(const Fr& x) const;
  // L_i(x): the i-th Lagrange basis polynomial of this domain at x
  // (x must not be in the domain; callers in Plonk guarantee this whp).
  [[nodiscard]] Fr lagrange_at(std::size_t i, const Fr& x) const;
  // Evaluations of L_0..L_{n-1} at x, computed in O(n).
  [[nodiscard]] std::vector<Fr> all_lagrange_at(const Fr& x) const;

 private:
  std::size_t size_;
  Fr omega_;
  Fr size_inv_;
  std::vector<Fr> powers_;
};

// Verifies the 2-adic root machinery once; called from tests and the
// first domain construction (cheap, idempotent).
void check_two_adic_root();

}  // namespace zkdet::ff
