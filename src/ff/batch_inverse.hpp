// Batch inversion (Montgomery's trick): n inverses for one field
// inversion and 3(n - 1) multiplications. Works for any field type with
// one(), is_zero(), inverse() and *, i.e. Fp, Fr and Fp2.
#pragma once

#include <span>
#include <vector>

#include "check/check.hpp"

namespace zkdet::ff {

// Replaces every nonzero xs[i] with its inverse; zero entries stay zero.
// The prefix products go to the caller-owned `scratch`, which must hold
// at least xs.size() elements; hot loops reuse one buffer across calls.
template <typename F>
void batch_inverse(std::span<F> xs, std::span<F> scratch) {
  ZKDET_CHECK(scratch.size() >= xs.size(), "batch_inverse: scratch of ",
              scratch.size(), " for ", xs.size(), " elements");
  // scratch[i] = product of the nonzero entries before i.
  F acc = F::one();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    scratch[i] = acc;
    if (!xs[i].is_zero()) acc *= xs[i];
  }
  F inv = acc.inverse();  // 1 / (product of all nonzero entries)
  for (std::size_t i = xs.size(); i-- > 0;) {
    if (xs[i].is_zero()) continue;
    const F next = inv * xs[i];
    xs[i] = inv * scratch[i];
    inv = next;
  }
}

// The same, with a scratch vector of its own.
template <typename F>
void batch_inverse(std::span<F> xs) {
  std::vector<F> prefix(xs.size());
  batch_inverse(xs, std::span<F>(prefix));
}

}  // namespace zkdet::ff
