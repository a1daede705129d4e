// Batch inversion (Montgomery's trick): n inverses for one field
// inversion and 3(n - 1) multiplications. Works for any field type with
// one(), is_zero(), inverse() and *, i.e. Fp, Fr and Fp2.
#pragma once

#include <span>
#include <vector>

namespace zkdet::ff {

// Replaces every nonzero xs[i] with its inverse; zero entries stay zero.
template <typename F>
void batch_inverse(std::span<F> xs) {
  // prefix[i] = product of the nonzero entries before i.
  std::vector<F> prefix;
  prefix.reserve(xs.size());
  F acc = F::one();
  for (const F& x : xs) {
    prefix.push_back(acc);
    if (!x.is_zero()) acc *= x;
  }
  F inv = acc.inverse();  // 1 / (product of all nonzero entries)
  for (std::size_t i = xs.size(); i-- > 0;) {
    if (xs[i].is_zero()) continue;
    const F next = inv * xs[i];
    xs[i] = inv * prefix[i];
    inv = next;
  }
}

}  // namespace zkdet::ff
