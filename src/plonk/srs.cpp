#include "plonk/srs.hpp"

#include "check/check.hpp"

namespace zkdet::plonk {

Srs Srs::setup(std::size_t max_degree, crypto::Drbg& rng) {
  Srs srs;
  const Fr tau = rng.random_fr();  // toxic waste; dropped on return
  std::vector<G1> powers;
  powers.reserve(max_degree + 1);
  Fr cur = Fr::one();
  for (std::size_t i = 0; i <= max_degree; ++i) {
    powers.push_back(ec::g1_mul_generator(cur));
    cur *= tau;
  }
  srs.g1_powers = ec::batch_normalize(std::span<const G1>(powers));
  srs.g2_gen = G2::generator();
  srs.g2_tau = srs.g2_gen.mul(tau);
  return srs;
}

G1Affine Srs::commit(const Polynomial& p) const { return commit(p.coeffs()); }

G1Affine Srs::commit(std::span<const Fr> coeffs) const {
  // The zero polynomial commits to the identity; returning early also
  // keeps the failure message below from formatting `0 - 1`.
  if (coeffs.empty()) return G1Affine::identity();
  ZKDET_CHECK(coeffs.size() <= g1_powers.size(),
              "SRS too small: committing to degree ", coeffs.size() - 1,
              " with ", g1_powers.size(), " powers");
  return G1Affine::from_jacobian(ec::msm(
      coeffs, std::span<const G1Affine>(g1_powers).subspan(0, coeffs.size())));
}

}  // namespace zkdet::plonk
