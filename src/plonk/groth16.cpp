#include "plonk/groth16.hpp"

#include "check/check.hpp"

#include "ec/msm.hpp"
#include "ec/pairing.hpp"
#include "ff/ntt.hpp"
#include "ff/polynomial.hpp"

namespace zkdet::plonk::groth16 {

using ff::EvaluationDomain;
using ff::U256;

namespace {

// R1CS view of a ConstraintSystem.
//
// Witness layout: index 0 is the constant one; indices 1..ell are the
// declared public inputs; the remaining circuit variables (including the
// reserved zero variable) follow as auxiliary witnesses. Each gate
//   qm*a*b + ql*a + qr*b + qo*c + qc = 0
// becomes the R1CS row (qm*a) * (b) = -(ql*a + qr*b + qo*c + qc), plus
// one extra row pinning the circuit's zero variable to 0.
struct R1cs {
  std::size_t num_vars = 0;       // R1CS variables incl. the one-constant
  std::size_t num_statement = 0;  // 1 + ell
  std::vector<std::uint32_t> map;  // circuit var -> R1CS index

  explicit R1cs(const ConstraintSystem& cs) {
    const std::size_t ell = cs.public_vars().size();
    num_statement = 1 + ell;
    map.assign(cs.num_variables(), 0);
    std::vector<bool> is_public(cs.num_variables(), false);
    std::uint32_t next = 1;
    for (const Var v : cs.public_vars()) {
      map[v] = next++;
      is_public[v] = true;
    }
    for (Var v = 0; v < cs.num_variables(); ++v) {
      if (!is_public[v]) map[v] = next++;
    }
    num_vars = next;
  }

  [[nodiscard]] std::size_t num_constraints(const ConstraintSystem& cs) const {
    return cs.gates().size() + 1;  // +1 for the zero-variable pin
  }

  // Builds the full R1CS witness from a circuit witness.
  [[nodiscard]] std::vector<Fr> full_witness(
      const ConstraintSystem& cs, const std::vector<Fr>& witness) const {
    std::vector<Fr> w(num_vars, Fr::zero());
    w[0] = Fr::one();
    for (Var v = 0; v < cs.num_variables(); ++v) w[map[v]] = witness[v];
    return w;
  }

  // Visits the nonzero (row, var-index, coeff) entries of the A, B and C
  // matrices. fn(row, r1cs_index, coeff, matrix) with matrix 0/1/2.
  template <typename Fn>
  void for_entries(const ConstraintSystem& cs, Fn&& fn) const {
    const auto& gates = cs.gates();
    for (std::size_t row = 0; row < gates.size(); ++row) {
      const Gate& g = gates[row];
      if (!g.qm.is_zero()) {
        fn(row, map[g.a], g.qm, 0);
        fn(row, map[g.b], Fr::one(), 1);
      }
      if (!g.ql.is_zero()) fn(row, map[g.a], -g.ql, 2);
      if (!g.qr.is_zero()) fn(row, map[g.b], -g.qr, 2);
      if (!g.qo.is_zero()) fn(row, map[g.c], -g.qo, 2);
      if (!g.qc.is_zero()) fn(row, 0u, -g.qc, 2);
    }
    // zero-variable pin: (w_zero) * (1) = 0
    const std::size_t zrow = gates.size();
    fn(zrow, map[ConstraintSystem::kZeroVar], Fr::one(), 0);
    fn(zrow, 0u, Fr::one(), 1);
  }
};

}  // namespace

std::optional<KeyPairResult> setup(const ConstraintSystem& cs,
                                   crypto::Drbg& rng) {
  const R1cs r1cs(cs);
  const std::size_t m = r1cs.num_constraints(cs);
  std::size_t n = 8;
  while (n < m) n <<= 1;
  const EvaluationDomain domain(n);

  // toxic waste
  const Fr alpha = rng.random_fr();
  const Fr beta = rng.random_fr();
  const Fr gamma = rng.random_fr();
  const Fr delta = rng.random_fr();
  const Fr tau = rng.random_fr();

  // Per-variable QAP evaluations at tau via Lagrange values.
  const std::vector<Fr> lag = domain.all_lagrange_at(tau);
  std::vector<Fr> at(r1cs.num_vars, Fr::zero());
  std::vector<Fr> bt(r1cs.num_vars, Fr::zero());
  std::vector<Fr> ct(r1cs.num_vars, Fr::zero());
  r1cs.for_entries(cs, [&](std::size_t row, std::uint32_t idx, const Fr& coeff,
                           int matrix) {
    const Fr v = coeff * lag[row];
    if (matrix == 0) {
      at[idx] += v;
    } else if (matrix == 1) {
      bt[idx] += v;
    } else {
      ct[idx] += v;
    }
  });

  const Fr z_tau = domain.vanishing_at(tau);
  const Fr delta_inv = delta.inverse();
  const Fr gamma_inv = gamma.inverse();

  ProvingKey pk;
  pk.num_constraints = m;
  pk.domain_size = n;
  pk.num_statement = r1cs.num_statement;
  pk.alpha_g1 = ec::g1_mul_generator(alpha);
  pk.beta_g1 = ec::g1_mul_generator(beta);
  pk.delta_g1 = ec::g1_mul_generator(delta);
  pk.beta_g2 = ec::g2_mul_generator(beta);
  pk.delta_g2 = ec::g2_mul_generator(delta);

  // Every query is computed Jacobian and batch-normalised once here
  // (identity-safe: a variable absent from A or B gives the identity).
  std::vector<G1> a_query;
  std::vector<G1> b_g1_query;
  std::vector<G2> b_g2_query;
  a_query.reserve(r1cs.num_vars);
  b_g1_query.reserve(r1cs.num_vars);
  b_g2_query.reserve(r1cs.num_vars);
  for (std::size_t i = 0; i < r1cs.num_vars; ++i) {
    a_query.push_back(ec::g1_mul_generator(at[i]));
    b_g1_query.push_back(ec::g1_mul_generator(bt[i]));
    b_g2_query.push_back(ec::g2_mul_generator(bt[i]));
  }
  pk.a_query = ec::batch_normalize(a_query);
  pk.b_g1_query = ec::batch_normalize(b_g1_query);
  pk.b_g2_query = ec::batch_normalize(b_g2_query);

  VerifyingKey vk;
  vk.alpha_g1 = pk.alpha_g1;
  vk.beta_g2 = pk.beta_g2;
  vk.gamma_g2 = ec::g2_mul_generator(gamma);
  vk.delta_g2 = pk.delta_g2;
  std::vector<G1> ic;
  ic.reserve(r1cs.num_statement);
  for (std::size_t i = 0; i < r1cs.num_statement; ++i) {
    ic.push_back(ec::g1_mul_generator(
        (beta * at[i] + alpha * bt[i] + ct[i]) * gamma_inv));
  }
  vk.ic = ec::batch_normalize(ic);

  std::vector<G1> l_query;
  l_query.reserve(r1cs.num_vars - r1cs.num_statement);
  for (std::size_t i = r1cs.num_statement; i < r1cs.num_vars; ++i) {
    l_query.push_back(ec::g1_mul_generator(
        (beta * at[i] + alpha * bt[i] + ct[i]) * delta_inv));
  }
  pk.l_query = ec::batch_normalize(l_query);

  std::vector<G1> h_query;
  h_query.reserve(n - 1);
  Fr tau_pow = Fr::one();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    h_query.push_back(ec::g1_mul_generator(tau_pow * z_tau * delta_inv));
    tau_pow *= tau;
  }
  pk.h_query = ec::batch_normalize(h_query);

  pk.vk = vk;
  return KeyPairResult{std::move(pk), std::move(vk)};
}

std::optional<Proof> prove(const ProvingKey& pk, const ConstraintSystem& cs,
                           const std::vector<Fr>& witness, crypto::Drbg& rng) {
  if (!cs.is_satisfied(witness)) return std::nullopt;
  const R1cs r1cs(cs);
  ZKDET_CHECK(r1cs.num_statement == pk.num_statement,
              "proving key was built for a different statement size");
  const std::vector<Fr> w = r1cs.full_witness(cs, witness);
  const std::size_t n = pk.domain_size;
  const EvaluationDomain domain(n);

  // Row evaluations of A, B, C under the witness.
  std::vector<Fr> a_rows(n, Fr::zero());
  std::vector<Fr> b_rows(n, Fr::zero());
  std::vector<Fr> c_rows(n, Fr::zero());
  r1cs.for_entries(cs, [&](std::size_t row, std::uint32_t idx, const Fr& coeff,
                           int matrix) {
    const Fr v = coeff * w[idx];
    if (matrix == 0) {
      a_rows[row] += v;
    } else if (matrix == 1) {
      b_rows[row] += v;
    } else {
      c_rows[row] += v;
    }
  });

  // H(X) = (A(X)B(X) - C(X)) / Z(X), computed on a 2n coset.
  domain.ifft(a_rows);
  domain.ifft(b_rows);
  domain.ifft(c_rows);
  const EvaluationDomain ext(2 * n);
  const Fr shift = Fr::generator();
  a_rows.resize(2 * n, Fr::zero());
  b_rows.resize(2 * n, Fr::zero());
  c_rows.resize(2 * n, Fr::zero());
  ext.coset_fft(a_rows, shift);
  ext.coset_fft(b_rows, shift);
  ext.coset_fft(c_rows, shift);
  // Z on the coset alternates with period 2: shift^n * (w2n^n)^i - 1,
  // and w2n^n = -1.
  const Fr shift_n = shift.pow(U256{n});
  const Fr z0_inv = (shift_n - Fr::one()).inverse();
  const Fr z1_inv = (-shift_n - Fr::one()).inverse();
  std::vector<Fr> h(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    h[i] = (a_rows[i] * b_rows[i] - c_rows[i]) *
           ((i & 1) == 0 ? z0_inv : z1_inv);
  }
  ext.coset_ifft(h, shift);
  // degree of H is at most n-2
  for (std::size_t i = pk.h_query.size(); i < h.size(); ++i) {
    ZKDET_ASSERT(h[i].is_zero(), "H degree overflow");
  }
  h.resize(pk.h_query.size());

  const Fr r = rng.random_fr();
  const Fr s = rng.random_fr();

  const G1 sum_a = ec::msm(w, pk.a_query);
  const G1 sum_b_g1 = ec::msm(w, pk.b_g1_query);
  const G2 sum_b_g2 = ec::msm_g2(w, pk.b_g2_query);

  Proof proof;
  proof.a = pk.alpha_g1 + sum_a + pk.delta_g1.mul(r);
  proof.b = pk.beta_g2 + sum_b_g2 + pk.delta_g2.mul(s);
  const G1 b_g1 = pk.beta_g1 + sum_b_g1 + pk.delta_g1.mul(s);

  const std::span<const Fr> aux(w.data() + pk.num_statement,
                                w.size() - pk.num_statement);
  const G1 sum_l = ec::msm(aux, pk.l_query);
  const G1 sum_h = ec::msm(h, pk.h_query);
  proof.c = sum_l + sum_h + proof.a.mul(s) + b_g1.mul(r) -
            pk.delta_g1.mul(r * s);
  return proof;
}

bool verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs,
            const Proof& proof) {
  if (public_inputs.size() + 1 != vk.ic.size()) return false;
  if (!proof.a.on_curve() || !proof.b.on_curve() || !proof.c.on_curve()) {
    return false;
  }
  // vk_x = IC_0 + sum_i x_i IC_i — the ell-term MSM that makes Groth16
  // verification grow with the statement (ZKDET's Fig. 7 argument).
  const G1 vk_x =
      vk.ic[0].to_jacobian() +
      ec::msm(public_inputs, std::span<const G1Affine>(vk.ic).subspan(1));
  // e(A,B) = e(alpha,beta) e(vk_x,gamma) e(C,delta)
  const std::pair<ec::G1, ec::G2> pairs[4] = {
      {proof.a, proof.b},
      {-vk.alpha_g1, vk.beta_g2},
      {-vk_x, vk.gamma_g2},
      {-proof.c, vk.delta_g2},
  };
  return ec::pairing_product_is_one(pairs);
}

}  // namespace zkdet::plonk::groth16
