#include "plonk/plonk.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <unordered_map>

#include "check/check.hpp"
#include "check/invariants.hpp"

#include "ec/msm.hpp"
#include "ec/pairing.hpp"
#include "ff/batch_inverse.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::plonk {

namespace {

constexpr std::uint64_t kK1 = 7;
constexpr std::uint64_t kK2 = 13;

// Rows of the padded circuit: ell public-input gates, then user gates,
// then all-zero padding. Returns per-row selectors and wire variables.
struct Layout {
  std::vector<Fr> qm, ql, qr, qo, qc;
  std::vector<Var> wa, wb, wc;
};

Layout build_layout(const ConstraintSystem& cs, std::size_t n) {
  Layout l;
  l.qm.assign(n, Fr::zero());
  l.ql.assign(n, Fr::zero());
  l.qr.assign(n, Fr::zero());
  l.qo.assign(n, Fr::zero());
  l.qc.assign(n, Fr::zero());
  l.wa.assign(n, ConstraintSystem::kZeroVar);
  l.wb.assign(n, ConstraintSystem::kZeroVar);
  l.wc.assign(n, ConstraintSystem::kZeroVar);
  const auto& pubs = cs.public_vars();
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    l.ql[i] = Fr::one();
    l.wa[i] = pubs[i];
  }
  const auto& gates = cs.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const std::size_t row = pubs.size() + i;
    l.qm[row] = gates[i].qm;
    l.ql[row] = gates[i].ql;
    l.qr[row] = gates[i].qr;
    l.qo[row] = gates[i].qo;
    l.qc[row] = gates[i].qc;
    l.wa[row] = gates[i].a;
    l.wb[row] = gates[i].b;
    l.wc[row] = gates[i].c;
  }
  return l;
}

// The key's eight commitments in transcript order.
std::array<const G1*, 8> key_commitments(const VerifyingKey& vk) {
  return {&vk.cm_qm, &vk.cm_ql, &vk.cm_qr, &vk.cm_qo,
          &vk.cm_qc, &vk.cm_s1, &vk.cm_s2, &vk.cm_s3};
}

// Affine forms of `points`, for one field inversion in all.
template <std::size_t N>
std::vector<ec::G1Affine> normalize(const std::array<const G1*, N>& points) {
  std::array<G1, N> jac;
  for (std::size_t i = 0; i < N; ++i) jac[i] = *points[i];
  return ec::batch_normalize(std::span<const G1>(jac));
}

// VerifyingKey::bind_transcript with the commitments already affine.
void bind_key(Transcript& t, const VerifyingKey& vk,
              std::span<const ec::G1Affine> commitments) {
  t.absorb_u64(vk.n);
  t.absorb_u64(vk.ell);
  t.absorb_fr(vk.k1);
  t.absorb_fr(vk.k2);
  for (const ec::G1Affine& cm : commitments) t.absorb_g1(cm);
}

}  // namespace

std::vector<std::uint8_t> Proof::to_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(size_bytes());
  const auto put_g1 = [&out](const G1& p) {
    const auto b = ec::g1_to_bytes(p);
    out.insert(out.end(), b.begin(), b.end());
  };
  const auto put_fr = [&out](const Fr& v) {
    const auto b = ff::u256_to_bytes(v.to_canonical());
    out.insert(out.end(), b.begin(), b.end());
  };
  put_g1(cm_a);
  put_g1(cm_b);
  put_g1(cm_c);
  put_g1(cm_z);
  put_g1(cm_t_lo);
  put_g1(cm_t_mid);
  put_g1(cm_t_hi);
  put_g1(w_zeta);
  put_g1(w_zeta_omega);
  put_fr(eval_a);
  put_fr(eval_b);
  put_fr(eval_c);
  put_fr(eval_s1);
  put_fr(eval_s2);
  put_fr(eval_z_omega);
  return out;
}

std::optional<Proof> Proof::from_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != size_bytes()) return std::nullopt;
  Proof p;
  std::size_t off = 0;
  const auto get_g1 = [&](G1& out) {
    const auto g = ec::g1_from_bytes(bytes.subspan(off, 64));
    off += 64;
    if (!g) return false;
    out = *g;
    return true;
  };
  const auto get_fr = [&](Fr& out) {
    std::array<std::uint8_t, 32> buf{};
    std::copy(bytes.begin() + static_cast<std::ptrdiff_t>(off),
              bytes.begin() + static_cast<std::ptrdiff_t>(off + 32),
              buf.begin());
    off += 32;
    const ff::U256 v = ff::u256_from_bytes(buf);
    if (ff::u256_geq(v, Fr::MOD)) return false;
    out = Fr::from_canonical(v);
    return true;
  };
  for (G1* g : {&p.cm_a, &p.cm_b, &p.cm_c, &p.cm_z, &p.cm_t_lo, &p.cm_t_mid,
                &p.cm_t_hi, &p.w_zeta, &p.w_zeta_omega}) {
    if (!get_g1(*g)) return std::nullopt;
  }
  for (Fr* f : {&p.eval_a, &p.eval_b, &p.eval_c, &p.eval_s1, &p.eval_s2,
                &p.eval_z_omega}) {
    if (!get_fr(*f)) return std::nullopt;
  }
  return p;
}

void VerifyingKey::bind_transcript(Transcript& t) const {
  bind_key(t, *this, normalize(key_commitments(*this)));
}

std::optional<KeyPairResult> preprocess(const ConstraintSystem& cs,
                                        const Srs& srs) {
  const std::size_t n = cs.domain_size();
  if (srs.max_degree() < n + 8) return std::nullopt;
  runtime::ScopedTimer preprocess_timer(runtime::counters::preprocess_ns);

  ProvingKey pk;
  pk.n = n;
  pk.ell = cs.public_vars().size();
  pk.k1 = Fr::from_u64(kK1);
  pk.k2 = Fr::from_u64(kK2);
  pk.domain = std::make_shared<EvaluationDomain>(n);
  pk.ext_domain = std::make_shared<EvaluationDomain>(4 * n);
  pk.coset_shift = Fr::generator();
  // The quotient t(X) has 3n + 6 coefficients; the coset must hold them.
  ZKDET_CHECK(3 * n + 6 <= pk.ext_domain->size(), "quotient coset of size ",
              pk.ext_domain->size(), " cannot hold degree ", 3 * n + 5);

  // Cosets {H, k1 H, k2 H} must be pairwise disjoint for the copy
  // constraint encoding to be injective.
  const U256 n_u{n};
  ZKDET_CHECK(pk.k1.pow(n_u) != Fr::one(), "k1 H intersects H");
  ZKDET_CHECK(pk.k2.pow(n_u) != Fr::one(), "k2 H intersects H");
  ZKDET_CHECK((pk.k2 * pk.k1.inverse()).pow(n_u) != Fr::one(),
              "k1 H intersects k2 H");

  const Layout layout = build_layout(cs, n);
  pk.wire_a = layout.wa;
  pk.wire_b = layout.wb;
  pk.wire_c = layout.wc;

  pk.qm = Polynomial::from_evaluations(layout.qm, *pk.domain);
  pk.ql = Polynomial::from_evaluations(layout.ql, *pk.domain);
  pk.qr = Polynomial::from_evaluations(layout.qr, *pk.domain);
  pk.qo = Polynomial::from_evaluations(layout.qo, *pk.domain);
  pk.qc = Polynomial::from_evaluations(layout.qc, *pk.domain);

  // Permutation: slot (col, row) has linear index col*n + row. Gather the
  // slots of each variable and rotate within each cycle.
  const std::size_t slots = 3 * n;
  std::vector<std::uint32_t> next(slots);
  {
    std::vector<std::vector<std::uint32_t>> by_var(cs.num_variables());
    for (std::size_t row = 0; row < n; ++row) {
      by_var[layout.wa[row]].push_back(static_cast<std::uint32_t>(row));
      by_var[layout.wb[row]].push_back(static_cast<std::uint32_t>(n + row));
      by_var[layout.wc[row]].push_back(static_cast<std::uint32_t>(2 * n + row));
    }
    for (const auto& cycle : by_var) {
      for (std::size_t j = 0; j < cycle.size(); ++j) {
        next[cycle[j]] = cycle[(j + 1) % cycle.size()];
      }
    }
  }
  // Cycle rotation must land on a genuine permutation of the 3n slots;
  // a repeated or dropped slot silently voids the copy constraints.
  ZKDET_ASSERT(check::is_permutation(std::span<const std::uint32_t>(next), slots),
               "sigma is not a permutation of the wire slots");
  const auto encode = [&](std::uint32_t slot) {
    const std::size_t col = slot / n;
    const std::size_t row = slot % n;
    const Fr& w = pk.domain->element(row);
    if (col == 0) return w;
    if (col == 1) return pk.k1 * w;
    return pk.k2 * w;
  };
  std::vector<Fr> s1e(n), s2e(n), s3e(n);
  for (std::size_t row = 0; row < n; ++row) {
    s1e[row] = encode(next[row]);
    s2e[row] = encode(next[n + row]);
    s3e[row] = encode(next[2 * n + row]);
  }
  pk.s1_evals = s1e;
  pk.s2_evals = s2e;
  pk.s3_evals = s3e;
  pk.s1 = Polynomial::from_evaluations(std::move(s1e), *pk.domain);
  pk.s2 = Polynomial::from_evaluations(std::move(s2e), *pk.domain);
  pk.s3 = Polynomial::from_evaluations(std::move(s3e), *pk.domain);

  VerifyingKey vk;
  vk.n = n;
  vk.ell = pk.ell;
  vk.k1 = pk.k1;
  vk.k2 = pk.k2;
  {
    // Eight independent SRS-sized commitments: the bulk of preprocessing.
    const Polynomial* polys[8] = {&pk.qm, &pk.ql, &pk.qr, &pk.qo,
                                  &pk.qc, &pk.s1, &pk.s2, &pk.s3};
    G1* cms[8] = {&vk.cm_qm, &vk.cm_ql, &vk.cm_qr, &vk.cm_qo,
                  &vk.cm_qc, &vk.cm_s1, &vk.cm_s2, &vk.cm_s3};
    runtime::ThreadPool::instance().parallel_for(
        8, 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) *cms[i] = srs.commit(*polys[i]);
        });
  }
  vk.g2_gen = srs.g2_gen;
  vk.g2_tau = srs.g2_tau;
  prepare_g2(vk);
  pk.vk = vk;

  return KeyPairResult{std::move(pk), std::move(vk)};
}

std::optional<Proof> prove(const ProvingKey& pk, const ConstraintSystem& cs,
                           const Srs& srs, const std::vector<Fr>& witness,
                           crypto::Drbg& rng) {
  if (!cs.is_satisfied(witness)) return std::nullopt;
  runtime::ScopedTimer prove_timer(runtime::counters::prove_ns);
  auto& pool = runtime::ThreadPool::instance();
  const std::size_t n = pk.n;
  const EvaluationDomain& dom = *pk.domain;
  const EvaluationDomain& ext = *pk.ext_domain;
  const Fr shift = pk.coset_shift;

  // --- wire values per row ---
  std::vector<Fr> wa(n), wb(n), wc(n);
  pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      wa[i] = witness[pk.wire_a[i]];
      wb[i] = witness[pk.wire_b[i]];
      wc[i] = witness[pk.wire_c[i]];
    }
  });

  // --- public input polynomial: PI(w^i) = -x_i on the first ell rows ---
  const std::vector<Fr> pub = cs.extract_public_inputs(witness);
  std::vector<Fr> pi_evals(n, Fr::zero());
  for (std::size_t i = 0; i < pub.size(); ++i) pi_evals[i] = -pub[i];
  const Polynomial pi_poly = Polynomial::from_evaluations(pi_evals, dom);

  Transcript transcript("zkdet-plonk");
  pk.vk.bind_transcript(transcript);
  for (const Fr& x : pub) transcript.absorb_fr(x);

  // --- round 1: blinded wire polynomials ---
  const auto blind2 = [&](std::vector<Fr> evals, const Fr& b1, const Fr& b2) {
    Polynomial p = Polynomial::from_evaluations(std::move(evals), dom);
    std::vector<Fr>& c = p.coeffs();
    c.resize(std::max<std::size_t>(c.size(), n + 2), Fr::zero());
    c[0] -= b2;
    c[1] -= b1;
    c[n] += b2;
    c[n + 1] += b1;
    return p;
  };
  // Blinders are drawn on the job thread before the parallel region so
  // the rng stream is independent of scheduling.
  const Fr b1 = rng.random_fr(), b2 = rng.random_fr(), b3 = rng.random_fr();
  const Fr b4 = rng.random_fr(), b5 = rng.random_fr(), b6 = rng.random_fr();
  const std::vector<Fr>* wires[3] = {&wa, &wb, &wc};
  const Fr wire_blinds[3][2] = {{b1, b2}, {b3, b4}, {b5, b6}};
  std::array<Polynomial, 3> wire_polys;
  std::array<G1, 3> wire_cms;
  pool.parallel_for(3, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      wire_polys[i] =
          blind2(*wires[i], wire_blinds[i][0], wire_blinds[i][1]);
      wire_cms[i] = srs.commit(wire_polys[i]);
    }
  });
  const Polynomial& a_poly = wire_polys[0];
  const Polynomial& b_poly = wire_polys[1];
  const Polynomial& c_poly = wire_polys[2];

  Proof proof;
  proof.cm_a = wire_cms[0];
  proof.cm_b = wire_cms[1];
  proof.cm_c = wire_cms[2];
  transcript.absorb_g1(proof.cm_a);
  transcript.absorb_g1(proof.cm_b);
  transcript.absorb_g1(proof.cm_c);

  // --- round 2: permutation grand product ---
  const Fr beta = transcript.challenge("beta");
  const Fr gamma = transcript.challenge("gamma");

  std::vector<Fr> denoms(n);
  std::vector<Fr> numers(n);
  pool.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Fr& w = dom.element(i);
      numers[i] = (wa[i] + beta * w + gamma) *
                  (wb[i] + beta * pk.k1 * w + gamma) *
                  (wc[i] + beta * pk.k2 * w + gamma);
      denoms[i] = (wa[i] + beta * pk.s1_evals[i] + gamma) *
                  (wb[i] + beta * pk.s2_evals[i] + gamma) *
                  (wc[i] + beta * pk.s3_evals[i] + gamma);
    }
  });
  ff::batch_inverse(std::span<Fr>(denoms));
  const std::vector<Fr>& dinv = denoms;  // inverted in place
  std::vector<Fr> z_evals(n);
  z_evals[0] = Fr::one();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    z_evals[i + 1] = z_evals[i] * numers[i] * dinv[i];
  }
  ZKDET_ASSERT(
      check::grand_product_closes(z_evals[n - 1] * numers[n - 1] * dinv[n - 1]),
      "permutation grand product must close");

  const Fr b7 = rng.random_fr(), b8 = rng.random_fr(), b9 = rng.random_fr();
  Polynomial z_poly = Polynomial::from_evaluations(z_evals, dom);
  {
    std::vector<Fr>& c = z_poly.coeffs();
    c.resize(std::max<std::size_t>(c.size(), n + 3), Fr::zero());
    c[0] -= b9;
    c[1] -= b8;
    c[2] -= b7;
    c[n] += b9;
    c[n + 1] += b8;
    c[n + 2] += b7;
  }
  proof.cm_z = srs.commit(z_poly);
  transcript.absorb_g1(proof.cm_z);

  // --- round 3: quotient polynomial on a 4n coset ---
  const Fr alpha = transcript.challenge("alpha");

  const auto extend = [&](const Polynomial& p) {
    std::vector<Fr> c = p.coeffs();
    c.resize(ext.size(), Fr::zero());
    ext.coset_fft(c, shift);
    return c;
  };
  // The 14 coset extensions are independent; run them as one parallel
  // region (each inner FFT further splits when workers are idle).
  const Polynomial l1_poly{std::vector<Fr>(n, Fr::from_u64(n).inverse())};
  const Polynomial* ext_srcs[14] = {
      &a_poly, &b_poly, &c_poly, &z_poly, &pk.qm, &pk.ql,  &pk.qr,
      &pk.qo,  &pk.qc,  &pk.s1,  &pk.s2,  &pk.s3, &pi_poly, &l1_poly};
  std::array<std::vector<Fr>, 14> exts;
  pool.parallel_for(14, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) exts[i] = extend(*ext_srcs[i]);
  });
  const std::vector<Fr>& a_ext = exts[0];
  const std::vector<Fr>& b_ext = exts[1];
  const std::vector<Fr>& c_ext = exts[2];
  const std::vector<Fr>& z_ext = exts[3];
  const std::vector<Fr>& qm_ext = exts[4];
  const std::vector<Fr>& ql_ext = exts[5];
  const std::vector<Fr>& qr_ext = exts[6];
  const std::vector<Fr>& qo_ext = exts[7];
  const std::vector<Fr>& qc_ext = exts[8];
  const std::vector<Fr>& s1_ext = exts[9];
  const std::vector<Fr>& s2_ext = exts[10];
  const std::vector<Fr>& s3_ext = exts[11];
  const std::vector<Fr>& pi_ext = exts[12];
  const std::vector<Fr>& l1_ext = exts[13];

  const std::size_t m = ext.size();  // 4n
  const std::size_t stride = m / n;  // z(omega X) = rotate by stride

  // Z_H(shift * w4n^i) cycles with period `stride`.
  std::vector<Fr> zh_inv_cycle(stride);
  {
    const Fr shift_n = shift.pow(U256{n});
    const Fr root_stride = ext.element(n);  // primitive `stride`-th root
    std::vector<Fr> vals(stride);
    Fr cur = Fr::one();
    for (std::size_t j = 0; j < stride; ++j) {
      vals[j] = shift_n * cur - Fr::one();
      cur *= root_stride;
    }
    ff::batch_inverse(std::span<Fr>(vals));
    zh_inv_cycle = std::move(vals);
  }

  std::vector<Fr> t_ext(m);
  const Fr alpha2 = alpha * alpha;
  {
    runtime::ScopedTimer quotient_timer(runtime::counters::quotient_ns);
    pool.parallel_for(m, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const Fr x = shift * ext.element(i);
        const Fr& av = a_ext[i];
        const Fr& bv = b_ext[i];
        const Fr& cv = c_ext[i];
        const Fr& zv = z_ext[i];
        const Fr& zwv = z_ext[(i + stride) % m];

        Fr num = qm_ext[i] * av * bv + ql_ext[i] * av + qr_ext[i] * bv +
                 qo_ext[i] * cv + qc_ext[i] + pi_ext[i];
        num += alpha *
               ((av + beta * x + gamma) * (bv + beta * pk.k1 * x + gamma) *
                    (cv + beta * pk.k2 * x + gamma) * zv -
                (av + beta * s1_ext[i] + gamma) *
                    (bv + beta * s2_ext[i] + gamma) *
                    (cv + beta * s3_ext[i] + gamma) * zwv);
        num += alpha2 * (zv - Fr::one()) * l1_ext[i];
        t_ext[i] = num * zh_inv_cycle[i % stride];
      }
    });
  }
  ext.coset_ifft(t_ext, shift);
  Polynomial t_poly{std::move(t_ext)};
  t_poly.trim();
  ZKDET_ASSERT(t_poly.degree() <= 3 * n + 5, "quotient degree overflow");

  // Split into three chunks of (at most) n coefficients, with the extra
  // cross-boundary blinders b10, b11 for hiding.
  const Fr b10 = rng.random_fr(), b11 = rng.random_fr();
  std::vector<Fr> tc = t_poly.coeffs();
  tc.resize(3 * n + 6, Fr::zero());
  std::vector<Fr> t_lo(tc.begin(), tc.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<Fr> t_mid(tc.begin() + static_cast<std::ptrdiff_t>(n),
                        tc.begin() + static_cast<std::ptrdiff_t>(2 * n));
  std::vector<Fr> t_hi(tc.begin() + static_cast<std::ptrdiff_t>(2 * n), tc.end());
  t_lo.push_back(b10);   // + b10 X^n
  t_mid[0] -= b10;
  t_mid.push_back(b11);  // + b11 X^n
  t_hi[0] -= b11;
  {
    const std::vector<Fr>* chunks[3] = {&t_lo, &t_mid, &t_hi};
    std::array<G1, 3> t_cms;
    pool.parallel_for(3, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) t_cms[i] = srs.commit(*chunks[i]);
    });
    proof.cm_t_lo = t_cms[0];
    proof.cm_t_mid = t_cms[1];
    proof.cm_t_hi = t_cms[2];
  }
  transcript.absorb_g1(proof.cm_t_lo);
  transcript.absorb_g1(proof.cm_t_mid);
  transcript.absorb_g1(proof.cm_t_hi);

  // --- round 4: evaluations at zeta ---
  const Fr zeta = transcript.challenge("zeta");
  {
    const Polynomial* eval_srcs[6] = {&a_poly, &b_poly, &c_poly,
                                      &pk.s1,  &pk.s2,  &z_poly};
    const Fr zeta_omega = zeta * dom.omega();
    const Fr points[6] = {zeta, zeta, zeta, zeta, zeta, zeta_omega};
    std::array<Fr, 6> evals_out;
    pool.parallel_for(6, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        evals_out[i] = eval_srcs[i]->evaluate(points[i]);
      }
    });
    proof.eval_a = evals_out[0];
    proof.eval_b = evals_out[1];
    proof.eval_c = evals_out[2];
    proof.eval_s1 = evals_out[3];
    proof.eval_s2 = evals_out[4];
    proof.eval_z_omega = evals_out[5];
  }
  transcript.absorb_fr(proof.eval_a);
  transcript.absorb_fr(proof.eval_b);
  transcript.absorb_fr(proof.eval_c);
  transcript.absorb_fr(proof.eval_s1);
  transcript.absorb_fr(proof.eval_s2);
  transcript.absorb_fr(proof.eval_z_omega);

  // --- round 5: linearization polynomial and opening proofs ---
  const Fr v = transcript.challenge("v");

  const Fr zeta_n = zeta.pow(U256{n});
  const Fr zh_zeta = zeta_n - Fr::one();
  const Fr l1_zeta =
      zh_zeta * (Fr::from_u64(n) * (zeta - Fr::one())).inverse();
  const Fr pi_zeta = pi_poly.evaluate(zeta);

  Polynomial r_poly = pk.qm.scaled(proof.eval_a * proof.eval_b);
  r_poly += pk.ql.scaled(proof.eval_a);
  r_poly += pk.qr.scaled(proof.eval_b);
  r_poly += pk.qo.scaled(proof.eval_c);
  r_poly += pk.qc;
  r_poly += Polynomial::constant(pi_zeta);

  const Fr id_prod = (proof.eval_a + beta * zeta + gamma) *
                     (proof.eval_b + beta * pk.k1 * zeta + gamma) *
                     (proof.eval_c + beta * pk.k2 * zeta + gamma);
  r_poly += z_poly.scaled(alpha * id_prod);

  const Fr sig_ab = (proof.eval_a + beta * proof.eval_s1 + gamma) *
                    (proof.eval_b + beta * proof.eval_s2 + gamma);
  // -(alpha * sig_ab * z_omega) * (c_bar + gamma + beta * s3(X))
  r_poly -= (pk.s3.scaled(beta) +
             Polynomial::constant(proof.eval_c + gamma))
                .scaled(alpha * sig_ab * proof.eval_z_omega);

  r_poly += z_poly.scaled(alpha2 * l1_zeta);
  r_poly -= Polynomial::constant(alpha2 * l1_zeta);

  r_poly -= (Polynomial{t_lo} + Polynomial{t_mid}.scaled(zeta_n) +
             Polynomial{t_hi}.scaled(zeta_n * zeta_n))
                .scaled(zh_zeta);

  ZKDET_ASSERT(r_poly.evaluate(zeta).is_zero(), "linearization must vanish");

  Polynomial w_zeta_num = r_poly;
  const Polynomial* opened[5] = {&a_poly, &b_poly, &c_poly, &pk.s1, &pk.s2};
  const Fr evals[5] = {proof.eval_a, proof.eval_b, proof.eval_c, proof.eval_s1,
                       proof.eval_s2};
  Fr vpow = v;
  for (int i = 0; i < 5; ++i) {
    w_zeta_num += (*opened[i] - Polynomial::constant(evals[i])).scaled(vpow);
    vpow *= v;
  }
  std::array<G1, 2> opening_cms;
  pool.parallel_for(2, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (i == 0) {
        opening_cms[0] = srs.commit(w_zeta_num.divide_by_linear(zeta));
      } else {
        opening_cms[1] =
            srs.commit((z_poly - Polynomial::constant(proof.eval_z_omega))
                           .divide_by_linear(zeta * dom.omega()));
      }
    }
  });
  proof.w_zeta = opening_cms[0];
  proof.w_zeta_omega = opening_cms[1];

  return proof;
}

namespace {

// Prepares (and thereby validates) both SRS G2 points; nullptr if either
// is not in G2.
std::shared_ptr<const PreparedG2Pair> prepare_pair(const G2& gen,
                                                   const G2& tau) {
  auto g = ec::G2Prepared::try_prepare(gen);
  if (!g) return nullptr;
  auto t = ec::G2Prepared::try_prepare(tau);
  if (!t) return nullptr;
  return std::make_shared<const PreparedG2Pair>(
      PreparedG2Pair{std::move(*g), std::move(*t)});
}

// The key's prepared pair when it is current, else a fresh one. A
// verifying key with G2 elements off the twist or outside the order-r
// subgroup cannot anchor a sound pairing check: nullptr.
std::shared_ptr<const PreparedG2Pair> usable_g2(const VerifyingKey& vk) {
  if (vk.g2_prepared && vk.g2_prepared->matches(vk.g2_gen, vk.g2_tau)) {
    return vk.g2_prepared;
  }
  return prepare_pair(vk.g2_gen, vk.g2_tau);
}

// e(lhs, [tau]_2) * e(-rhs, [1]_2) == 1
bool pairing_holds(const PairingCheck& c, const PreparedG2Pair& g2) {
  const ec::PreparedPair terms[2] = {{c.lhs, &g2.tau}, {-c.rhs, &g2.gen}};
  return ec::pairing_product_is_one(terms);
}

// One scalar * base term of a deferred MSM. `id` is the address the
// base was read from: a verifying key's commitment, a proof point or the
// shared generator. Terms with one id have one base, so a fold can merge
// them into one scalar.
struct Term {
  Fr scalar;
  const void* id = nullptr;
  ec::G1Affine base;
};

// A proof's pairing check with its MSMs not yet evaluated: accept iff
// e(sum lhs, [tau]_2) * e(-sum rhs, [1]_2) == 1. `binding` is the final
// state of the verifier's transcript, which has absorbed the key, every
// public input and every proof element.
struct DeferredCheck {
  std::array<Term, 2> lhs;   // (1, W_zeta), (u, W_zeta_omega)
  std::array<Term, 18> rhs;
  Transcript::State binding;
};

// The one address every proof's E = [e]_1 term reads the generator from.
const ec::G1Affine& generator_base() {
  static const ec::G1Affine g = ec::G1Affine::generator();
  return g;
}

// verify_prepare minus the G2 validation (the caller owns that) and
// minus the group arithmetic: every transcript and scalar step of the
// verifier. Serialising the proof's nine points and the key's eight
// commitments for the transcript takes one field inversion in all.
std::optional<DeferredCheck> defer_check(const VerifyingKey& vk,
                                         const std::vector<Fr>& public_inputs,
                                         const Proof& proof) {
  if (public_inputs.size() != vk.ell) return std::nullopt;
  const std::size_t n = vk.n;
  if (!check::valid_ntt_domain(n)) return std::nullopt;

  // The proof's points, then the key's commitments, each in transcript
  // order. Proof points must be on the curve (cheap structural
  // validation; G1 has cofactor 1, so on-curve is the full subgroup
  // check).
  enum : std::size_t { kA, kB, kC, kZ, kTLo, kTMid, kTHi, kW, kWOmega,
                       kQm, kQl, kQr, kQo, kQc, kS1, kS2, kS3 };
  const std::array<const G1*, 8> cms = key_commitments(vk);
  const std::array<const G1*, 17> pts = {
      &proof.cm_a,    &proof.cm_b,   &proof.cm_c,
      &proof.cm_z,    &proof.cm_t_lo, &proof.cm_t_mid,
      &proof.cm_t_hi, &proof.w_zeta, &proof.w_zeta_omega,
      cms[0], cms[1], cms[2], cms[3], cms[4], cms[5], cms[6], cms[7]};
  for (std::size_t k = kA; k <= kWOmega; ++k) {
    if (!check::in_g1(*pts[k])) return std::nullopt;
  }
  const std::vector<ec::G1Affine> pa = normalize(pts);

  Transcript transcript("zkdet-plonk");
  bind_key(transcript, vk, std::span(pa).subspan(kQm));
  for (const Fr& x : public_inputs) transcript.absorb_fr(x);
  transcript.absorb_g1(pa[kA]);
  transcript.absorb_g1(pa[kB]);
  transcript.absorb_g1(pa[kC]);
  const Fr beta = transcript.challenge("beta");
  const Fr gamma = transcript.challenge("gamma");
  transcript.absorb_g1(pa[kZ]);
  const Fr alpha = transcript.challenge("alpha");
  transcript.absorb_g1(pa[kTLo]);
  transcript.absorb_g1(pa[kTMid]);
  transcript.absorb_g1(pa[kTHi]);
  const Fr zeta = transcript.challenge("zeta");
  transcript.absorb_fr(proof.eval_a);
  transcript.absorb_fr(proof.eval_b);
  transcript.absorb_fr(proof.eval_c);
  transcript.absorb_fr(proof.eval_s1);
  transcript.absorb_fr(proof.eval_s2);
  transcript.absorb_fr(proof.eval_z_omega);
  const Fr v = transcript.challenge("v");
  transcript.absorb_g1(pa[kW]);
  transcript.absorb_g1(pa[kWOmega]);
  const Fr u = transcript.challenge("u");

  const Fr zeta_n = zeta.pow(U256{n});
  const Fr zh_zeta = zeta_n - Fr::one();
  if (zh_zeta.is_zero()) return std::nullopt;  // zeta in H: reject (negligible)

  // L_i(zeta) = w^i Z_H(zeta) / (n (zeta - w^i)) for i < max(ell, 1):
  // L_0 for the grand-product boundary and L_0..L_{ell-1} for
  // PI(zeta) = sum_i -x_i L_i(zeta). One batched inversion, no domain.
  const Fr omega = EvaluationDomain::root_of_unity(n);
  const Fr n_fr = Fr::from_u64(n);
  const std::size_t terms = std::max<std::size_t>(public_inputs.size(), 1);
  std::vector<Fr> omega_i(terms);
  std::vector<Fr> lagrange(terms);
  Fr w = Fr::one();
  for (std::size_t i = 0; i < terms; ++i) {
    omega_i[i] = w;
    lagrange[i] = n_fr * (zeta - w);
    w *= omega;
  }
  ff::batch_inverse(std::span<Fr>(lagrange));
  for (std::size_t i = 0; i < terms; ++i) lagrange[i] *= omega_i[i] * zh_zeta;
  const Fr l1_zeta = lagrange[0];
  Fr pi_zeta = Fr::zero();
  for (std::size_t i = 0; i < public_inputs.size(); ++i) {
    pi_zeta -= public_inputs[i] * lagrange[i];
  }

  const Fr alpha2 = alpha * alpha;
  const Fr sig_ab = (proof.eval_a + beta * proof.eval_s1 + gamma) *
                    (proof.eval_b + beta * proof.eval_s2 + gamma);
  const Fr r0 = pi_zeta - l1_zeta * alpha2 -
                alpha * sig_ab * (proof.eval_c + gamma) * proof.eval_z_omega;

  const Fr id_prod = (proof.eval_a + beta * zeta + gamma) *
                     (proof.eval_b + beta * vk.k1 * zeta + gamma) *
                     (proof.eval_c + beta * vk.k2 * zeta + gamma);

  // Batched opening at zeta of the linearisation D and the five
  // evaluated commitments (weights v..v^5), the shift opening at
  // zeta*omega, and E = [e]_1 for the claimed evaluations:
  //   rhs = zeta W + u zeta omega W' + D + sum_k v^k cm_k - E
  // as ONE 18-term MSM.
  const Fr v2 = v * v;
  const Fr v3 = v2 * v;
  const Fr v4 = v3 * v;
  const Fr v5 = v4 * v;
  const Fr e_scalar = -r0 + v * proof.eval_a + v2 * proof.eval_b +
                      v3 * proof.eval_c + v4 * proof.eval_s1 +
                      v5 * proof.eval_s2 + u * proof.eval_z_omega;
  const Fr zh_neg = -zh_zeta;
  const auto term = [&](std::size_t k, const Fr& s) {
    return Term{s, pts[k], pa[k]};
  };
  DeferredCheck d;
  d.lhs = {term(kW, Fr::one()), term(kWOmega, u)};
  d.rhs = {
      term(kQm, proof.eval_a * proof.eval_b),
      term(kQl, proof.eval_a),
      term(kQr, proof.eval_b),
      term(kQo, proof.eval_c),
      term(kQc, Fr::one()),
      term(kZ, alpha * id_prod + alpha2 * l1_zeta + u),
      term(kS3, -(alpha * beta * sig_ab * proof.eval_z_omega)),
      term(kTLo, zh_neg),
      term(kTMid, zh_neg * zeta_n),
      term(kTHi, zh_neg * zeta_n * zeta_n),
      term(kA, v),
      term(kB, v2),
      term(kC, v3),
      term(kS1, v4),
      term(kS2, v5),
      Term{-e_scalar, &generator_base(), generator_base()},
      term(kW, zeta),
      term(kWOmega, u * zeta * omega),
  };
  d.binding = transcript.state();
  return d;
}

// The unfolded check: lhs = W_zeta + u W_zeta_omega, rhs = the 18-term
// MSM.
PairingCheck evaluate(const DeferredCheck& d) {
  PairingCheck c;
  c.lhs = d.lhs[1].base.to_jacobian().mul(d.lhs[1].scalar);
  c.lhs += d.lhs[0].base;  // scalar one
  std::array<Fr, 18> scalars;
  std::array<ec::G1Affine, 18> bases;
  for (std::size_t k = 0; k < d.rhs.size(); ++k) {
    scalars[k] = d.rhs[k].scalar;
    bases[k] = d.rhs[k].base;
  }
  c.rhs = ec::msm(scalars, bases);
  return c;
}

}  // namespace

void prepare_g2(VerifyingKey& vk) { vk.g2_prepared = usable_g2(vk); }

std::optional<PairingCheck> verify_prepare(
    const VerifyingKey& vk, const std::vector<Fr>& public_inputs,
    const Proof& proof) {
  if (!usable_g2(vk)) return std::nullopt;
  const auto d = defer_check(vk, public_inputs, proof);
  if (!d) return std::nullopt;
  return evaluate(*d);
}

bool verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs,
            const Proof& proof) {
  runtime::ScopedTimer verify_timer(runtime::counters::verify_ns);
  const auto g2 = usable_g2(vk);
  if (!g2) return false;
  const auto d = defer_check(vk, public_inputs, proof);
  return d && pairing_holds(evaluate(*d), *g2);
}

bool BatchResult::all_ok() const {
  for (const std::uint8_t v : ok) {
    if (v == 0) return false;
  }
  return true;
}

std::size_t BatchResult::invalid_count() const {
  std::size_t n = 0;
  for (const std::uint8_t v : ok) n += (v == 0) ? 1 : 0;
  return n;
}

std::vector<Fr> fold_weights(std::span<const Transcript::State> states,
                             std::span<const std::size_t> positions) {
  ZKDET_CHECK(states.size() == positions.size(),
              "fold_weights: state/position count mismatch");
  Transcript t("zkdet-batch-verify");
  t.absorb_u64(positions.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    t.absorb_u64(positions[k]);
    t.absorb_bytes(states[k]);
  }
  std::vector<Fr> weights;
  weights.reserve(positions.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    weights.push_back(t.challenge("batch-r"));
  }
  return weights;
}

namespace {

// sum_k weights[k] * (the `side` terms of checks[idx[k]]) as one MSM;
// terms that share a base id are merged into one scalar first.
template <std::size_t N>
G1 fold_side(std::span<const std::optional<DeferredCheck>> checks,
             std::span<const std::size_t> idx, std::span<const Fr> weights,
             std::array<Term, N> DeferredCheck::*side) {
  std::vector<Fr> scalars;
  std::vector<ec::G1Affine> bases;
  scalars.reserve(N * idx.size());
  bases.reserve(N * idx.size());
  std::unordered_map<const void*, std::size_t> slot;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    for (const Term& t : (*checks[idx[k]]).*side) {
      const auto [it, fresh] = slot.try_emplace(t.id, scalars.size());
      if (fresh) {
        scalars.push_back(weights[k] * t.scalar);
        bases.push_back(t.base);
      } else {
        scalars[it->second] += weights[k] * t.scalar;
      }
    }
  }
  return ec::msm(scalars, bases);
}

// One weighted fold over `idx` (indices into `checks`), all sharing the
// SRS `g2`: accept iff the random linear combination of the entries'
// pairing checks passes one 2-pairing product. Each sub-batch draws
// fresh weights (fold_weights over its own positions and transcript
// states) and refolds from the stored scalars.
bool fold_check(std::span<const std::optional<DeferredCheck>> checks,
                std::span<const std::size_t> idx, const PreparedG2Pair& g2) {
  if (idx.size() == 1) {
    // Degenerate fold: run exactly the pairing check verify() runs, so
    // a batch of one is outcome-identical to individual verification.
    return pairing_holds(evaluate(*checks[idx.front()]), g2);
  }
  std::vector<Transcript::State> states;
  states.reserve(idx.size());
  for (const std::size_t i : idx) states.push_back(checks[i]->binding);
  const std::vector<Fr> r = fold_weights(states, idx);
  const PairingCheck folded{fold_side(checks, idx, r, &DeferredCheck::lhs),
                            fold_side(checks, idx, r, &DeferredCheck::rhs)};
  return pairing_holds(folded, g2);
}

}  // namespace

BatchResult batch_verify_attributed(std::span<const BatchEntry> entries) {
  runtime::ScopedTimer verify_timer(runtime::counters::verify_ns);
  BatchResult out;
  out.ok.assign(entries.size(), 0);
  if (entries.empty()) return out;

  // Per-entry work is transcript and scalar arithmetic only; the group
  // work waits for the fold. A structural failure (wrong public-input
  // count, off-curve point, non-subgroup G2) is attributed to its entry
  // here instead of rejecting the whole batch.
  std::vector<std::optional<DeferredCheck>> checks(entries.size());
  std::vector<std::shared_ptr<const PreparedG2Pair>> g2(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    g2[i] = usable_g2(*entries[i].vk);
    if (!g2[i]) continue;
    checks[i] = defer_check(*entries[i].vk, *entries[i].public_inputs,
                            *entries[i].proof);
  }

  // Group surviving entries by SRS in first-appearance order: the fold
  // is only sound within one (g2_gen, g2_tau) pair, but an entry under
  // a foreign SRS is its own (attributable) group, not a batch error.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!checks[i]) continue;
    const VerifyingKey& vk = *entries[i].vk;
    bool placed = false;
    for (auto& g : groups) {
      const VerifyingKey& gvk = *entries[g.front()].vk;
      if (vk.g2_gen == gvk.g2_gen && vk.g2_tau == gvk.g2_tau) {
        g.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }
  out.srs_groups = groups.size();

  // Fold each group; on failure bisect to attribution. A sub-batch of
  // one that fails is the (an) offending entry; everything in a passing
  // sub-batch is accepted. Worst case (all forged) this costs 2N-1
  // pairing products — still linear, and only paid under attack.
  for (const auto& group : groups) {
    const PreparedG2Pair& group_g2 = *g2[group.front()];
    const std::function<void(std::span<const std::size_t>)> attribute =
        [&](std::span<const std::size_t> idx) {
          ++out.pairing_checks;
          if (fold_check(checks, idx, group_g2)) {
            for (const std::size_t i : idx) out.ok[i] = 1;
            return;
          }
          if (idx.size() == 1) return;  // attributed invalid (ok stays 0)
          const std::size_t mid = idx.size() / 2;
          attribute(idx.first(mid));
          attribute(idx.subspan(mid));
        };
    attribute(group);
  }

  runtime::counters::batch_verifications.fetch_add(1,
                                                   std::memory_order_relaxed);
  runtime::counters::proofs_verified.fetch_add(entries.size(),
                                               std::memory_order_relaxed);
  runtime::counters::batch_fold_checks.fetch_add(out.pairing_checks,
                                                 std::memory_order_relaxed);
  runtime::counters::batch_entries_folded.fetch_add(entries.size(),
                                                    std::memory_order_relaxed);
  runtime::counters::batch_invalid_attributed.fetch_add(
      out.invalid_count(), std::memory_order_relaxed);
  return out;
}

bool batch_verify(std::span<const BatchEntry> entries) {
  return batch_verify_attributed(entries).all_ok();
}

}  // namespace zkdet::plonk
