#include "gadgets/hash_gadgets.hpp"

#include <algorithm>
#include <array>

#include "check/check.hpp"

namespace zkdet::gadgets {

namespace {

// x^7 via x2 = x^2, x4 = x2^2, x6 = x4*x2, x7 = x6*x: 4 mul gates.
Wire pow7(CircuitBuilder& bld, Wire x) {
  const Wire x2 = bld.mul(x, x);
  const Wire x4 = bld.mul(x2, x2);
  const Wire x6 = bld.mul(x4, x2);
  return bld.mul(x6, x);
}

}  // namespace

Wire mimc_block_gadget(CircuitBuilder& bld, Wire key, Wire msg) {
  const auto& consts = crypto::mimc_round_constants();
  Wire t = msg;
  for (std::size_t i = 0; i < crypto::kMimcRounds; ++i) {
    // base = t + key + c_i (one linear gate)
    const Wire base = bld.linear(Fr::one(), t, Fr::one(), key, consts[i]);
    t = pow7(bld, base);
  }
  return bld.add(t, key);
}

std::vector<Wire> mimc_ctr_encrypt_gadget(CircuitBuilder& bld, Wire key,
                                          Wire nonce,
                                          std::span<const Wire> plain) {
  std::vector<Wire> cipher;
  cipher.reserve(plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const Wire ctr = bld.add_constant(nonce, Fr::from_u64(i));
    const Wire pad = mimc_block_gadget(bld, key, ctr);
    cipher.push_back(bld.add(plain[i], pad));
  }
  return cipher;
}

namespace {

// --- Poseidon, t = 3 (DESIGN.md "Poseidon gadget") ---
//
// The sponge state is kept lazy: a lane is an affine combination of
// wires, so absorbing, adding round constants and the MDS mix cost no
// gates. A lane becomes one wire only where an S-box needs it.

using Vec2 = std::array<Fr, 2>;
using Mat2 = std::array<Vec2, 2>;

Mat2 mul(const Mat2& x, const Mat2& y) {
  Mat2 out;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      out[i][j] = x[i][0] * y[0][j] + x[i][1] * y[1][j];
    }
  }
  return out;
}

Vec2 apply(const Mat2& x, const Vec2& v) {
  return {x[0][0] * v[0] + x[0][1] * v[1], x[1][0] * v[0] + x[1][1] * v[1]};
}

Mat2 inverse(const Mat2& x) {
  const Fr inv = (x[0][0] * x[1][1] - x[0][1] * x[1][0]).inverse();
  return {{{x[1][1] * inv, -x[0][1] * inv}, {-x[1][0] * inv, x[0][0] * inv}}};
}

// sum(c_i * w_i) + k.
struct Lc {
  std::vector<std::pair<Fr, Wire>> terms;
  Fr k = Fr::zero();

  static Lc of(Wire w) { return {{{Fr::one(), w}}, Fr::zero()}; }

  // this += s * o. Terms on one wire merge; a cancelled term drops out.
  void add(const Fr& s, const Lc& o) {
    k += s * o.k;
    for (const auto& [c, w] : o.terms) {
      const auto it = std::find_if(
          terms.begin(), terms.end(),
          [&](const auto& t) { return t.second.var == w.var; });
      if (it == terms.end()) {
        terms.emplace_back(s * c, w);
      } else if ((it->first += s * c).is_zero()) {
        terms.erase(it);
      }
    }
  }
};

using State = std::array<Lc, 3>;

// The partial rounds in a carrier basis (Grassi et al., USENIX
// Security'21, App. B). Lanes 1 and 2 stay C_p * u + d over two carrier
// wires u; with A = M[1..2][1..2] and m = M[1..2][0], round p adds
// w_p * x^5 to u, where C_{p+1} = A * C_p and w_p = C_{p+1}^-1 * m.
// Everything here depends on the parameters only, so it is derived once.
struct PartialPlan {
  Mat2 b;               // u = B * (lane 1, lane 2), one S-box term cancelled
  std::vector<Vec2> z;  // z_p = M[0][1..2] * C_p
  std::vector<Vec2> w;  // w_p
  Mat2 a;               // A
  Mat2 c_end;           // C_{R_P}
};

const crypto::PoseidonParams& params() {
  static const crypto::PoseidonParams& p = crypto::PoseidonParams::get(3);
  return p;
}

Fr mds(std::size_t i, std::size_t j) { return params().mds[i * 3 + j]; }

const PartialPlan& partial_plan() {
  static const PartialPlan plan = [] {
    PartialPlan pl;
    // Entering the partial rounds, lane i = M[i] * s over the last full
    // round's S-box outputs s. Row 0 of B cancels s_2 and row 1 cancels
    // s_0, so each carrier takes one gate; B is invertible because every
    // minor of the Cauchy MDS matrix is.
    pl.b = {{{mds(2, 2), -mds(1, 2)}, {mds(2, 0), -mds(1, 0)}}};
    pl.a = {{{mds(1, 1), mds(1, 2)}, {mds(2, 1), mds(2, 2)}}};
    const Vec2 m{mds(1, 0), mds(2, 0)};
    Mat2 c = inverse(pl.b);
    for (std::size_t p = 0; p < params().rp; ++p) {
      pl.z.push_back({mds(0, 1) * c[0][0] + mds(0, 2) * c[1][0],
                      mds(0, 1) * c[0][1] + mds(0, 2) * c[1][1]});
      c = mul(pl.a, c);
      pl.w.push_back(apply(inverse(c), m));
    }
    pl.c_end = c;
    return pl;
  }();
  return plan;
}

// Reduces the wire terms of `lc` to alpha * u, one linear gate per term
// after the first; the last gate also adds `k`.
std::pair<Fr, Wire> collapse(CircuitBuilder& bld, const Lc& lc, const Fr& k) {
  auto [alpha, u] = lc.terms.front();
  for (std::size_t i = 1; i < lc.terms.size(); ++i) {
    const auto& [c, w] = lc.terms[i];
    u = bld.linear(alpha, u, c, w, i + 1 == lc.terms.size() ? k : Fr::zero());
    alpha = Fr::one();
  }
  return {alpha, u};
}

// x^5 of a non-constant lane x = alpha * u + k, in three rows:
// x^2 = alpha^2 u^2 + 2 alpha k u + k^2, x^4 = (x^2)^2 and
// x^5 = alpha x^4 u + k x^4.
Wire sbox(CircuitBuilder& bld, const Lc& x) {
  const auto [alpha, u] = collapse(bld, x, Fr::zero());
  const Wire x2 = bld.arith(u, u, alpha * alpha, (alpha + alpha) * x.k,
                            Fr::zero(), x.k.square());
  const Wire x4 = bld.mul(x2, x2);
  return bld.arith(x4, u, alpha, x.k, Fr::zero(), Fr::zero());
}

void full_round(CircuitBuilder& bld, State& s, std::size_t r) {
  State x;
  for (std::size_t i = 0; i < 3; ++i) {
    s[i].k += params().ark[r * 3 + i];
    if (s[i].terms.empty()) {
      x[i].k = s[i].k.square().square() * s[i].k;  // a constant lane
    } else {
      x[i] = Lc::of(sbox(bld, s[i]));
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    s[i] = Lc{};
    for (std::size_t j = 0; j < 3; ++j) s[i].add(mds(i, j), x[j]);
  }
}

// Runs the partial rounds on the state a full round left; 7 rows each.
void partial_rounds(CircuitBuilder& bld, State& s, std::size_t first) {
  const PartialPlan& pl = partial_plan();
  std::array<Wire, 2> u;
  for (std::size_t i = 0; i < 2; ++i) {
    Lc c;
    c.add(pl.b[i][0], s[1]);
    c.add(pl.b[i][1], s[2]);
    ZKDET_DCHECK(c.terms.size() == 2, "poseidon: carrier is not two terms");
    u[i] = collapse(bld, c, Fr::zero()).second;
  }
  Vec2 d{s[1].k, s[2].k};
  Lc lane0 = std::move(s[0]);
  for (std::size_t p = 0; p < pl.w.size(); ++p) {
    const std::size_t r = first + p;
    lane0.k += params().ark[r * 3];
    const Wire x = sbox(bld, lane0);
    d = {d[0] + params().ark[r * 3 + 1], d[1] + params().ark[r * 3 + 2]};
    lane0 = {{{mds(0, 0), x}, {pl.z[p][0], u[0]}, {pl.z[p][1], u[1]}},
             mds(0, 1) * d[0] + mds(0, 2) * d[1]};
    for (std::size_t i = 0; i < 2; ++i) {
      u[i] = bld.linear(Fr::one(), u[i], pl.w[p][i], x, Fr::zero());
    }
    d = apply(pl.a, d);
  }
  s[0] = std::move(lane0);
  for (std::size_t i = 0; i < 2; ++i) {
    s[i + 1] = {{{pl.c_end[i][0], u[0]}, {pl.c_end[i][1], u[1]}}, d[i]};
  }
}

void permute(CircuitBuilder& bld, State& s) {
  const std::size_t half_f = params().rf / 2;
  const std::size_t rounds = params().rf + params().rp;
  for (std::size_t r = 0; r < half_f; ++r) full_round(bld, s, r);
  partial_rounds(bld, s, half_f);
  for (std::size_t r = half_f + params().rp; r < rounds; ++r) {
    full_round(bld, s, r);
  }
}

}  // namespace

Wire poseidon_hash_gadget(CircuitBuilder& bld, std::span<const Wire> input,
                          std::uint64_t domain_tag) {
  // No wire reaches the state: the hash is a circuit constant.
  if (input.empty()) return bld.constant(crypto::poseidon_hash({}, domain_tag));
  State s;
  s[2].k = Fr::from_u64(domain_tag) +
           Fr::from_u64(input.size()) * Fr::from_u64(1ull << 32);
  std::size_t off = 0;
  do {
    for (std::size_t i = 0; i < 2 && off < input.size(); ++i, ++off) {
      s[i].add(Fr::one(), Lc::of(input[off]));
    }
    permute(bld, s);
  } while (off < input.size());
  // After a full round lane 0 spans all three S-box outputs.
  ZKDET_DCHECK(s[0].terms.size() > 1, "poseidon: output lane is one term");
  return collapse(bld, s[0], s[0].k).second;
}

Wire poseidon_hash2_gadget(CircuitBuilder& bld, Wire left, Wire right) {
  const Wire in[2] = {left, right};
  return poseidon_hash_gadget(bld, in, /*domain_tag=*/2);
}

Wire poseidon_commit_gadget(CircuitBuilder& bld, std::span<const Wire> msg,
                            Wire blinder) {
  std::vector<Wire> in(msg.begin(), msg.end());
  in.push_back(blinder);
  return poseidon_hash_gadget(bld, in, /*domain_tag=*/0x434f4d);
}

Wire merkle_root_gadget(CircuitBuilder& bld, Wire leaf,
                        std::span<const Wire> siblings,
                        std::span<const Wire> directions) {
  ZKDET_CHECK(siblings.size() == directions.size(),
              "merkle gadget: siblings/directions length mismatch");
  Wire cur = leaf;
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    // direction 0: cur is the left child; 1: cur is the right child.
    const Wire left = bld.select(directions[i], siblings[i], cur);
    const Wire right = bld.select(directions[i], cur, siblings[i]);
    cur = poseidon_hash2_gadget(bld, left, right);
  }
  return cur;
}

}  // namespace zkdet::gadgets
