#include "ec/curve.hpp"

#include <algorithm>

#include "check/invariants.hpp"
#include "ff/fp12.hpp"

namespace zkdet::ec {

using ff::Fp;
using ff::Fp2;

const Fp& G1Traits::b() {
  static const Fp v = Fp::from_u64(3);
  return v;
}
const Fp& G1Traits::gen_x() {
  static const Fp v = Fp::from_u64(1);
  return v;
}
const Fp& G1Traits::gen_y() {
  static const Fp v = Fp::from_u64(2);
  return v;
}

const Fp2& G2Traits::b() {
  // b' = 3 / xi, the D-type sextic twist constant.
  static const Fp2 v = Fp2{Fp::from_u64(3), Fp::zero()} * ff::fp2_xi().inverse();
  return v;
}
const Fp2& G2Traits::gen_x() {
  static const Fp2 v{
      Fp::from_dec("1085704699902305713594457076223282948137075635957851808699"
                   "0519993285655852781"),
      Fp::from_dec("1155973203298638710799100402139228578392581286182119253091"
                   "7403151452391805634")};
  return v;
}
const Fp2& G2Traits::gen_y() {
  static const Fp2 v{
      Fp::from_dec("8495653923123431417604973247489272438418190587263600148770"
                   "280649306958101930"),
      Fp::from_dec("4082367875863433681332203403145435568316851327593401208105"
                   "741076214120093531")};
  return v;
}

G2 g2_psi(const G2& q) {
  // Frobenius commutes with the Jacobian quotients, so it can be applied
  // to X, Y, Z directly; the coefficients are those of w^2 and w^3.
  return G2{q.X.conjugate() * ff::frobenius_coeff(1, 2),
            q.Y.conjugate() * ff::frobenius_coeff(1, 3), q.Z.conjugate()};
}

std::vector<std::uint8_t> g1_to_bytes(const G1Affine& p) {
  std::vector<std::uint8_t> out(64, 0);
  if (p.is_identity()) return out;
  const auto xb = ff::u256_to_bytes(p.x.to_canonical());
  const auto yb = ff::u256_to_bytes(p.y.to_canonical());
  std::copy(xb.begin(), xb.end(), out.begin());
  std::copy(yb.begin(), yb.end(), out.begin() + 32);
  return out;
}

namespace {

std::optional<Fp> fp_from_slice(std::span<const std::uint8_t> bytes,
                                std::size_t off) {
  std::array<std::uint8_t, 32> buf{};
  std::copy(bytes.begin() + static_cast<std::ptrdiff_t>(off),
            bytes.begin() + static_cast<std::ptrdiff_t>(off + 32), buf.begin());
  const ff::U256 v = ff::u256_from_bytes(buf);
  if (ff::u256_geq(v, Fp::MOD)) return std::nullopt;  // non-canonical
  return Fp::from_canonical(v);
}

}  // namespace

std::optional<G1Affine> g1_from_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != 64) return std::nullopt;
  if (std::all_of(bytes.begin(), bytes.end(),
                  [](std::uint8_t b) { return b == 0; })) {
    return G1Affine::identity();
  }
  const auto x = fp_from_slice(bytes, 0);
  const auto y = fp_from_slice(bytes, 32);
  if (!x || !y) return std::nullopt;
  const G1Affine p{*x, *y};
  if (!p.on_curve()) return std::nullopt;
  return p;
}

std::optional<G2> g2_from_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != 128) return std::nullopt;
  if (std::all_of(bytes.begin(), bytes.end(),
                  [](std::uint8_t b) { return b == 0; })) {
    return G2::identity();
  }
  const auto xa = fp_from_slice(bytes, 0);
  const auto xb = fp_from_slice(bytes, 32);
  const auto ya = fp_from_slice(bytes, 64);
  const auto yb = fp_from_slice(bytes, 96);
  if (!xa || !xb || !ya || !yb) return std::nullopt;
  const G2 p = G2::from_affine(Fp2{*xa, *xb}, Fp2{*ya, *yb});
  if (!p.on_curve()) return std::nullopt;
  // The twist has a large cofactor: on-curve alone admits points outside
  // the order-r subgroup, which would break pairing soundness downstream.
  if (!check::in_g2_subgroup(p)) return std::nullopt;
  return p;
}

std::vector<std::uint8_t> g2_to_bytes(const G2& p) {
  std::vector<std::uint8_t> out(128, 0);
  const G2Affine a = G2Affine::from_jacobian(p);
  if (a.is_identity()) return out;
  const auto put = [&out](std::size_t off, const Fp& v) {
    const auto b = ff::u256_to_bytes(v.to_canonical());
    std::copy(b.begin(), b.end(), out.begin() + static_cast<std::ptrdiff_t>(off));
  };
  put(0, a.x.a);
  put(32, a.x.b);
  put(64, a.y.a);
  put(96, a.y.b);
  return out;
}

}  // namespace zkdet::ec
