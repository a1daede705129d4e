// Short-Weierstrass curve points (a = 0), templated over the
// coordinate field so that BN-254 G1 (over Fp) and G2 (over Fp2, the
// sextic twist) share one implementation.
//
// Two representations (see DESIGN.md, "Curve arithmetic & coordinate
// systems"):
//   Point<Traits>        Jacobian (X/Z^2, Y/Z^3) — the working form for
//                        chained group operations (no inversions).
//   AffinePoint<Traits>  (x, y) plus an infinity flag — the storage form
//                        for every point that is made once and then only
//                        read (SRS powers, fixed-base tables, key
//                        commitments, proof points, Schnorr public
//                        keys and nonce points). Mixed addition
//                        Point += AffinePoint is ~11 field muls vs ~16
//                        for Jacobian+Jacobian, and negation is free,
//                        which is what makes the signed-digit
//                        affine-base MSM in msm.cpp pay.
// batch_normalize converts a whole vector Jacobian -> affine with a
// single field inversion (Montgomery's prefix-product trick);
// AffinePoint::from_jacobian converts one point, identity included.
//
// Traits contract:
//   using Field = ...;
//   static const Field& b();            // curve constant
//   static const Field& gen_x();        // affine generator
//   static const Field& gen_y();
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "check/check.hpp"
#include "ff/batch_inverse.hpp"
#include "ff/bn254.hpp"
#include "ff/fp2.hpp"

namespace zkdet::ec {

using ff::Fr;
using ff::U256;

template <typename Traits>
struct AffinePoint;

template <typename Traits>
struct Point {
  using F = typename Traits::Field;

  // Jacobian: affine (X/Z^2, Y/Z^3); Z == 0 encodes the identity.
  F X{};
  F Y{};
  F Z{};

  Point() : X(F::zero()), Y(F::one()), Z(F::zero()) {}
  Point(const F& x, const F& y, const F& z) : X(x), Y(y), Z(z) {}

  [[nodiscard]] static Point identity() { return Point{}; }
  [[nodiscard]] static Point generator() {
    return from_affine(Traits::gen_x(), Traits::gen_y());
  }
  [[nodiscard]] static Point from_affine(const F& x, const F& y) {
    return Point{x, y, F::one()};
  }

  [[nodiscard]] bool is_identity() const { return Z.is_zero(); }

  // Affine coordinates; must not be called on the identity.
  void to_affine(F& x, F& y) const {
    ZKDET_CHECK(!is_identity(), "to_affine called on the identity");
    const F zinv = Z.inverse();
    const F zinv2 = zinv.square();
    x = X * zinv2;
    y = Y * zinv2 * zinv;
  }

  [[nodiscard]] bool on_curve() const {
    if (is_identity()) return true;
    // Y^2 = X^3 + b Z^6
    const F z2 = Z.square();
    const F z6 = z2.square() * z2;
    return Y.square() == X.square() * X + Traits::b() * z6;
  }

  bool operator==(const Point& o) const {
    if (is_identity() || o.is_identity()) {
      return is_identity() && o.is_identity();
    }
    // cross-multiply to compare affine coordinates
    const F z1_2 = Z.square();
    const F z2_2 = o.Z.square();
    if (X * z2_2 != o.X * z1_2) return false;
    return Y * z2_2 * o.Z == o.Y * z1_2 * Z;
  }
  bool operator!=(const Point& o) const { return !(*this == o); }

  // Against an affine point, with no inversion: x == X/Z^2 and
  // y == Y/Z^3 become X == x Z^2 and Y == y Z^3.
  bool operator==(const AffinePoint<Traits>& o) const {
    if (is_identity() || o.is_identity()) {
      return is_identity() && o.is_identity();
    }
    const F z2 = Z.square();
    return X == o.x * z2 && Y == o.y * z2 * Z;
  }

  [[nodiscard]] Point dbl() const {
    if (is_identity()) return *this;
    // dbl-2009-l formulas for a = 0
    const F A = X.square();
    const F B = Y.square();
    const F C = B.square();
    F D = (X + B).square() - A - C;
    D = D + D;
    const F E = A + A + A;
    const F Fq = E.square();
    const F X3 = Fq - (D + D);
    F eight_c = C + C;
    eight_c = eight_c + eight_c;
    eight_c = eight_c + eight_c;
    const F Y3 = E * (D - X3) - eight_c;
    const F Z3 = (Y * Z) + (Y * Z);
    return Point{X3, Y3, Z3};
  }

  [[nodiscard]] Point operator+(const Point& o) const {
    if (is_identity()) return o;
    if (o.is_identity()) return *this;
    // add-2007-bl
    const F Z1Z1 = Z.square();
    const F Z2Z2 = o.Z.square();
    const F U1 = X * Z2Z2;
    const F U2 = o.X * Z1Z1;
    const F S1 = Y * o.Z * Z2Z2;
    const F S2 = o.Y * Z * Z1Z1;
    if (U1 == U2) {
      if (S1 == S2) return dbl();
      return identity();
    }
    const F H = U2 - U1;
    F I = H + H;
    I = I.square();
    const F J = H * I;
    F rr = S2 - S1;
    rr = rr + rr;
    const F V = U1 * I;
    const F X3 = rr.square() - J - V - V;
    F S1J = S1 * J;
    const F Y3 = rr * (V - X3) - (S1J + S1J);
    const F Z3 = ((Z + o.Z).square() - Z1Z1 - Z2Z2) * H;
    return Point{X3, Y3, Z3};
  }

  Point& operator+=(const Point& o) { return *this = *this + o; }

  // Mixed addition against an affine point (see madd below).
  Point& operator+=(const AffinePoint<Traits>& o) {
    if (o.is_identity()) return *this;
    return madd(o.x, o.y);
  }
  // Mixed subtraction: affine negation is free ((x, y) -> (x, -y)), so
  // subtracting a base costs one field negation and no point temporary.
  // This is the negative-digit half of the signed-window MSM.
  Point& operator-=(const AffinePoint<Traits>& o) {
    if (o.is_identity()) return *this;
    return madd(o.x, -o.y);
  }
  [[nodiscard]] Point operator+(const AffinePoint<Traits>& o) const {
    Point t = *this;
    t += o;
    return t;
  }
  [[nodiscard]] Point operator-(const AffinePoint<Traits>& o) const {
    Point t = *this;
    t -= o;
    return t;
  }

  [[nodiscard]] Point operator-() const {
    if (is_identity()) return *this;
    return Point{X, -Y, Z};
  }
  [[nodiscard]] Point operator-(const Point& o) const { return *this + (-o); }

  // Variable-time double-and-add, for public scalars only. A secret
  // multiple of the generator goes through g1_mul_generator_ct
  // (ec/msm.hpp).
  [[nodiscard]] Point mul(const U256& k) const {
    Point acc = identity();
    for (std::size_t i = k.bit_length(); i-- > 0;) {
      acc = acc.dbl();
      if (k.bit(i)) acc += *this;
    }
    return acc;
  }
  [[nodiscard]] Point mul(const Fr& k) const { return mul(k.to_canonical()); }

 private:
  // Mixed addition against the non-identity affine point (ox, oy)
  // (madd-2007-bl): ~11 field muls/squares instead of the ~16 of the
  // full Jacobian add. The inner loop of the affine-base MSM bucket
  // accumulation; +=/-= wrap it with the identity checks.
  Point& madd(const F& ox, const F& oy) {
    if (is_identity()) {
      X = ox;
      Y = oy;
      Z = F::one();
      return *this;
    }
    const F Z1Z1 = Z.square();
    const F U2 = ox * Z1Z1;
    const F S2 = oy * Z * Z1Z1;
    if (U2 == X) {
      if (S2 == Y) return *this = dbl();
      return *this = identity();
    }
    const F H = U2 - X;
    const F HH = H.square();
    F I = HH + HH;
    I = I + I;  // 4*HH
    const F J = H * I;
    F rr = S2 - Y;
    rr = rr + rr;
    const F V = X * I;
    const F X3 = rr.square() - J - V - V;
    const F YJ = Y * J;
    const F Y3 = rr * (V - X3) - (YJ + YJ);
    const F Z3 = (Z + H).square() - Z1Z1 - HH;
    X = X3;
    Y = Y3;
    Z = Z3;
    return *this;
  }
};

// Affine point: the storage representation for precomputed bases. Two
// coordinates instead of three (smaller tables, better cache behaviour)
// and free negation (x, -y) — which is what lets the MSM use signed
// digit windows with half the buckets.
template <typename Traits>
struct AffinePoint {
  using F = typename Traits::Field;

  F x{};
  F y{};
  bool infinity = true;

  AffinePoint() = default;
  AffinePoint(const F& x_, const F& y_) : x(x_), y(y_), infinity(false) {}

  [[nodiscard]] static AffinePoint identity() { return AffinePoint{}; }
  [[nodiscard]] static AffinePoint generator() {
    return AffinePoint{Traits::gen_x(), Traits::gen_y()};
  }

  [[nodiscard]] bool is_identity() const { return infinity; }

  // One field inversion; the identity maps to the affine identity.
  [[nodiscard]] static AffinePoint from_jacobian(const Point<Traits>& p) {
    if (p.is_identity()) return identity();
    AffinePoint a;
    p.to_affine(a.x, a.y);
    a.infinity = false;
    return a;
  }

  [[nodiscard]] Point<Traits> to_jacobian() const {
    if (infinity) return Point<Traits>::identity();
    return Point<Traits>::from_affine(x, y);
  }

  [[nodiscard]] bool on_curve() const {
    return infinity || y.square() == x.square() * x + Traits::b();
  }

  [[nodiscard]] AffinePoint operator-() const {
    if (infinity) return *this;
    return AffinePoint{x, -y};
  }

  bool operator==(const AffinePoint& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }
  bool operator!=(const AffinePoint& o) const { return !(*this == o); }
};

// Batch Jacobian -> affine normalization: one field inversion for the
// whole vector (ff::batch_inverse). Identity inputs map to affine identity.
template <typename Traits>
std::vector<AffinePoint<Traits>> batch_normalize_impl(
    std::span<const Point<Traits>> points) {
  using F = typename Traits::Field;
  std::vector<F> zinv(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) zinv[i] = points[i].Z;
  ff::batch_inverse(std::span<F>(zinv));  // identity Z == 0 stays 0
  std::vector<AffinePoint<Traits>> out(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].is_identity()) continue;
    const F zinv2 = zinv[i].square();
    out[i] = AffinePoint<Traits>{points[i].X * zinv2,
                                 points[i].Y * zinv2 * zinv[i]};
  }
  return out;
}

struct G1Traits {
  using Field = ff::Fp;
  static const Field& b();
  static const Field& gen_x();
  static const Field& gen_y();
};

struct G2Traits {
  using Field = ff::Fp2;
  static const Field& b();
  static const Field& gen_x();
  static const Field& gen_y();
};

using G1 = Point<G1Traits>;
using G2 = Point<G2Traits>;
using G1Affine = AffinePoint<G1Traits>;
using G2Affine = AffinePoint<G2Traits>;

// The untwist-Frobenius-twist endomorphism psi(x, y) = (conj(x) xi^((p-1)/3),
// conj(y) xi^((p-1)/2)) of E'(Fp2). On G2 it acts as multiplication by
// p == 6x^2 (mod r).
G2 g2_psi(const G2& q);

inline std::vector<G1Affine> batch_normalize(std::span<const G1> points) {
  return batch_normalize_impl<G1Traits>(points);
}
inline std::vector<G2Affine> batch_normalize(std::span<const G2> points) {
  return batch_normalize_impl<G2Traits>(points);
}

// 64-byte uncompressed affine serialization of a G1 point (x||y big
// endian); the identity serializes as all zeros. A Jacobian point pays
// an inversion to become affine first, so callers keep points that get
// serialized affine.
std::vector<std::uint8_t> g1_to_bytes(const G1Affine& p);
std::vector<std::uint8_t> g2_to_bytes(const G2& p);

// Deserialization; rejects (nullopt) malformed encodings and points
// that are not on the curve. G1 decodes to affine: the encoding is the
// affine coordinates, so no inversion is paid.
std::optional<G1Affine> g1_from_bytes(std::span<const std::uint8_t> bytes);
std::optional<G2> g2_from_bytes(std::span<const std::uint8_t> bytes);

}  // namespace zkdet::ec
