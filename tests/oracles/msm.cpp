#include "oracles/msm.hpp"

#include "check/check.hpp"

namespace zkdet::oracle {

namespace {

template <typename Point>
Point msm_naive_impl(std::span<const Fr> scalars,
                     std::span<const Point> points) {
  ZKDET_CHECK(scalars.size() == points.size(),
              "msm_naive: scalar/point count mismatch");
  Point acc = Point::identity();
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    acc += points[i].mul(scalars[i]);
  }
  return acc;
}

}  // namespace

G1 msm_naive(std::span<const Fr> scalars, std::span<const G1> points) {
  return msm_naive_impl(scalars, points);
}

G2 msm_naive_g2(std::span<const Fr> scalars, std::span<const G2> points) {
  return msm_naive_impl(scalars, points);
}

}  // namespace zkdet::oracle
