// Test-only differential oracle for the MSM: plain double-and-add,
// sum_i points[i].mul(scalars[i]) on Jacobian points. It shares nothing
// with the bucket method in src/ec/msm.cpp but the group law.
#pragma once

#include <span>

#include "ec/curve.hpp"

namespace zkdet::oracle {

using ec::G1;
using ec::G2;
using ff::Fr;

G1 msm_naive(std::span<const Fr> scalars, std::span<const G1> points);
G2 msm_naive_g2(std::span<const Fr> scalars, std::span<const G2> points);

}  // namespace zkdet::oracle
