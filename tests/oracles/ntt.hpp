// Test-only differential oracle for the NTT: the radix-2 transform
// src/ff/ntt.cpp used before it read its twiddles from the domain's
// table of powers. After the bit-reversal permutation, each stage derives
// its root by repeated squaring of the domain generator and steps the
// twiddle with one extra multiply per butterfly. It runs serially, so a
// byte-for-byte match with EvaluationDomain at pool widths > 1 also covers
// both parallel schedules of the fast path.
#pragma once

#include <vector>

#include "ff/bn254.hpp"

namespace zkdet::oracle {

using ff::Fr;

// Evaluations of the coefficients `a` on the size-a.size() domain
// (a.size() a power of two).
std::vector<Fr> ntt_fft(std::vector<Fr> a);
// Coefficients from evaluations on that domain.
std::vector<Fr> ntt_ifft(std::vector<Fr> a);
// The same on the coset {shift * omega^i}.
std::vector<Fr> ntt_coset_fft(std::vector<Fr> a, const Fr& shift);
std::vector<Fr> ntt_coset_ifft(std::vector<Fr> a, const Fr& shift);

}  // namespace zkdet::oracle
