// Microbenchmarks of the cryptographic substrates (google-benchmark).
//
// Not a paper table by itself, but the ingredients the paper's numbers
// decompose into: field/curve arithmetic, the pairing and its parts
// (Fp12 tower arithmetic, G2 subgroup check, line preparation, Miller
// loop prepared and unprepared, final exponentiation, the verifier's
// 2-pair product), the circuit-friendly primitives (MiMC, Poseidon) vs
// the traditional hash (SHA-256), MSM and NTT scaling.
//
// Extra mode: `--msm-sweep[=quick]` skips google-benchmark and times the
// signed-digit affine-bucket MSM for G1 and G2 across n = 2^8..2^15
// (quick: 2^8..2^12, which reaches the batch-affine buckets at 2^12),
// emitting BENCH_msm.json. At every n it also checks that the MSM splits:
// msm(s, P) == msm(first half) + msm(second half); a mismatch exits 1.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "check/invariants.hpp"
#include "crypto/mimc.hpp"
#include "crypto/poseidon.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "ec/msm.hpp"
#include "ec/pairing.hpp"
#include "ff/ntt.hpp"

using namespace zkdet;
using ff::Fr;

namespace {

crypto::Drbg& rng() {
  static crypto::Drbg r(1);
  return r;
}

void BM_FrMul(benchmark::State& state) {
  Fr a = rng().random_fr();
  const Fr b = rng().random_fr();
  for (auto _ : state) {
    a *= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FrMul);

// Field add and subtract, Fp (the MSM's coordinate field): a dependent
// chain, as in the curve formulas.
void BM_FpAdd(benchmark::State& state) {
  ff::Fp a = ff::random_field<ff::Fp>(rng());
  const ff::Fp b = ff::random_field<ff::Fp>(rng());
  for (auto _ : state) {
    a += b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FpAdd);

void BM_FpSub(benchmark::State& state) {
  ff::Fp a = ff::random_field<ff::Fp>(rng());
  const ff::Fp b = ff::random_field<ff::Fp>(rng());
  for (auto _ : state) {
    a -= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FpSub);

void BM_FpMul(benchmark::State& state) {
  ff::Fp a = ff::random_field<ff::Fp>(rng());
  const ff::Fp b = ff::random_field<ff::Fp>(rng());
  for (auto _ : state) {
    a *= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FpMul);

void BM_FrInverse(benchmark::State& state) {
  Fr a = rng().random_fr();
  for (auto _ : state) {
    a = a.inverse() + Fr::one();
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FrInverse);

ff::Fp12 random_fp12() {
  const auto fp2 = [] {
    return ff::Fp2{ff::random_field<ff::Fp>(rng()), ff::random_field<ff::Fp>(rng())};
  };
  return ff::Fp12{ff::Fp6{fp2(), fp2(), fp2()}, ff::Fp6{fp2(), fp2(), fp2()}};
}

void BM_Fp12Mul(benchmark::State& state) {
  ff::Fp12 a = random_fp12();
  const ff::Fp12 b = random_fp12();
  for (auto _ : state) {
    a *= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Fp12Mul);

void BM_Fp12Square(benchmark::State& state) {
  ff::Fp12 a = random_fp12();
  for (auto _ : state) {
    a = a.square();
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Fp12Square);

void BM_Fp12CyclotomicSquare(benchmark::State& state) {
  // An element of the cyclotomic subgroup (the pairing's easy part).
  const ff::Fp12 f = random_fp12();
  ff::Fp12 a = f.conjugate() * f.inverse();
  a = a.frobenius(2) * a;
  for (auto _ : state) {
    a = a.cyclotomic_square();
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Fp12CyclotomicSquare);

void BM_G1Add(benchmark::State& state) {
  ec::G1 p = ec::G1::generator().mul(rng().random_fr());
  const ec::G1 q = ec::G1::generator().mul(rng().random_fr());
  for (auto _ : state) {
    p += q;
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_G1Add);

void BM_G1ScalarMul(benchmark::State& state) {
  const ec::G1 p = ec::G1::generator();
  const Fr k = rng().random_fr();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.mul(k));
  }
}
BENCHMARK(BM_G1ScalarMul);

void BM_G2SubgroupCheck(benchmark::State& state) {
  const ec::G2 q = ec::G2::generator().mul(rng().random_fr());
  for (auto _ : state) {
    benchmark::DoNotOptimize(check::in_g2_subgroup(q));
  }
}
BENCHMARK(BM_G2SubgroupCheck);

void BM_Pairing(benchmark::State& state) {
  const ec::G1 p = ec::G1::generator().mul(rng().random_fr());
  const ec::G2 q = ec::G2::generator().mul(rng().random_fr());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::pairing(p, q));
  }
}
BENCHMARK(BM_Pairing);

// Unprepared: validates Q and computes its lines on every call.
void BM_MillerLoop(benchmark::State& state) {
  const ec::G1 p = ec::G1::generator().mul(rng().random_fr());
  const ec::G2 q = ec::G2::generator().mul(rng().random_fr());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::miller_loop(p, q));
  }
}
BENCHMARK(BM_MillerLoop);

void BM_G2Prepare(benchmark::State& state) {
  const ec::G2 q = ec::G2::generator().mul(rng().random_fr());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::G2Prepared(q));
  }
}
BENCHMARK(BM_G2Prepare);

void BM_MillerLoopPrepared(benchmark::State& state) {
  const ec::G1 p = ec::G1::generator().mul(rng().random_fr());
  const ec::G2Prepared q(ec::G2::generator().mul(rng().random_fr()));
  const ec::PreparedPair pair[1] = {{p, &q}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::miller_loop(pair));
  }
}
BENCHMARK(BM_MillerLoopPrepared);

void BM_FinalExponentiation(benchmark::State& state) {
  const ff::Fp12 f = random_fp12();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::final_exponentiation(f));
  }
}
BENCHMARK(BM_FinalExponentiation);

// The verifier's pairing check: e(L, [tau]_2) e(-R, [1]_2) == 1 over
// prepared G2 points (one shared Miller loop, one final exponentiation).
void BM_PairingProduct2Prepared(benchmark::State& state) {
  const ec::G2Prepared g2_tau(ec::G2::generator().mul(rng().random_fr()));
  const ec::G2Prepared g2_gen(ec::G2::generator());
  const ec::G1 l = ec::G1::generator().mul(rng().random_fr());
  const ec::G1 r = ec::G1::generator().mul(rng().random_fr());
  const ec::PreparedPair terms[2] = {{l, &g2_tau}, {-r, &g2_gen}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::pairing_product_is_one(terms));
  }
}
BENCHMARK(BM_PairingProduct2Prepared);

void BM_Msm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Fr> scalars(n);
  std::vector<ec::G1> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    scalars[i] = rng().random_fr();
    points[i] = ec::G1::generator().mul(rng().random_fr());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::msm(scalars, points));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
// 2050 and 8195 are commitment sizes of the exchange proofs: pi_e/2,
// pi_p/2 and pi_k run on n = 2048, pi_e/8 and pi_p/8 on n = 8192, and a
// blinded polynomial has a few coefficients more than n.
BENCHMARK(BM_Msm)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2050)
    ->Arg(4096)
    ->Arg(8195)
    ->Arg(16384)
    ->Complexity();

// Below the bucket threshold: the Schnorr verifier's e*pk (n = 1) and
// the Plonk verifier's single-proof lhs sit here.
void BM_G1MsmSmall(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Fr> scalars(n);
  std::vector<ec::G1> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    scalars[i] = rng().random_fr();
    points[i] = ec::g1_mul_generator(rng().random_fr());
  }
  const std::vector<ec::G1Affine> affine =
      ec::batch_normalize(std::span<const ec::G1>(points));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ec::msm(scalars, std::span<const ec::G1Affine>(affine)));
  }
}
BENCHMARK(BM_G1MsmSmall)->Arg(1)->Arg(2)->Arg(4)->Arg(7)->Arg(8)->Arg(16);

// One transaction signature: R = k*G with a secret nonce, then the
// challenge hash over R || pk || msg.
void BM_SchnorrSign(benchmark::State& state) {
  crypto::Drbg r(3);
  const crypto::KeyPair kp = crypto::KeyPair::generate(r);
  const std::vector<std::uint8_t> msg(64, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::schnorr_sign(kp, msg, r));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  crypto::Drbg r(4);
  const crypto::KeyPair kp = crypto::KeyPair::generate(r);
  const std::vector<std::uint8_t> msg(64, 7);
  const crypto::Signature sig = crypto::schnorr_sign(kp, msg, r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::schnorr_verify(kp.pk, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_Ntt(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ff::EvaluationDomain domain(n);
  std::vector<Fr> v(n);
  for (auto& x : v) x = rng().random_fr();
  for (auto _ : state) {
    domain.fft(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Ntt)->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536)->Complexity();

// The prover's one inverse transform per proof (the quotient), on the
// same sizes; 65536 is pi_e/8's 4n coset.
void BM_CosetIfft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ff::EvaluationDomain domain(n);
  std::vector<Fr> v(n);
  for (auto& x : v) x = rng().random_fr();
  const Fr shift = Fr::generator();
  for (auto _ : state) {
    domain.coset_ifft(v, shift);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CosetIfft)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->Complexity();

void BM_MimcBlock(benchmark::State& state) {
  const Fr k = rng().random_fr();
  Fr m = rng().random_fr();
  for (auto _ : state) {
    m = crypto::mimc_encrypt_block(k, m);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MimcBlock);

void BM_PoseidonHash2(benchmark::State& state) {
  Fr l = rng().random_fr();
  const Fr r = rng().random_fr();
  for (auto _ : state) {
    l = crypto::poseidon_hash2(l, r);
    benchmark::DoNotOptimize(l);
  }
}
BENCHMARK(BM_PoseidonHash2);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

// --- MSM sweep: signed-digit affine-bucket path per (group, n) ---

struct MsmRow {
  std::string group;
  std::size_t n = 0;
  double affine_seconds = 0;
  bool split_ok = false;
};

// Times `fn()` with enough repetitions to dominate clock noise on small
// inputs, returning seconds per call (best of reps).
template <typename Fn>
double time_best(Fn&& fn, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    bench::Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

// Signed-digit windows over a pre-normalized affine table, matching how
// Srs::commit() reads the affine g1_powers. The first n terms must sum
// to the sum of their two halves, each half an MSM of its own.
template <typename Aff, typename AffMsm>
MsmRow sweep_one(const char* group, std::size_t n,
                 const std::vector<Fr>& scalars, const std::vector<Aff>& affine,
                 AffMsm&& aff_msm) {
  const int reps = n <= (1u << 10) ? 5 : (n <= (1u << 12) ? 3 : 2);
  const auto run = [&](std::size_t lo, std::size_t len) {
    return aff_msm(std::span<const Fr>(scalars.data() + lo, len),
                   std::span<const Aff>(affine.data() + lo, len));
  };
  MsmRow row;
  row.group = group;
  row.n = n;
  row.affine_seconds =
      time_best([&] { benchmark::DoNotOptimize(run(0, n)); }, reps);
  row.split_ok = run(0, n) == run(0, n / 2) + run(n / 2, n - n / 2);
  std::printf("  %-4s n=%-6zu affine %-12s split %s\n", group, n,
              bench::fmt_seconds(row.affine_seconds).c_str(),
              row.split_ok ? "ok" : "MISMATCH");
  return row;
}

int run_msm_sweep(bool quick) {
  const std::size_t max_log2 = quick ? 12 : 15;
  const std::size_t max_n = std::size_t{1} << max_log2;
  std::printf("MSM sweep (%s): n = 2^8..2^%zu, signed-digit affine buckets\n",
              quick ? "quick" : "full", max_log2);

  crypto::Drbg r(42);
  std::vector<Fr> scalars(max_n);
  std::vector<ec::G1> g1(max_n);
  std::vector<ec::G2> g2(max_n);
  for (std::size_t i = 0; i < max_n; ++i) {
    scalars[i] = r.random_fr();
    g1[i] = ec::g1_mul_generator(r.random_fr());
    g2[i] = ec::g2_mul_generator(r.random_fr());
  }
  const std::vector<ec::G1Affine> g1a = ec::batch_normalize(
      std::span<const ec::G1>(g1));
  const std::vector<ec::G2Affine> g2a = ec::batch_normalize(
      std::span<const ec::G2>(g2));

  std::vector<MsmRow> rows;
  for (std::size_t lg = 8; lg <= max_log2; ++lg) {
    rows.push_back(sweep_one(
        "G1", std::size_t{1} << lg, scalars, g1a,
        [](std::span<const Fr> s, std::span<const ec::G1Affine> p) {
          return ec::msm(s, p);
        }));
  }
  for (std::size_t lg = 8; lg <= max_log2; ++lg) {
    rows.push_back(sweep_one(
        "G2", std::size_t{1} << lg, scalars, g2a,
        [](std::span<const Fr> s, std::span<const ec::G2Affine> p) {
          return ec::msm_g2(s, p);
        }));
  }

  std::ofstream json("BENCH_msm.json");
  json << "{\n  \"bench\": \"msm_sweep\",\n"
       << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
       << "  \"path\": \"affine_signed_digit_buckets\",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"group\": \"" << rows[i].group << "\", \"n\": " << rows[i].n
         << ", \"affine_seconds\": " << rows[i].affine_seconds
         << ", \"split_ok\": " << (rows[i].split_ok ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_msm.json\n");
  const bool ok = std::all_of(rows.begin(), rows.end(),
                              [](const MsmRow& row) { return row.split_ok; });
  if (!ok) std::printf("FAIL: an MSM does not split into its halves\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--msm-sweep") == 0) return run_msm_sweep(false);
    if (std::strcmp(argv[i], "--msm-sweep=quick") == 0) {
      return run_msm_sweep(true);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
