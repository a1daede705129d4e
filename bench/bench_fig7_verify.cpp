// Figure 7 reproduction: running time of ZKDET vs ZKCP verification as
// the input size grows.
//
// Paper claim: ZKDET (Plonk) verification needs 2 pairings + 18 G1
// exponentiations regardless of input size, staying below 0.1 s; ZKCP
// (Groth16-based, the paper's reference [10]) needs 3 pairings + ell G1
// exponentiations, where ell is the number of public inputs, so its
// verification grows with the statement size.
//
// Both columns are REAL verifiers over the same circuit: our complete
// Plonk (src/plonk) and our complete Groth16 (src/plonk/groth16.hpp),
// proving the same statement "sum(x_1..x_ell) = total" with ell+1 public
// inputs. Verification times are measured on honestly generated,
// accepted proofs.
#include <cstdio>

#include "bench_util.hpp"
#include "core/transformation.hpp"
#include "crypto/rng.hpp"
#include "gadgets/builder.hpp"
#include "plonk/groth16.hpp"
#include "plonk/plonk.hpp"
#include "runtime/thread_pool.hpp"

using namespace zkdet;
using bench::Stopwatch;
using bench::fmt_seconds;
using ff::Fr;

namespace {

// sum(x_i) == total, all ell+1 values public. Gate count is O(ell) but
// tiny, so verification cost differences come from ell alone.
gadgets::CircuitBuilder sum_circuit(std::size_t ell, crypto::Drbg& rng) {
  gadgets::CircuitBuilder bld;
  std::vector<gadgets::Wire> xs;
  Fr total = Fr::zero();
  for (std::size_t i = 0; i < ell; ++i) {
    const Fr v = rng.random_fr();
    xs.push_back(bld.add_public_input(v));
    total += v;
  }
  const gadgets::Wire sum = bld.sum(xs);
  const gadgets::Wire total_w = bld.add_public_input(total);
  bld.assert_equal(sum, total_w);
  return bld;
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("Fig. 7 — Verification time, ZKDET (Plonk) vs ZKCP (Groth16)\n");
  std::printf("(paper: ZKDET flat <0.1s — 2 pairings + 18 exps; ZKCP grows\n");
  std::printf(" with ell — 3 pairings + ell exps; both columns below are\n");
  std::printf(" real verifiers on accepted proofs of the same statement)\n");
  std::printf("==============================================================\n");

  crypto::Drbg rng(1);
  const plonk::Srs srs = plonk::Srs::setup((1 << 13) + 16, rng);

  std::printf("%-16s %-16s %-16s %-10s\n", "public inputs", "ZKDET verify",
              "ZKCP verify", "winner");

  for (const std::size_t ell : {4u, 16u, 64u, 256u, 1024u, 2048u}) {
    gadgets::CircuitBuilder bld = sum_circuit(ell, rng);
    const std::vector<Fr> pubs = bld.cs().extract_public_inputs(bld.witness());

    const auto pkeys = plonk::preprocess(bld.cs(), srs);
    if (!pkeys) {
      std::printf("(skipping ell=%zu: SRS too small)\n", ell);
      continue;
    }
    const auto pproof =
        plonk::prove(pkeys->pk, bld.cs(), srs, bld.witness(), rng);
    const auto gkeys = plonk::groth16::setup(bld.cs(), rng);
    const auto gproof =
        plonk::groth16::prove(gkeys->pk, bld.cs(), bld.witness(), rng);
    if (!pproof || !gproof) {
      std::printf("proving failed at ell=%zu\n", ell);
      return 1;
    }

    constexpr int kRuns = 5;
    (void)plonk::verify(pkeys->vk, pubs, *pproof);  // warm-up
    Stopwatch plonk_sw;
    for (int r = 0; r < kRuns; ++r) {
      if (!plonk::verify(pkeys->vk, pubs, *pproof)) {
        std::printf("plonk verification failed\n");
        return 1;
      }
    }
    const double plonk_t = plonk_sw.seconds() / kRuns;

    (void)plonk::groth16::verify(gkeys->vk, pubs, *gproof);
    Stopwatch g16_sw;
    for (int r = 0; r < kRuns; ++r) {
      if (!plonk::groth16::verify(gkeys->vk, pubs, *gproof)) {
        std::printf("groth16 verification failed\n");
        return 1;
      }
    }
    const double g16_t = g16_sw.seconds() / kRuns;

    std::printf("%-16zu %-16s %-16s %-10s\n", pubs.size(),
                fmt_seconds(plonk_t).c_str(), fmt_seconds(g16_t).c_str(),
                plonk_t <= g16_t ? "ZKDET" : "ZKCP");
  }

  std::printf("\nshape check: the ZKDET column stays flat (and <0.1 s) while\n");
  std::printf("the ZKCP (Groth16) column grows with the public input count,\n");
  std::printf("matching Fig. 7.\n");

  // --- batched verification: the settlement-path amortization ---
  // N independent accepted proofs of the same shape fold into ONE
  // 2-pairing product (Fiat-Shamir weights, plonk::batch_verify): one
  // MSM per pairing side over the merged terms of all N proofs, so the
  // per-proof cost drops toward the transcript and MSM floor as N
  // grows. This is the wall-clock face of the gas sweep in
  // bench_table2_gas (BENCH_aggregate.json). Groth16/ZKCP has no
  // analogous fold here. Thread CPU is the calling thread's; process CPU
  // adds what pool workers spent on MSM windows.
  std::printf("\n==============================================================\n");
  std::printf("Batched ZKDET verification — per-proof cost vs batch size N\n");
  std::printf("(%zu pool workers)\n",
              runtime::ThreadPool::instance().concurrency());
  std::printf("==============================================================\n");
  std::printf("%-18s %-14s %-14s %-14s %-10s\n", "N", "wall/proof",
              "thread-cpu", "process-cpu", "speedup");

  struct Cost {
    double wall, thread_cpu, process_cpu;
  };
  // Per-proof cost of `runs` calls of `fn`, each checking `proofs` proofs.
  const auto measure = [](std::size_t proofs, const auto& fn) -> Cost {
    constexpr int kRuns = 5;
    if (!fn()) return {-1, -1, -1};  // warm-up, and the verdict
    Stopwatch wall;
    bench::CpuStopwatch thread_cpu;
    bench::CpuStopwatch process_cpu(CLOCK_PROCESS_CPUTIME_ID);
    for (int r = 0; r < kRuns; ++r) (void)fn();
    const double per = 1.0 / (kRuns * static_cast<double>(proofs));
    return {wall.seconds() * per, thread_cpu.seconds() * per,
            process_cpu.seconds() * per};
  };
  const auto row = [](const std::string& label, const Cost& c,
                      double base_wall) {
    std::printf("%-18s %-14s %-14s %-14s %9.2fx\n", label.c_str(),
                fmt_seconds(c.wall).c_str(), fmt_seconds(c.thread_cpu).c_str(),
                fmt_seconds(c.process_cpu).c_str(), base_wall / c.wall);
  };

  // 64 distinct proofs (fresh blinders) of one statement: their key
  // commitments merge in the fold, their proof points do not.
  gadgets::CircuitBuilder bb = sum_circuit(16, rng);
  const std::vector<Fr> bpubs = bb.cs().extract_public_inputs(bb.witness());
  const auto bkeys = plonk::preprocess(bb.cs(), srs);
  if (!bkeys) {
    std::printf("batched-sweep preprocessing failed\n");
    return 1;
  }
  std::vector<plonk::Proof> bproofs;
  for (int i = 0; i < 64; ++i) {
    const auto p = plonk::prove(bkeys->pk, bb.cs(), srs, bb.witness(), rng);
    if (!p) {
      std::printf("batched-sweep proving failed\n");
      return 1;
    }
    bproofs.push_back(*p);
  }
  double base_wall = 0.0;
  for (const std::size_t n : {1u, 4u, 16u, 64u}) {
    std::vector<plonk::BatchEntry> entries;
    for (std::size_t i = 0; i < n; ++i) {
      entries.push_back({&bkeys->vk, &bpubs, &bproofs[i]});
    }
    const Cost c = measure(n, [&] { return plonk::batch_verify(entries); });
    if (c.wall < 0) {
      std::printf("batched verification rejected a valid batch at N=%zu\n", n);
      return 1;
    }
    if (n == 1) base_wall = c.wall;
    row(std::to_string(n), c, base_wall);
  }

  // --- provenance chains: folds of mixed-shape proofs ---
  // The audit catalog S1 -dup-> D -agg(D, S2)-> G -part(2,2)-> P1, P2:
  // the chains of D, G and P1 hold 3, 6 and 8 proofs of 2 to 5 shapes
  // (pi_e/2, pi_e/4, pi_t dup, agg and part). verify_provenance_chain
  // folds each chain once; "unfolded" checks the same proofs one
  // plonk::verify at a time. Both rebuild every statement from chain
  // and storage.
  std::printf("\nProvenance chains (mixed shapes), per proof:\n");
  std::printf("%-18s %-14s %-14s %-14s %-10s\n", "chain", "wall/proof",
              "thread-cpu", "process-cpu", "speedup");
  core::ZkdetSystem sys(1 << 13, 7);
  core::TransformationProtocol tp(sys);
  crypto::Drbg crng("bench-fig7-chain", 7);
  const crypto::KeyPair owner = crypto::KeyPair::generate(crng);
  sys.chain().create_account(owner, 1'000'000'000);
  const auto data = [&] {
    return std::vector<Fr>{crng.random_fr(), crng.random_fr()};
  };
  const auto s1 = tp.publish(owner, data());
  const auto s2 = tp.publish(owner, data());
  const auto d = s1 ? tp.duplicate(owner, *s1) : std::nullopt;
  std::optional<core::OwnedAsset> g;
  std::optional<std::vector<core::OwnedAsset>> parts;
  if (d && s2) {
    const std::vector<core::OwnedAsset> srcs = {*d, *s2};
    g = tp.aggregate(owner, srcs);
    if (g) parts = tp.partition(owner, *g, {2, 2});
  }
  if (!parts) {
    std::printf("chain catalog build failed\n");
    return 1;
  }
  for (const std::uint64_t id :
       {d->token_id, g->token_id, parts->at(0).token_id}) {
    std::vector<std::uint64_t> chain = sys.nft().provenance(id);
    chain.push_back(id);
    std::size_t proofs = 0;
    for (const std::uint64_t t : chain) {
      proofs += sys.nft().token(t)->formula == chain::Formula::kGenesis ? 1 : 2;
    }
    const Cost unfolded = measure(proofs, [&] {
      bool ok = true;
      for (const std::uint64_t t : chain) {
        ok = tp.verify_encryption(t) && tp.verify_transformation(t) && ok;
      }
      return ok;
    });
    const Cost folded =
        measure(proofs, [&] { return tp.verify_provenance_chain(id); });
    if (unfolded.wall < 0 || folded.wall < 0) {
      std::printf("an honest chain did not verify\n");
      return 1;
    }
    const std::string label = "chain/" + std::to_string(proofs);
    row(label + " unfolded", unfolded, unfolded.wall);
    row(label + " fold", folded, unfolded.wall);
  }
  std::printf("\nshape check: per-proof cost falls with N — one pairing\n");
  std::printf("product and one MSM per side serve the whole batch; a\n");
  std::printf("chain's fold merges the terms of proofs that share a key.\n");
  return 0;
}
