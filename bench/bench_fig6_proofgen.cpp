// Figure 6 reproduction: time consumed for proof generation.
//
// The paper plots, against dataset size:
//   - pi_e / pi_p (proofs of encryption — the dominant cost, ~3 min for
//     a 5 MB dataset on their machine),
//   - pi_t for aggregation / partition / duplication ("essentially data
//     comparisons", ~10 s for 5 MB),
//   - pi_k, which is independent of data size (~120 ms).
// We sweep dataset entry counts with the same three circuit families and
// report generation times. Expected shape: pi_e grows ~linearly and
// dominates; pi_t is far cheaper at equal size; pi_k is flat.
// Additionally sweeps the runtime worker count over a batch of pi_e
// proof jobs (1/2/4/8 workers) and emits BENCH_runtime.json with
// proofs/sec and speedup vs the serial baseline.
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "core/circuits.hpp"
#include "crypto/rng.hpp"
#include "plonk/plonk.hpp"
#include "runtime/prover_service.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

using namespace zkdet;
using bench::Stopwatch;
using bench::fmt_seconds;
using ff::Fr;

namespace {

// Proves `bld` and prints one row: its rows, the padded domain n, the
// padding ratio rows/n (the prover's work scales with n) and the time.
void time_circuit(const char* entries, const char* circuit,
                  const gadgets::CircuitBuilder& bld, const plonk::Srs& srs,
                  crypto::Drbg& rng) {
  const std::size_t rows = bld.cs().num_rows();
  const std::size_t n = bld.cs().domain_size();
  double prove = -1;
  if (const auto keys = plonk::preprocess(bld.cs(), srs)) {
    Stopwatch sw;
    const auto proof =
        plonk::prove(keys->pk, bld.cs(), srs, bld.witness(), rng);
    if (proof) prove = sw.seconds();
  }
  std::printf("%-8s %-14s %-8zu %-7zu %-7.2f %-10s\n", entries, circuit, rows,
              n, static_cast<double>(rows) / static_cast<double>(n),
              fmt_seconds(prove).c_str());
}

std::vector<Fr> make_data(std::size_t n, crypto::Drbg& rng) {
  std::vector<Fr> d;
  for (std::size_t i = 0; i < n; ++i) d.push_back(rng.random_fr());
  return d;
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("Fig. 6 — Time consumed for proof generation\n");
  std::printf("(paper: pi_e/pi_p dominate and grow with data size; pi_t for\n");
  std::printf(" agg/part/dup is cheap; pi_k is constant ~0.1s)\n");
  std::printf("==============================================================\n");

  crypto::Drbg rng(1);
  const plonk::Srs srs = plonk::Srs::setup((1 << 16) + 16, rng);

  std::printf("%-8s %-14s %-8s %-7s %-7s %-10s\n", "entries", "circuit",
              "rows", "n", "rows/n", "prove");
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    const std::vector<Fr> data = make_data(n, rng);
    const Fr key = rng.random_fr(), nonce = rng.random_fr();
    const Fr o1 = rng.random_fr(), o2 = rng.random_fr();
    const std::string e = std::to_string(n);

    time_circuit(e.c_str(), "pi_e",
                 core::build_encryption_circuit(data, key, nonce, o1), srs,
                 rng);
    time_circuit(e.c_str(), "pi_t dup",
                 core::build_duplication_circuit(data, o1, o2), srs, rng);

    const std::vector<std::vector<Fr>> halves{
        std::vector<Fr>(data.begin(), data.begin() + static_cast<long>(n / 2)),
        std::vector<Fr>(data.begin() + static_cast<long>(n / 2), data.end())};
    time_circuit(
        e.c_str(), "pi_t agg(2)",
        core::build_aggregation_circuit(halves, {o1, o2}, rng.random_fr()),
        srs, rng);
    time_circuit(e.c_str(), "pi_t part(2)",
                 core::build_partition_circuit(
                     data, {n / 2, n - n / 2}, o1,
                     {rng.random_fr(), rng.random_fr()}),
                 srs, rng);
  }

  // pi_k: size-independent (measure thrice to show flatness)
  std::printf("\npi_k (key proof, independent of data size):\n");
  for (int i = 0; i < 3; ++i) {
    time_circuit("-", "pi_k",
                 core::build_key_circuit(rng.random_fr(), rng.random_fr(),
                                         rng.random_fr()),
                 srs, rng);
  }
  // --- runtime sweep: concurrent proof jobs vs worker count ---
  // Throughput comes from two levels: whole jobs run concurrently on the
  // pool, and each proof's MSM/NTT/quotient stages split across idle
  // workers. Speedup tracks the machine's real core count (on a 1-core
  // host all counts time-share and the curve is flat).
  {
    constexpr std::size_t kSweepEntries = 8;
    constexpr std::size_t kSweepJobs = 8;
    std::printf("\nruntime sweep: %zu concurrent pi_e jobs (%zu entries each), "
                "hardware threads: %u\n",
                kSweepJobs, kSweepEntries, std::thread::hardware_concurrency());
    std::printf("%-10s %-14s %-14s %-10s\n", "workers", "batch time",
                "proofs/sec", "speedup");

    const std::vector<Fr> sdata = make_data(kSweepEntries, rng);
    gadgets::CircuitBuilder sbld = core::build_encryption_circuit(
        sdata, rng.random_fr(), rng.random_fr(), rng.random_fr());
    const auto scs =
        std::make_shared<const plonk::ConstraintSystem>(sbld.cs());
    const std::vector<Fr> switness = sbld.witness();

    struct Row {
      std::size_t workers;
      double secs, pps, speedup;
    };
    std::vector<Row> rows;
    double serial_pps = 0;
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      // configure(N) starts N - 1 workers and counts its caller as the
      // N-th, but this caller only waits on the futures: N + 1 makes
      // `workers` pool threads prove.
      runtime::ThreadPool::instance().configure(workers + 1);
      runtime::ProverService svc(srs);
      svc.keys_for("pi_e/sweep", *scs);  // preprocessing paid once, up front
      Stopwatch sw;
      std::vector<std::future<runtime::ProveOutcome>> futures;
      futures.reserve(kSweepJobs);
      for (std::size_t j = 0; j < kSweepJobs; ++j) {
        runtime::ProofJob job;
        job.circuit_id = "pi_e/sweep";
        job.cs = scs;
        job.witness = switness;
        job.rng = crypto::Drbg("sweep-job", 1000 + j);
        futures.push_back(svc.submit(std::move(job)));
      }
      std::size_t ok = 0;
      for (auto& f : futures) {
        if (f.get().proof) ++ok;
      }
      const double secs = sw.seconds();
      const double pps = static_cast<double>(ok) / secs;
      if (workers == 1) serial_pps = pps;
      const double speedup = serial_pps > 0 ? pps / serial_pps : 0;
      rows.push_back({workers, secs, pps, speedup});
      std::printf("%-10zu %-14s %-14.2f %-10.2f\n", workers,
                  fmt_seconds(secs).c_str(), pps, speedup);
      if (ok != kSweepJobs) std::printf("  WARNING: %zu jobs failed\n",
                                        kSweepJobs - ok);
    }
    runtime::ThreadPool::instance().configure(
        std::max(1u, std::thread::hardware_concurrency()));

    std::ofstream json("BENCH_runtime.json");
    json << "{\n  \"bench\": \"runtime_proofgen_sweep\",\n"
         << "  \"circuit\": \"pi_e/" << kSweepEntries << "\",\n"
         << "  \"jobs\": " << kSweepJobs << ",\n"
         << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
         << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      json << "    {\"workers\": " << rows[i].workers
           << ", \"batch_seconds\": " << rows[i].secs
           << ", \"proofs_per_sec\": " << rows[i].pps
           << ", \"speedup_vs_serial\": " << rows[i].speedup << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("wrote BENCH_runtime.json\n");
  }

  std::printf("\nshape check: pi_e and pi_t grow ~linearly in entries; pi_k is\n");
  std::printf("flat, matching Fig. 6. Note: the paper's pi_t << pi_e gap comes\n");
  std::printf("from CP-NIZK commitment sharing (LegoSNARK-style linked\n");
  std::printf("commitments); we recompute Poseidon commitments in-circuit, so\n");
  std::printf("our pi_t costs about one pi_e at equal size (see EXPERIMENTS.md).\n");
  return 0;
}
