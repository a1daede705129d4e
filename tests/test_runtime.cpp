// Concurrent proving runtime: thread pool semantics, proof determinism
// across worker counts, job-service stress, key-cache accounting, and
// batched verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <future>
#include <thread>
#include <numeric>
#include <vector>

#include "core/circuits.hpp"
#include "crypto/rng.hpp"
#include "ec/msm.hpp"
#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ff/ntt.hpp"
#include "oracles/msm.hpp"
#include "plonk/plonk.hpp"
#include "runtime/prover_service.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace zkdet;
using ff::Fr;
using runtime::ProofJob;
using runtime::ProverService;
using runtime::ThreadPool;

// Shared SRS: large enough for the pi_k circuit family used throughout.
const plonk::Srs& srs() {
  static crypto::Drbg rng("test-runtime-srs", 99);
  static const plonk::Srs s = plonk::Srs::setup((1 << 12) + 16, rng);
  return s;
}

gadgets::CircuitBuilder key_circuit(std::uint64_t key, std::uint64_t blinder,
                                    std::uint64_t k_v) {
  return core::build_key_circuit(Fr::from_u64(key), Fr::from_u64(blinder),
                                 Fr::from_u64(k_v));
}

// Every test leaves the pool single-threaded so suites stay independent.
class RuntimeTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::instance().configure(1); }
};

TEST_F(RuntimeTest, ParallelForCoversRangeExactlyOnce) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool::instance().configure(workers);
    const std::size_t n = 10'007;  // prime: chunks never divide evenly
    std::vector<int> hits(n, 0);
    ThreadPool::instance().parallel_for(
        n, 7, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) ++hits[i];
        });
    const long total = std::accumulate(hits.begin(), hits.end(), 0L);
    EXPECT_EQ(total, static_cast<long>(n)) << "workers=" << workers;
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }))
        << "workers=" << workers;
  }
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Regression: push() used to enqueue a task before counting it, so a
// worker that took the task in between left `pending` one too high for
// good and idle workers spun instead of sleeping.
TEST_F(RuntimeTest, PendingDrainsToZeroAndIdleWorkersSleep) {
  ThreadPool& pool = ThreadPool::instance();
  pool.configure(4);
  // Bursts of 1..64 tasks for about a second, each drained before the
  // next: the end of a burst, when workers have just emptied the deques,
  // is when a task could be taken before it was counted.
  std::atomic<int> done{0};
  int submitted = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
  for (int b = 0; std::chrono::steady_clock::now() < deadline; ++b) {
    for (int i = 0; i <= b % 64; ++i, ++submitted) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    while (done.load(std::memory_order_relaxed) < submitted) {
      std::this_thread::yield();
    }
    ASSERT_EQ(pool.pending_tasks(), 0u) << "after burst " << b;
  }
  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double idle_cpu = process_cpu_seconds() - cpu0;
  // Three spinning workers would burn ~0.9 s here.
  EXPECT_LT(idle_cpu, 0.1) << "idle workers are not sleeping";
}

TEST_F(RuntimeTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool::instance().configure(4);
  const std::size_t outer = 8, inner = 1000;
  std::vector<std::uint64_t> sums(outer, 0);
  ThreadPool::instance().parallel_for(
      outer, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t o = b; o < e; ++o) {
          std::vector<std::uint64_t> parts(inner, 0);
          ThreadPool::instance().parallel_for(
              inner, 64, [&](std::size_t ib, std::size_t ie) {
                for (std::size_t i = ib; i < ie; ++i) parts[i] = i;
              });
          sums[o] = std::accumulate(parts.begin(), parts.end(), 0ull);
        }
      });
  for (std::size_t o = 0; o < outer; ++o) {
    EXPECT_EQ(sums[o], inner * (inner - 1) / 2);
  }
}

TEST_F(RuntimeTest, ParallelForPropagatesExceptions) {
  ThreadPool::instance().configure(4);
  EXPECT_THROW(ThreadPool::instance().parallel_for(
                   100, 1,
                   [&](std::size_t b, std::size_t) {
                     if (b == 42) throw std::runtime_error("chunk failure");
                   }),
               std::runtime_error);
}

TEST_F(RuntimeTest, MsmOnPoolMatchesNaive) {
  ThreadPool::instance().configure(4);
  crypto::Drbg rng("msm-pool", 5);
  const std::size_t n = 600;  // above the serial-fallback threshold
  std::vector<Fr> scalars(n);
  std::vector<ec::G1> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    scalars[i] = rng.random_fr();
    points[i] = ec::g1_mul_generator(rng.random_fr());
  }
  EXPECT_EQ(ec::msm(scalars, points), oracle::msm_naive(scalars, points));
}

TEST_F(RuntimeTest, NttIdenticalAcrossWorkerCounts) {
  crypto::Drbg rng("ntt-workers", 6);
  const std::size_t n = 1ull << 13;  // above the parallel threshold
  std::vector<Fr> input(n);
  for (auto& x : input) x = rng.random_fr();
  const ff::EvaluationDomain dom(n);

  ThreadPool::instance().configure(1);
  std::vector<Fr> serial = input;
  dom.coset_fft(serial, Fr::generator());
  for (const std::size_t workers : {2u, 8u}) {
    ThreadPool::instance().configure(workers);
    std::vector<Fr> par = input;
    dom.coset_fft(par, Fr::generator());
    EXPECT_EQ(par, serial) << "workers=" << workers;
    dom.coset_ifft(par, Fr::generator());
    EXPECT_EQ(par, input) << "round-trip, workers=" << workers;
  }
}

// The acceptance property: the same (circuit, witness, job rng) yields
// byte-identical proofs no matter how many workers run the stages.
TEST_F(RuntimeTest, ProofsByteIdenticalAtOneTwoEightWorkers) {
  const gadgets::CircuitBuilder bld = key_circuit(11, 22, 33);
  std::vector<std::uint8_t> reference;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool::instance().configure(workers);
    ProverService svc(srs());
    ProofJob job;
    job.circuit_id = "pi_k";
    job.cs = std::make_shared<const plonk::ConstraintSystem>(bld.cs());
    job.witness = bld.witness();
    job.rng = crypto::Drbg(42);
    const auto proof = svc.prove(job).proof;
    ASSERT_TRUE(proof.has_value()) << "workers=" << workers;
    const auto keys = svc.find_keys("pi_k");
    ASSERT_NE(keys, nullptr);
    EXPECT_TRUE(plonk::verify(
        keys->vk, bld.cs().extract_public_inputs(bld.witness()), *proof));
    const auto bytes = proof->to_bytes();
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
    }
  }
}

TEST_F(RuntimeTest, StressThirtyTwoConcurrentJobs) {
  ThreadPool::instance().configure(8);
  runtime::reset_stats();
  ProverService svc(srs());

  constexpr std::size_t kJobs = 32;
  std::vector<gadgets::CircuitBuilder> builders;
  builders.reserve(kJobs);
  std::vector<std::future<runtime::ProveOutcome>> futures;
  futures.reserve(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    // Two circuit ids, alternating: exercises both cache contention on a
    // shared shape and concurrent first-use preprocessing.
    builders.push_back(key_circuit(100 + j, 200 + j, 300 + j));
    ProofJob job;
    job.circuit_id = (j % 2 == 0) ? "pi_k/even" : "pi_k/odd";
    job.cs =
        std::make_shared<const plonk::ConstraintSystem>(builders[j].cs());
    job.witness = builders[j].witness();
    job.rng = crypto::Drbg(1000 + j);
    futures.push_back(svc.submit(std::move(job)));
  }
  for (std::size_t j = 0; j < kJobs; ++j) {
    const auto proof = futures[j].get().proof;
    ASSERT_TRUE(proof.has_value()) << "job " << j;
    const auto keys =
        svc.find_keys((j % 2 == 0) ? "pi_k/even" : "pi_k/odd");
    ASSERT_NE(keys, nullptr);
    EXPECT_TRUE(plonk::verify(
        keys->vk, builders[j].cs().extract_public_inputs(builders[j].witness()),
        *proof))
        << "job " << j;
  }

  const auto s = runtime::stats();
  EXPECT_EQ(s.jobs_submitted, kJobs);
  EXPECT_EQ(s.jobs_completed, kJobs);
  EXPECT_EQ(s.jobs_failed, 0u);
  // 32 jobs over 2 circuit ids: exactly 2 preprocessing misses.
  EXPECT_EQ(s.key_cache_misses, 2u);
  EXPECT_EQ(s.key_cache_hits, kJobs - 2);
}

TEST_F(RuntimeTest, KeyCacheHitsMissesAndLookups) {
  ThreadPool::instance().configure(1);
  runtime::reset_stats();
  ProverService svc(srs());

  const auto a = key_circuit(1, 2, 3);
  const auto b = key_circuit(4, 5, 6);
  const auto c = key_circuit(7, 8, 9);

  EXPECT_EQ(svc.find_keys("a"), nullptr);  // lookups never preprocess
  const auto keys_a = svc.keys_for("a", a.cs());  // miss
  EXPECT_NE(keys_a, nullptr);
  EXPECT_EQ(svc.keys_for("a", a.cs()), keys_a);  // hit: the same keys
  EXPECT_NE(svc.keys_for("b", b.cs()), nullptr);  // miss
  EXPECT_NE(svc.keys_for("c", c.cs()), nullptr);  // miss

  EXPECT_EQ(svc.find_keys("a"), keys_a);  // kept: keys are never evicted
  EXPECT_NE(svc.find_keys("b"), nullptr);
  EXPECT_NE(svc.find_keys("c"), nullptr);

  const auto s = runtime::stats();
  EXPECT_EQ(s.key_cache_misses, 3u);
  EXPECT_EQ(s.key_cache_hits, 1u);
}

// prove() retries the transient failure class (an injected worker
// crash) and nothing else; a retried proof is the proof the job would
// have produced without the fault.
TEST_F(RuntimeTest, ProveRetriesOnlyInjectedFaults) {
  ThreadPool::instance().configure(1);
  ProverService svc(srs());
  const gadgets::CircuitBuilder bld = key_circuit(5, 6, 7);
  ProofJob job;
  job.circuit_id = "pi_k";
  job.cs = std::make_shared<const plonk::ConstraintSystem>(bld.cs());
  job.witness = bld.witness();
  job.rng = crypto::Drbg(77);

  const runtime::ProveOutcome clean = svc.prove(job);
  ASSERT_TRUE(clean.proof.has_value());
  EXPECT_EQ(clean.attempts, 1);
  EXPECT_EQ(clean.backoff_us, 0u);
  {
    fault::inject(fault::points::kProverJob, fault::Schedule::once());
    const runtime::ProveOutcome retried = svc.prove(job);
    fault::clear_all();
    ASSERT_TRUE(retried.proof.has_value());
    EXPECT_EQ(retried.error, runtime::ProveError::kNone);
    EXPECT_EQ(retried.attempts, 2);
    EXPECT_GT(retried.backoff_us, 0u);
    EXPECT_EQ(retried.proof->to_bytes(), clean.proof->to_bytes());
  }

  ProofJob unsatisfied = job;
  unsatisfied.witness[0] += Fr::one();  // breaks k_c = k + k_v
  ASSERT_FALSE(bld.cs().is_satisfied(unsatisfied.witness));
  const runtime::ProveOutcome bad = svc.prove(unsatisfied);
  EXPECT_FALSE(bad.proof.has_value());
  EXPECT_EQ(bad.error, runtime::ProveError::kUnsatisfiedWitness);
  EXPECT_EQ(bad.attempts, 1);

  // A service whose SRS is far smaller than the circuit: permanent, and
  // the failed preprocessing leaves nothing cached.
  crypto::Drbg tiny_rng("test-runtime-tiny-srs", 5);
  const plonk::Srs tiny_srs = plonk::Srs::setup(64, tiny_rng);
  ProverService tiny(tiny_srs);
  const runtime::ProveOutcome too_big = tiny.prove(job);
  EXPECT_FALSE(too_big.proof.has_value());
  EXPECT_EQ(too_big.error, runtime::ProveError::kSrsTooSmall);
  EXPECT_EQ(too_big.attempts, 1);
  EXPECT_EQ(tiny.find_keys("pi_k"), nullptr);
  const auto before = runtime::stats();
  EXPECT_EQ(tiny.keys_for("pi_k", bld.cs()), nullptr);
  EXPECT_EQ(tiny.keys_for("pi_k", bld.cs()), nullptr);
  EXPECT_EQ(runtime::stats().key_cache_misses, before.key_cache_misses + 2);
}

TEST_F(RuntimeTest, BatchVerifySharesOnePairingProduct) {
  ThreadPool::instance().configure(2);
  ProverService svc(srs());

  constexpr std::size_t kProofs = 3;
  std::vector<gadgets::CircuitBuilder> builders;
  std::vector<plonk::Proof> proofs;
  std::vector<std::vector<Fr>> publics;
  for (std::size_t j = 0; j < kProofs; ++j) {
    builders.push_back(key_circuit(10 + j, 20 + j, 30 + j));
    ProofJob job;
    job.circuit_id = "pi_k";
    job.cs =
        std::make_shared<const plonk::ConstraintSystem>(builders[j].cs());
    job.witness = builders[j].witness();
    job.rng = crypto::Drbg(7 + j);
    const auto proof = svc.prove(job).proof;
    ASSERT_TRUE(proof.has_value());
    proofs.push_back(*proof);
    publics.push_back(
        builders[j].cs().extract_public_inputs(builders[j].witness()));
  }
  const auto keys = svc.find_keys("pi_k");
  ASSERT_NE(keys, nullptr);

  std::vector<plonk::BatchEntry> entries;
  for (std::size_t j = 0; j < kProofs; ++j) {
    entries.push_back({&keys->vk, &publics[j], &proofs[j]});
  }
  EXPECT_TRUE(plonk::batch_verify(entries));
  EXPECT_TRUE(plonk::batch_verify({}));  // empty batch is vacuous

  // One corrupted statement fails the batch verdict — but only THAT
  // entry, attributed by fold bisection; the others stay valid.
  std::vector<Fr> tampered = publics[1];
  tampered[0] += Fr::one();
  entries[1].public_inputs = &tampered;
  EXPECT_FALSE(plonk::batch_verify(entries));
  const auto before = runtime::stats();
  const auto res = plonk::batch_verify_attributed(entries);
  EXPECT_FALSE(res.all_ok());
  EXPECT_EQ(res.invalid_count(), 1u);
  ASSERT_EQ(res.ok.size(), kProofs);
  EXPECT_TRUE(res.ok[0]);
  EXPECT_FALSE(res.ok[1]);
  EXPECT_TRUE(res.ok[2]);
  const auto after = runtime::stats();
  EXPECT_GT(after.batch_fold_checks, before.batch_fold_checks);
  EXPECT_EQ(after.batch_entries_folded, before.batch_entries_folded + kProofs);
  EXPECT_EQ(after.batch_invalid_attributed,
            before.batch_invalid_attributed + 1);
  EXPECT_EQ(after.proofs_verified, before.proofs_verified + kProofs);
  entries[1].public_inputs = &publics[1];

  // One corrupted proof: same attribution story.
  plonk::Proof bad = proofs[2];
  bad.eval_a += Fr::one();
  entries[2].proof = &bad;
  EXPECT_FALSE(plonk::batch_verify(entries));
  const auto res2 = plonk::batch_verify_attributed(entries);
  EXPECT_TRUE(res2.ok[0]);
  EXPECT_TRUE(res2.ok[1]);
  EXPECT_FALSE(res2.ok[2]);
}

}  // namespace
