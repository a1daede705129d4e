// Workload `audit`: auditors check traceable proof chains; no proving
// and no transactions happen in the timed loop.
//
// Set-up publishes two source assets and derives a provenance catalog
// from them, reaching chain depths 1 to 3:
//
//   S1 --duplicate--> D --aggregate(D, S2)--> G --partition(2,2)--> P1, P2
//
// The timed loop runs one closed-loop auditor per runtime pool thread
// (ThreadPool::parallel_map). In each round every auditor calls
// verify_provenance_chain on the derived tokens D, G, P1, P2 (3, 6, 8
// and 8 plonk verifications), starting at a different one, so all
// auditors do the same work. Whole rounds run while the next one fits in
// the measuring time (at least one). A single auditor's speed swung by
// about 30% between runs on a shared 4-vCPU host; four of them average
// the per-core swings to about 6%.
//
// After the loop a fixed set of forged probes goes through the same
// public APIs (plonk::verify with statements rebuilt from chain and
// storage, Proof::from_bytes, verify_provenance_chain) and every one of
// them must be rejected.
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "core/exchange.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::e2e {

namespace {

constexpr std::size_t kMaxConstraints = 1 << 13;  // fits every catalog shape
constexpr std::size_t kSetups = 2;
constexpr std::size_t kSourceSize = 2;

struct Catalog {
  std::unique_ptr<core::ZkdetSystem> sys;
  std::unique_ptr<core::TransformationProtocol> tp;
  crypto::KeyPair owner;
  core::OwnedAsset s1, s2, d, g, p1, p2;
  // Verification targets, round-robin: depth 1, 2, 3, 3.
  std::vector<std::uint64_t> targets;
};

std::vector<ff::Fr> random_data(crypto::Drbg& rng, std::size_t n) {
  std::vector<ff::Fr> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.random_fr());
  return out;
}

template <typename T>
T need(std::optional<T> v, const char* what) {
  if (!v) throw std::runtime_error(std::string("catalog build: ") + what);
  return std::move(*v);
}

Catalog build_catalog(const Options& opt) {
  Catalog c;
  // Memory-only chain: the audit loop never writes, and the catalog
  // build's few mints are set-up, not the measured path.
  c.sys = std::make_unique<core::ZkdetSystem>(kMaxConstraints, opt.seed);
  c.tp = std::make_unique<core::TransformationProtocol>(*c.sys);
  crypto::Drbg rng("e2e-audit-catalog", opt.seed);
  c.owner = crypto::KeyPair::generate(rng);
  c.sys->chain().create_account(c.owner, 1'000'000'000);
  core::TransformationProtocol& tp = *c.tp;
  c.s1 = need(tp.publish(c.owner, random_data(rng, kSourceSize)), "publish S1");
  c.s2 = need(tp.publish(c.owner, random_data(rng, kSourceSize)), "publish S2");
  c.d = need(tp.duplicate(c.owner, c.s1), "duplicate");
  const std::vector<core::OwnedAsset> srcs = {c.d, c.s2};
  c.g = need(tp.aggregate(c.owner, srcs), "aggregate");
  auto parts = need(tp.partition(c.owner, c.g, {2, 2}), "partition");
  c.p1 = parts.at(0);
  c.p2 = parts.at(1);
  c.targets = {c.d.token_id, c.g.token_id, c.p1.token_id, c.p2.token_id};
  return c;
}

// plonk::verify calls one verify_provenance_chain(id) makes on success:
// one pi_e per token in the chain plus one pi_t per derived token.
std::uint64_t verifies_in_chain(core::ZkdetSystem& sys, std::uint64_t id) {
  chain::DataNft& nft = sys.nft();
  std::vector<std::uint64_t> all = nft.provenance(id);
  all.push_back(id);
  std::uint64_t n = 0;
  for (const std::uint64_t t : all) {
    n += 1;
    if (nft.token(t)->formula != chain::Formula::kGenesis) n += 1;
  }
  return n;
}

// The public pi_e statement of `id`, rebuilt from chain and storage the
// way any third party would: (nonce, c_s, ct...).
std::vector<ff::Fr> encryption_statement(Catalog& c, std::uint64_t id) {
  const core::EncryptionRecord* rec = c.tp->encryption_record(id);
  const auto info = c.sys->nft().token(id);
  if (rec == nullptr || !info) throw std::runtime_error("no pi_e record");
  const auto blob = c.sys->storage().get(rec->data_cid);
  const auto ct = blob ? storage::blob_to_dataset(*blob) : std::nullopt;
  if (!ct) throw std::runtime_error("ciphertext unreadable");
  std::vector<ff::Fr> publics = {rec->nonce, info->data_commitment};
  publics.insert(publics.end(), ct->begin(), ct->end());
  return publics;
}

ff::Fr commitment(Catalog& c, std::uint64_t id) {
  return c.sys->nft().token(id)->data_commitment;
}

bool verify_with(Catalog& c, const std::string& shape,
                 const std::vector<ff::Fr>& publics, const plonk::Proof& proof) {
  const plonk::KeyPairResult* keys = c.sys->find_keys(shape);
  return keys != nullptr && plonk::verify(keys->vk, publics, proof);
}

struct Probe {
  const char* name;
  bool accepted;
};

// Forged probes: each is a statement/proof pair an honest verifier must
// reject. `inject_accepted` adds an honest pair posing as a forgery.
std::vector<Probe> run_probes(Catalog& c, bool inject_accepted) {
  std::vector<Probe> out;
  const core::EncryptionRecord& e_p1 = *c.tp->encryption_record(c.p1.token_id);
  const core::EncryptionRecord& e_s1 = *c.tp->encryption_record(c.s1.token_id);
  const core::TransformRecord& t_g = *c.tp->transform_record(c.g.token_id);
  const core::TransformRecord& t_d = *c.tp->transform_record(c.d.token_id);

  // 1. A valid pi_e checked against a wrong public input (one
  //    ciphertext entry changed).
  auto publics = encryption_statement(c, c.p1.token_id);
  publics.back() = publics.back() + ff::Fr::one();
  out.push_back({"pi_e with a tampered ciphertext entry",
                 verify_with(c, e_p1.shape_id, publics, e_p1.proof)});

  // 2. S1's pi_e presented for S2's statement (same shape).
  out.push_back({"pi_e of another token",
                 verify_with(c, e_s1.shape_id,
                             encryption_statement(c, c.s2.token_id),
                             e_s1.proof)});

  // 3. The aggregation pi_t with its two sources swapped.
  out.push_back({"pi_t(aggregate) with sources swapped",
                 verify_with(c, t_g.shape_id,
                             {commitment(c, c.s2.token_id),
                              commitment(c, c.d.token_id),
                              commitment(c, c.g.token_id)},
                             t_g.proof)});

  // 4. The duplication pi_t claiming a different derived commitment.
  out.push_back({"pi_t(duplicate) for a foreign derived commitment",
                 verify_with(c, t_d.shape_id,
                             {commitment(c, c.s1.token_id),
                              commitment(c, c.g.token_id)},
                             t_d.proof)});

  // 5. P1's pi_e with one byte of an opening evaluation flipped; a
  //    decode failure counts as rejection.
  auto bytes = e_p1.proof.to_bytes();
  bytes[bytes.size() - 7] ^= 0x01;
  const auto mangled = plonk::Proof::from_bytes(bytes);
  out.push_back({"pi_e with a flipped proof byte",
                 mangled.has_value() &&
                     verify_with(c, e_p1.shape_id,
                                 encryption_statement(c, c.p1.token_id),
                                 *mangled)});

  // 6. A provenance chain for a token that was never minted.
  out.push_back({"chain of an unminted token",
                 c.tp->verify_provenance_chain(c.p2.token_id + 1000)});

  if (inject_accepted) {
    out.push_back({"honest chain posing as a forgery",
                   c.tp->verify_provenance_chain(c.d.token_id)});
  }
  return out;
}

}  // namespace

void run_audit(const Options& opt, Result& res) {
  Tracer tr(opt.trace);

  // --- set-up, repeated; the last catalog is kept ----------------------
  Report rep;
  rep.workload = "audit";
  Catalog cat;
  runtime::StatsSnapshot setup_delta;
  for (std::size_t k = 0; k < kSetups; ++k) {
    cat = Catalog{};
    const auto before = runtime::stats();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    cat = build_catalog(opt);
    rep.setup_s.add(seconds_since(t0));
    rep.setup_cpu_s.add(process_cpu_s() - cpu0);
    setup_delta = delta(before, runtime::stats());
  }

  // --- timed loop ------------------------------------------------------
  tr.watch(nullptr, &cat.sys->chain());
  runtime::ThreadPool& pool = runtime::ThreadPool::instance();
  const std::size_t auditors = pool.concurrency();
  const std::size_t targets = cat.targets.size();
  std::uint64_t verifies_per_pass = 0;  // one auditor, all targets
  for (const std::uint64_t id : cat.targets) {
    verifies_per_pass += verifies_in_chain(*cat.sys, id);
  }
  // Each call's CPU time is read on the auditor's own thread, so pool
  // workers idling between rounds do not count (see ThreadPool in
  // workload_transfer.cpp).
  struct Check {
    std::uint64_t id = 0;
    bool ok = false;
    Clock::time_point start, end;
    double cpu_s = 0;
  };
  Samples round_rate, round_cpu;
  std::uint64_t verify_calls = 0, round_id = 0;
  sample_reference(rep);
  const auto before = runtime::stats();
  const auto t_loop = Clock::now();
  const double cpu_loop = process_cpu_s();
  double last_round = 0;
  do {
    const auto t_round = Clock::now();
    double round_cpu_s = 0;
    Tracer::Span round = tr.span("audit.round", ++round_id);
    const auto checks = pool.parallel_map<std::vector<Check>>(
        auditors, [&](std::size_t a) {
          std::vector<Check> out;
          for (std::size_t k = 0; k < targets; ++k) {
            Check c;
            c.id = cat.targets[(a + k) % targets];
            c.start = Clock::now();
            const double cpu0 = thread_cpu_s();
            c.ok = cat.tp->verify_provenance_chain(c.id);
            c.cpu_s = thread_cpu_s() - cpu0;
            c.end = Clock::now();
            out.push_back(c);
          }
          return out;
        });
    for (const auto& per_auditor : checks) {
      for (const Check& c : per_auditor) {
        tr.record("core.verify_provenance_chain", c.id, c.start, c.end);
        round_cpu_s += c.cpu_s;
        ++rep.ops;
        ++res.attempted;
        if (!c.ok) ++res.failed;
        res.gate(c.ok, "audit: honest chain of token " + std::to_string(c.id) +
                           " did not verify");
      }
    }
    round.end();
    last_round = seconds_since(t_round);
    const auto chains = static_cast<double>(auditors * targets);
    round_rate.add(chains / last_round);
    round_cpu.add(round_cpu_s / chains);
    verify_calls += auditors * verifies_per_pass;
  } while (seconds_since(t_loop) + last_round <= opt.seconds);
  const auto d = delta(before, runtime::stats());
  rep.busy_cores = (process_cpu_s() - cpu_loop) / seconds_since(t_loop);
  sample_reference(rep);

  // --- forged probes ----------------------------------------------------
  for (const Probe& p : run_probes(cat, opt.inject_accepted_probe)) {
    ++res.attempted;
    if (p.accepted) ++res.failed;
    res.gate(!p.accepted, std::string("audit: forged probe accepted: ") +
                              p.name);
  }

  res.note("audit: " + std::to_string(auditors) + " auditors, " +
           std::to_string(verify_calls) + " plonk verifications in " +
           std::to_string(rep.ops) + " chain verifications over depths 1-3");
  rep.op_per_s = round_rate.median();
  rep.op_cpu_s = round_cpu.median();
  // What one auditor waits for one chain verification.
  rep.layer["wall.audit_chain_s"] =
      static_cast<double>(auditors) / round_rate.median();
  if (opt.trace) {
    counter_layer_metrics(rep.layer, d, rep.ops, verify_calls, 0, 0);
    rep.layer["plonk.preprocess_cpu_s"] =
        static_cast<double>(setup_delta.preprocess_ns) * 1e-9;
  }
  finish(opt, tr, rep, res);
}

}  // namespace zkdet::e2e
