#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include <time.h>

#include "runtime/thread_pool.hpp"

namespace zkdet::e2e {

namespace {

std::vector<double> sorted(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs;
}

// JSON number with all its digits (the result line must not round
// timings into identical strings).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

double ratio(double num_, double den) { return den > 0 ? num_ / den : 0.0; }

volatile std::uint64_t reference_sink = 0;

}  // namespace

double Samples::median() const {
  if (xs_.empty()) return 0;
  const auto s = sorted(xs_);
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Samples::percentile(double p) const {
  if (xs_.empty()) return 0;
  const auto s = sorted(xs_);
  const double rank = std::ceil(p / 100.0 * static_cast<double>(s.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return s[std::min(idx, s.size() - 1)];
}

double Samples::max() const {
  return xs_.empty() ? 0 : *std::max_element(xs_.begin(), xs_.end());
}

double Samples::sum() const {
  return std::accumulate(xs_.begin(), xs_.end(), 0.0);
}

void Result::gate(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::note(const std::string& text) const {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

std::string Result::json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    o << (i ? ", " : "") << quoted(m.name) << ": {\"value\": " << num(m.value)
      << ", \"unit\": " << quoted(m.unit) << "}";
  }
  o << "}}";
  return o.str();
}

runtime::StatsSnapshot delta(const runtime::StatsSnapshot& a,
                             const runtime::StatsSnapshot& b) {
  runtime::StatsSnapshot d = b;
#define ZKDET_E2E_SUB(f) d.f = b.f - a.f
  ZKDET_E2E_SUB(jobs_submitted);
  ZKDET_E2E_SUB(jobs_completed);
  ZKDET_E2E_SUB(jobs_failed);
  ZKDET_E2E_SUB(key_cache_hits);
  ZKDET_E2E_SUB(key_cache_misses);
  ZKDET_E2E_SUB(key_cache_evictions);
  ZKDET_E2E_SUB(proofs_verified);
  ZKDET_E2E_SUB(batch_verifications);
  ZKDET_E2E_SUB(batch_fold_checks);
  ZKDET_E2E_SUB(batch_entries_folded);
  ZKDET_E2E_SUB(batch_invalid_attributed);
  ZKDET_E2E_SUB(settle_batches);
  ZKDET_E2E_SUB(settle_claims);
  ZKDET_E2E_SUB(parallel_regions);
  ZKDET_E2E_SUB(chunks_executed);
  ZKDET_E2E_SUB(chunks_stolen);
  ZKDET_E2E_SUB(txpool_submitted);
  ZKDET_E2E_SUB(txpool_rejected);
  ZKDET_E2E_SUB(txpool_replaced);
  ZKDET_E2E_SUB(txpool_batches_sealed);
  ZKDET_E2E_SUB(txpool_txs_executed);
  ZKDET_E2E_SUB(txpool_conflict_aborts);
  ZKDET_E2E_SUB(repl_records_shipped);
  ZKDET_E2E_SUB(repl_retransmits);
  ZKDET_E2E_SUB(repl_snapshots_shipped);
  ZKDET_E2E_SUB(repl_records_applied);
  ZKDET_E2E_SUB(repl_failstops);
  ZKDET_E2E_SUB(rpc_admitted);
  ZKDET_E2E_SUB(rpc_shed);
  ZKDET_E2E_SUB(rpc_batched_proves);
  ZKDET_E2E_SUB(msm_ns);
  ZKDET_E2E_SUB(ntt_ns);
  ZKDET_E2E_SUB(quotient_ns);
  ZKDET_E2E_SUB(preprocess_ns);
  ZKDET_E2E_SUB(prove_ns);
  ZKDET_E2E_SUB(verify_ns);
#undef ZKDET_E2E_SUB
  return d;
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double reference_cpu_s() {
  const double t0 = thread_cpu_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t y = 0x243f6a8885a308d3ULL;
  for (int i = 0; i < 10'000'000; ++i) {
    const unsigned __int128 m = static_cast<unsigned __int128>(x) * y;
    x = static_cast<std::uint64_t>(m) ^ static_cast<std::uint64_t>(m >> 64);
    y += x | 1;
  }
  const double t1 = thread_cpu_s();
  reference_sink = x + y;  // keeps the chain from being optimised away
  return t1 - t0;
}

void sample_reference(Report& rep, int n) {
  for (int i = 0; i < n; ++i) rep.ref_s.add(reference_cpu_s());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

GaugeSampler::GaugeSampler() {
  thread_ = std::thread([this] {
    const auto raise = [](std::atomic<std::uint64_t>& m, std::uint64_t v) {
      if (v > m.load(std::memory_order_relaxed)) {
        m.store(v, std::memory_order_relaxed);
      }
    };
    while (!stop_.load(std::memory_order_relaxed)) {
      raise(txpool_max_, runtime::counters::txpool_queue_depth.load(
                             std::memory_order_relaxed));
      raise(rpc_max_, runtime::counters::rpc_queue_depth.load(
                          std::memory_order_relaxed));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
}

GaugeSampler::~GaugeSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

Counters Tracer::snapshot() const {
  Counters c;
  c.rt = runtime::stats();
  if (ledger_ != nullptr) c.ledger_records = ledger_->stats().appended_records;
  if (chain_ != nullptr) c.chain_height = chain_->height();
  return c;
}

Tracer::Span Tracer::span(const char* name, std::uint64_t op_id) {
  if (!enabled_) return Span(nullptr, 0);
  const auto t_in = Clock::now();
  Rec r;
  r.name = name;
  r.op_id = op_id;
  r.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  r.has_counters = true;
  r.at_start = snapshot();
  spans_.push_back(std::move(r));
  open_.push_back(spans_.size() - 1);
  spans_.back().start = Clock::now();
  self_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          spans_.back().start - t_in)
          .count());
  return Span(this, spans_.size() - 1);
}

void Tracer::Span::end() {
  if (tr_ == nullptr) return;
  Tracer* tr = tr_;
  tr_ = nullptr;
  tr->close(index_);
}

void Tracer::close(std::size_t index) {
  const auto t_end = Clock::now();
  Rec& r = spans_[index];
  r.end = t_end;
  const Counters now = snapshot();
  r.diff.rt = delta(r.at_start.rt, now.rt);
  r.diff.ledger_records = now.ledger_records - r.at_start.ledger_records;
  r.diff.chain_height = now.chain_height - r.at_start.chain_height;
  Agg& a = agg_[r.name];
  a.total += std::chrono::duration<double>(r.end - r.start).count();
  ++a.count;
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it);
  self_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           t_end)
          .count());
}

void Tracer::record(const char* name, std::uint64_t op_id,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  const auto t_in = Clock::now();
  Rec r;
  r.name = name;
  r.op_id = op_id;
  r.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  r.start = start;
  r.end = end;
  Agg& a = agg_[name];
  a.total += std::chrono::duration<double>(end - start).count();
  ++a.count;
  spans_.push_back(std::move(r));
  self_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t_in)
          .count());
}

double Tracer::total_s(const std::string& name) const {
  const auto it = agg_.find(name);
  return it == agg_.end() ? 0 : it->second.total;
}

std::size_t Tracer::count(const std::string& name) const {
  const auto it = agg_.find(name);
  return it == agg_.end() ? 0 : it->second.count;
}

double Tracer::mean_s(const std::string& name) const {
  return ratio(total_s(name), static_cast<double>(count(name)));
}

bool Tracer::write(const std::string& path,
                   const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  };
  out << "{\"header\": " << header_json << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    out << (i ? ",\n" : "") << "{\"i\": " << i << ", \"name\": \"" << r.name
        << "\", \"id\": " << r.op_id << ", \"parent\": " << r.parent
        << ", \"start_us\": " << num(us(r.start))
        << ", \"end_us\": " << num(us(r.end));
    if (r.has_counters) {
      const auto& d = r.diff.rt;
      out << ", \"deltas\": {\"msm_ns\": " << d.msm_ns
          << ", \"ntt_ns\": " << d.ntt_ns << ", \"prove_ns\": " << d.prove_ns
          << ", \"quotient_ns\": " << d.quotient_ns
          << ", \"preprocess_ns\": " << d.preprocess_ns
          << ", \"verify_ns\": " << d.verify_ns
          << ", \"prove_jobs\": " << d.jobs_completed
          << ", \"key_cache_hits\": " << d.key_cache_hits
          << ", \"key_cache_misses\": " << d.key_cache_misses
          << ", \"chunks_executed\": " << d.chunks_executed
          << ", \"chunks_stolen\": " << d.chunks_stolen
          << ", \"fold_checks\": " << d.batch_fold_checks
          << ", \"fold_entries\": " << d.batch_entries_folded
          << ", \"txpool_batches\": " << d.txpool_batches_sealed
          << ", \"txpool_txs\": " << d.txpool_txs_executed
          << ", \"conflict_aborts\": " << d.txpool_conflict_aborts
          << ", \"repl_shipped\": " << d.repl_records_shipped
          << ", \"repl_retransmits\": " << d.repl_retransmits
          << ", \"rpc_admitted\": " << d.rpc_admitted
          << ", \"rpc_shed\": " << d.rpc_shed
          << ", \"ledger_records\": " << r.diff.ledger_records
          << ", \"blocks\": " << r.diff.chain_height << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> table = {
      {"core.publish_s", "s"},
      {"core.offer_s", "s"},
      {"core.verify_offer_s", "s"},
      {"core.lock_s", "s"},
      {"core.settle_s", "s"},
      {"core.recover_s", "s"},
      {"core.steps_share", "ratio"},
      {"plonk.prove_cpu_s", "cpu-s"},
      {"plonk.quotient_cpu_s", "cpu-s"},
      {"plonk.preprocess_cpu_s", "cpu-s"},
      {"plonk.verify_s", "s"},
      {"plonk.fold_entries", "count"},
      {"plonk.fold_checks", "count"},
      {"plonk.fold_entries_per_check", "ratio"},
      {"ec.msm_cpu_s", "cpu-s"},
      {"ff.ntt_cpu_s", "cpu-s"},
      {"runtime.prove_jobs", "count"},
      {"runtime.key_cache_lookups", "count"},
      {"runtime.key_cache_hit_ratio", "ratio"},
      {"runtime.chunks_executed", "count"},
      {"runtime.steal_ratio", "ratio"},
      {"txpool.batches", "count"},
      {"txpool.occupancy", "tx/batch"},
      {"txpool.conflict_aborts", "count"},
      {"txpool.queue_depth_max", "count"},
      {"chain.blocks_per_op", "blocks/op"},
      {"ledger.records_per_block", "records/block"},
      {"replication.pump_s", "s"},
      {"replication.sync_s", "s"},
      {"replication.retransmits", "count"},
      {"replication.lag_records_max", "records"},
      {"rpc.pump_s", "s"},
      {"rpc.requests_per_round", "req/round"},
      {"rpc.queue_depth_max", "count"},
      {"rpc.shed", "count"},
      {"wall.exchange_s", "s"},
      {"wall.publish_s", "s"},
      {"wall.settle_s", "s"},
      {"wall.audit_chain_s", "s"},
      {"wall.transfer_rps", "req/s"},
      {"wall.transfer_p50_ms", "ms"},
      {"wall.transfer_p98_ms", "ms"},
      {"wall.read_p95_ms", "ms"},
      {"wall.late_ms", "ms"},
      {"wall.op_per_s", "1/s"},
      {"cost.op_cpu_ms", "cpu-ms"},
      {"cost.reference_ms", "cpu-ms"},
      {"cost.busy_cores", "cores"},
      {"cost.setup_cpu_s", "cpu-s"},
      {"trace.op_cpu_norm_ms", "cpu-ms"},
      {"trace.self_s_per_op", "s"},
      {"trace.spans", "count"},
  };
  return table;
}

void counter_layer_metrics(std::map<std::string, double>& out,
                           const runtime::StatsSnapshot& d, std::uint64_t ops,
                           std::uint64_t verify_calls, std::uint64_t blocks,
                           std::uint64_t records) {
  const auto per = [](std::uint64_t ns, std::uint64_t n) {
    return ratio(static_cast<double>(ns) * 1e-9, static_cast<double>(n));
  };
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  out["plonk.prove_cpu_s"] = per(d.prove_ns, d.jobs_completed);
  out["plonk.quotient_cpu_s"] = per(d.quotient_ns, d.jobs_completed);
  out["plonk.verify_s"] = per(d.verify_ns, verify_calls);
  out["plonk.fold_entries"] = f(d.batch_entries_folded);
  out["plonk.fold_checks"] = f(d.batch_fold_checks);
  out["plonk.fold_entries_per_check"] =
      ratio(f(d.batch_entries_folded), f(d.batch_fold_checks));
  out["ec.msm_cpu_s"] = per(d.msm_ns, ops);
  out["ff.ntt_cpu_s"] = per(d.ntt_ns, ops);
  out["runtime.prove_jobs"] = f(d.jobs_completed);
  out["runtime.key_cache_lookups"] = f(d.key_cache_hits + d.key_cache_misses);
  out["runtime.key_cache_hit_ratio"] =
      ratio(f(d.key_cache_hits), f(d.key_cache_hits + d.key_cache_misses));
  out["runtime.chunks_executed"] = f(d.chunks_executed);
  out["runtime.steal_ratio"] = ratio(f(d.chunks_stolen), f(d.chunks_executed));
  out["txpool.batches"] = f(d.txpool_batches_sealed);
  out["txpool.occupancy"] =
      ratio(f(d.txpool_txs_executed), f(d.txpool_batches_sealed));
  out["txpool.conflict_aborts"] = f(d.txpool_conflict_aborts);
  out["chain.blocks_per_op"] = ratio(f(blocks), f(ops));
  out["ledger.records_per_block"] = ratio(f(records), f(blocks));
  out["replication.retransmits"] = f(d.repl_retransmits);
  out["rpc.shed"] = f(d.rpc_shed);
}

void finish(const Options& opt, const Tracer& tr, Report& rep, Result& res) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(rep.ops, 1));
  std::ostringstream wall;
  for (const auto& [name, value] : rep.layer) {
    if (name.rfind("wall.", 0) == 0) wall << " " << name << "=" << num(value);
  }
  const double op_norm_s =
      rep.op_cpu_s * kReferenceNominalS / rep.ref_s.median();
  res.note(std::string(rep.workload) + ": " + std::to_string(rep.ops) +
           " operations on " +
           std::to_string(runtime::ThreadPool::instance().concurrency()) +
           " pool threads, op_per_s=" + num(rep.op_per_s) +
           ", op_cpu_ms=" + num(rep.op_cpu_s * 1e3) +
           ", reference_ms=" + num(rep.ref_s.median() * 1e3) +
           ", op_cpu_norm_ms=" + num(op_norm_s * 1e3) +
           ", busy_cores=" + num(rep.busy_cores) + ", " +
           std::to_string(rep.setup_s.size()) +
           " set-ups, setup_s=" + num(rep.setup_s.median()));
  res.note("wall clock:" + wall.str());
  if (!opt.trace) {
    res.metric("setup_s", rep.setup_s.median(), "s");
    res.metric("peak_rss_mb",
               rep.peak_rss_mb > 0 ? rep.peak_rss_mb : peak_rss_mb(), "MiB");
    res.metric("op_cpu_norm_ms", op_norm_s * 1e3, "cpu-ms");
    return;
  }
  rep.layer["cost.op_cpu_ms"] = rep.op_cpu_s * 1e3;
  rep.layer["cost.reference_ms"] = rep.ref_s.median() * 1e3;
  rep.layer["wall.op_per_s"] = rep.op_per_s;
  rep.layer["cost.busy_cores"] = rep.busy_cores;
  rep.layer["cost.setup_cpu_s"] = rep.setup_cpu_s.median();
  rep.layer["trace.op_cpu_norm_ms"] = op_norm_s * 1e3;
  rep.layer["trace.self_s_per_op"] = tr.self_s() / ops;
  rep.layer["trace.spans"] = static_cast<double>(tr.spans());
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = rep.layer.find(m.name);
    res.metric(m.name, it == rep.layer.end() ? 0.0 : it->second, m.unit);
  }
  res.note("metrics ending in _cpu_s or _cpu_ms, or in unit cpu-s or "
           "cpu-ms, add up time over all threads: CPU time, not wall time");
  if (!opt.trace_out.empty()) {
    const bool ok = tr.write(
        opt.trace_out, std::string("{\"workload\": \"") + rep.workload +
                           "\", \"seed\": " + std::to_string(opt.seed) + "}");
    res.gate(ok, "cannot write the trace to " + opt.trace_out);
  }
}

}  // namespace zkdet::e2e
