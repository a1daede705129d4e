// Workload `exchange`: one seller/buyer pair runs full key-secure
// exchanges back to back (closed loop, one at a time) through core:
//
//   publish -> make_offer -> verify_offer -> lock_payment -> settle
//           -> ReplicaSet::sync() -> recover_data
//
// on a ZkdetSystem with a durable ledger (per-append fsync, data
// directory inside the run directory) and one follower replica.
// Dataset sizes alternate 2, 8, 2, 8, ... so the prover runs at two
// domain sizes; the loop runs whole pairs while the next one fits in the
// measuring time (at least one). Set-up
// builds the system and runs one warm-up exchange of each size, so key
// preprocessing lands in setup_s, not in the timed loop.
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "core/exchange.hpp"

namespace zkdet::e2e {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kMaxConstraints = 1 << 14;  // fits pi_e over 8 entries
constexpr std::size_t kSizes[2] = {2, 8};
constexpr std::size_t kSetups = 2;
constexpr std::uint64_t kStartBalance = 1'000'000'000;

struct Rig {
  std::unique_ptr<core::ZkdetSystem> sys;
  std::unique_ptr<core::TransformationProtocol> tp;
  std::unique_ptr<core::KeySecureExchange> ex;
  crypto::KeyPair seller;
  crypto::KeyPair buyer;
};

struct StepTimes {
  double exchange = 0;
  double publish = 0;
  double settle_replicated = 0;  // settle call until durable + replicated
};

class ExchangeRunner {
 public:
  ExchangeRunner(Rig& rig, Tracer& tr, Result& res, crypto::Drbg& inputs)
      : rig_(rig), tr_(tr), res_(res), inputs_(inputs) {}

  // One full exchange over a fresh dataset of `size` entries; every
  // step's output is checked. Returns the step timings.
  StepTimes run(std::size_t size, std::uint64_t op_id) {
    core::ZkdetSystem& sys = *rig_.sys;
    std::vector<ff::Fr> data;
    for (std::size_t i = 0; i < size; ++i) data.push_back(inputs_.random_fr());
    const std::uint64_t amount = 1 + inputs_() % 1000;
    const chain::Address seller_addr = crypto::address_of(rig_.seller.pk);
    const chain::Address buyer_addr = crypto::address_of(rig_.buyer.pk);
    StepTimes t;

    const auto t0 = Clock::now();
    Tracer::Span whole = tr_.span("exchange", op_id);
    std::optional<core::OwnedAsset> asset;
    {
      Tracer::Span s = tr_.span("core.publish", op_id);
      asset = rig_.tp->publish(rig_.seller, data);
    }
    t.publish = seconds_since(t0);
    res_.gate(asset.has_value(), "exchange: publish failed");
    if (!asset) return t;

    std::optional<core::Offer> offer;
    {
      Tracer::Span s = tr_.span("core.offer", op_id);
      offer = rig_.ex->make_offer(*asset, nullptr, "any");
    }
    res_.gate(offer.has_value(), "exchange: make_offer failed");
    if (!offer) return t;

    bool offer_ok = false;
    {
      Tracer::Span s = tr_.span("core.verify_offer", op_id);
      offer_ok = rig_.ex->verify_offer(*offer);
    }
    res_.gate(offer_ok, "exchange: honest offer did not verify");

    const std::uint64_t seller_before = sys.chain().balance(seller_addr);
    const std::uint64_t buyer_before = sys.chain().balance(buyer_addr);
    std::optional<core::BuyerSession> session;
    {
      Tracer::Span s = tr_.span("core.lock", op_id);
      session = rig_.ex->lock_payment(rig_.buyer, *offer, amount,
                                      /*timeout_blocks=*/1000);
    }
    res_.gate(session.has_value(), "exchange: lock_payment failed");
    if (!session) return t;

    const auto t_settle = Clock::now();
    bool settled = false;
    {
      Tracer::Span s = tr_.span("core.settle", op_id);
      settled =
          rig_.ex->settle(rig_.seller, *asset, session->exchange_id,
                          session->k_v);
    }
    res_.gate(settled, "exchange: settle failed");
    replication::ReplicaSet& replicas = *sys.replicas();
    lag_max_ = std::max(lag_max_, sys.ledger()->durable_watermark() -
                                      replicas.shipper().status(0).acked);
    bool synced = false;
    {
      Tracer::Span s = tr_.span("replication.sync", op_id);
      synced = replicas.sync();
    }
    t.settle_replicated = seconds_since(t_settle);
    res_.gate(synced, "exchange: replica sync did not catch up");

    std::optional<std::vector<ff::Fr>> recovered;
    {
      Tracer::Span s = tr_.span("core.recover", op_id);
      recovered = rig_.ex->recover_data(*session);
    }
    whole.end();
    t.exchange = seconds_since(t0);

    res_.gate(recovered && *recovered == data,
              "exchange: recovered plaintext differs from published data");
    res_.gate(sys.chain().balance(seller_addr) == seller_before + amount,
              "exchange: seller balance did not rise by exactly the amount");
    res_.gate(sys.chain().balance(buyer_addr) + amount == buyer_before,
              "exchange: buyer balance did not fall by exactly the amount");
    const auto& fimg = replicas.follower(0).image();
    res_.gate(!fimg.blocks.empty() &&
                  fimg.height() == sys.chain().height() &&
                  fimg.blocks.back().hash == sys.chain().blocks().back().hash,
              "exchange: follower tip differs from the primary's");
    return t;
  }

  [[nodiscard]] std::uint64_t lag_max() const { return lag_max_; }

 private:
  Rig& rig_;
  Tracer& tr_;
  Result& res_;
  crypto::Drbg& inputs_;
  std::uint64_t lag_max_ = 0;
};

Rig build_rig(const Options& opt, std::size_t index) {
  const std::string dir = opt.run_dir + "/exchange-" + std::to_string(index);
  fs::remove_all(dir);
  Rig rig;
  rig.sys = std::make_unique<core::ZkdetSystem>(kMaxConstraints, opt.seed, dir);
  if (rig.sys->ledger() == nullptr || rig.sys->replicas() == nullptr) {
    throw std::runtime_error("system has no durable ledger or no replica");
  }
  rig.tp = std::make_unique<core::TransformationProtocol>(*rig.sys);
  rig.ex = std::make_unique<core::KeySecureExchange>(*rig.sys, *rig.tp);
  crypto::Drbg keys("e2e-exchange-keys", opt.seed);
  rig.seller = crypto::KeyPair::generate(keys);
  rig.buyer = crypto::KeyPair::generate(keys);
  rig.sys->chain().create_account(rig.seller, kStartBalance);
  rig.sys->chain().create_account(rig.buyer, kStartBalance);
  return rig;
}

}  // namespace

void run_exchange(const Options& opt, Result& res) {
  // One follower replica under <data_dir>/replicas/r0.
  setenv("ZKDET_REPLICAS", "1", /*overwrite=*/1);
  Tracer tr(opt.trace);
  Tracer setup_tr(false);

  // --- set-up, repeated; the last rig is kept for the timed loop -------
  Report rep;
  rep.workload = "exchange";
  Rig rig;
  runtime::StatsSnapshot setup_delta;
  for (std::size_t k = 0; k < kSetups; ++k) {
    if (rig.sys) {
      const std::string old_dir = rig.sys->ledger()->dir();
      rig = Rig{};
      fs::remove_all(old_dir);
    }
    const auto before = runtime::stats();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    rig = build_rig(opt, k);
    crypto::Drbg warm("e2e-exchange-warmup", opt.seed);
    ExchangeRunner warmup(rig, setup_tr, res, warm);
    for (const std::size_t size : kSizes) warmup.run(size, 0);
    rep.setup_s.add(seconds_since(t0));
    rep.setup_cpu_s.add(process_cpu_s() - cpu0);
    setup_delta = delta(before, runtime::stats());
  }

  // --- timed loop ------------------------------------------------------
  core::ZkdetSystem& sys = *rig.sys;
  tr.watch(sys.ledger(), &sys.chain());
  std::optional<GaugeSampler> gauges;
  if (opt.trace) gauges.emplace();
  crypto::Drbg inputs("e2e-exchange-inputs", opt.seed);
  ExchangeRunner runner(rig, tr, res, inputs);
  Samples pair_mean, pair_cpu, publish_s, settle_s;
  const std::uint64_t height0 = sys.chain().height();
  const std::uint64_t records0 = sys.ledger()->stats().appended_records;
  sample_reference(rep);
  const auto before = runtime::stats();
  const auto t_loop = Clock::now();
  std::uint64_t op_id = 0;
  double last_pair = 0;
  // Pairs run while the next one fits in the measuring time; there is
  // always at least one.
  do {
    const auto t_pair = Clock::now();
    double pair_total = 0;
    const double cpu0 = process_cpu_s();
    for (const std::size_t size : kSizes) {
      ++res.attempted;
      const std::size_t failures_before = res.failures().size();
      const StepTimes t = runner.run(size, ++op_id);
      if (res.failures().size() != failures_before) ++res.failed;
      publish_s.add(t.publish);
      settle_s.add(t.settle_replicated);
      pair_total += t.exchange;
    }
    pair_mean.add(pair_total / 2);
    pair_cpu.add((process_cpu_s() - cpu0) / 2);
    last_pair = seconds_since(t_pair);
  } while (seconds_since(t_loop) + last_pair <= opt.seconds);
  const auto d = delta(before, runtime::stats());
  sample_reference(rep);
  const std::uint64_t blocks = sys.chain().height() - height0;
  const std::uint64_t records =
      sys.ledger()->stats().appended_records - records0;

  rep.ops = op_id;
  rep.op_per_s = 1.0 / pair_mean.median();
  rep.op_cpu_s = pair_cpu.median();
  rep.busy_cores = pair_cpu.median() / pair_mean.median();
  auto& v = rep.layer;
  v["wall.exchange_s"] = pair_mean.median();
  v["wall.publish_s"] = publish_s.median();
  v["wall.settle_s"] = settle_s.median();
  if (opt.trace) {
    counter_layer_metrics(v, d, rep.ops, /*verify_calls=*/rep.ops, blocks,
                          records);
    double step_sum = 0;
    for (const char* step : {"core.publish", "core.offer", "core.verify_offer",
                             "core.lock", "core.settle", "core.recover"}) {
      v[std::string(step) + "_s"] = tr.mean_s(step);
      step_sum += tr.total_s(step);
    }
    v["core.steps_share"] = step_sum / tr.total_s("exchange");
    v["plonk.preprocess_cpu_s"] =
        static_cast<double>(setup_delta.preprocess_ns) * 1e-9;
    v["txpool.queue_depth_max"] =
        static_cast<double>(gauges->txpool_depth_max());
    v["replication.sync_s"] = tr.mean_s("replication.sync");
    v["replication.lag_records_max"] = static_cast<double>(runner.lag_max());
  }
  finish(opt, tr, rep, res);
}

}  // namespace zkdet::e2e
