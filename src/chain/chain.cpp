#include "chain/chain.hpp"

#include <algorithm>

#include "chain/claim.hpp"
#include "crypto/sha256.hpp"
#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "ledger/codec.hpp"
#include "ledger/io.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::chain {

thread_local TxExecCapture* Chain::tls_capture_ = nullptr;

TxExecCapture* Chain::capture() { return tls_capture_; }

// --- TxExecCapture ---

void TxExecCapture::check_read(const Address& contract,
                               const std::string& key) const {
  if (policy != nullptr && !policy->allow_slot_read(contract, key)) {
    throw Revert("undeclared slot read: " + contract + "/" + key);
  }
}

void TxExecCapture::check_write(const Address& contract,
                                const std::string& key) const {
  if (policy != nullptr && !policy->allow_slot_write(contract, key)) {
    throw Revert("undeclared slot write: " + contract + "/" + key);
  }
}

void TxExecCapture::check_balance(const Address& account) const {
  if (policy != nullptr && !policy->allow_balance(account)) {
    throw Revert("undeclared balance access: " + account);
  }
}

void TxExecCapture::discard() {
  slots.clear();
  delta.clear();
  balances.clear();
  transfers.clear();
}

// --- CallContext ---

CallContext::CallContext(Chain& chain, Address sender, std::uint64_t value,
                         GasMeter& gas)
    : chain_(chain), sender_(std::move(sender)), value_(value), gas_(gas) {}

std::uint64_t CallContext::block_height() const { return chain_.height(); }
std::uint64_t CallContext::timestamp() const { return chain_.timestamp(); }

void CallContext::emit(Event ev) {
  const auto& g = chain_.gas_schedule();
  std::size_t data_bytes = 0;
  for (const auto& [k, v] : ev.fields) data_bytes += k.size() + v.size();
  gas_.charge(g.log_base + g.log_topic + g.log_data_byte * data_bytes);
  events_.push_back(std::move(ev));
}

// --- MeteredStore ---

// A CallContext only exists inside Chain::execute_batch, which installs
// a capture for every tx: writes always buffer, never touch slots_.
void MeteredStore::set(CallContext& ctx, const std::string& key,
                       const Fr& value) {
  const auto& g = ctx.chain().gas_schedule();
  TxExecCapture& cap = *Chain::capture();
  cap.check_write(owner_, key);
  const auto ov = cap.slots.find({owner_, key});
  const bool exists = ov != cap.slots.end() ? ov->second.has_value()
                                            : slots_.count(key) > 0;
  ctx.gas().charge(exists ? g.sstore_update : g.sstore_set);
  cap.slots[{owner_, key}] = value;
  cap.delta.slot_sets.emplace_back(owner_, key, value);
}

void MeteredStore::set_u64(CallContext& ctx, const std::string& key,
                           std::uint64_t value) {
  set(ctx, key, Fr::from_u64(value));
}

std::optional<Fr> MeteredStore::get(CallContext& ctx,
                                    const std::string& key) const {
  ctx.gas().charge(ctx.chain().gas_schedule().sload);
  const TxExecCapture& cap = *Chain::capture();
  cap.check_read(owner_, key);
  const auto ov = cap.slots.find({owner_, key});
  if (ov != cap.slots.end()) return ov->second;
  const auto it = slots_.find(key);
  if (it == slots_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint64_t> MeteredStore::get_u64(
    CallContext& ctx, const std::string& key) const {
  const auto v = get(ctx, key);
  if (!v) return std::nullopt;
  return v->to_canonical().limb[0];
}

void MeteredStore::erase(CallContext& ctx, const std::string& key) {
  ctx.gas().charge(ctx.chain().gas_schedule().sstore_update);
  TxExecCapture& cap = *Chain::capture();
  cap.check_write(owner_, key);
  cap.slots[{owner_, key}] = std::nullopt;
  cap.delta.slot_erases.emplace_back(owner_, key);
}

std::optional<Fr> MeteredStore::peek(const std::string& key) const {
  const auto it = slots_.find(key);
  if (it == slots_.end()) return std::nullopt;
  return it->second;
}

SlotReader slot_reader(const std::map<std::string, Fr>& slots) {
  return [&slots](const std::string& key) -> std::optional<Fr> {
    const auto it = slots.find(key);
    if (it == slots.end()) return std::nullopt;
    return it->second;
  };
}

// --- Address <-> Fr ---

namespace {

constexpr std::uint8_t kAccountTag = 1;
constexpr std::uint8_t kContractTag = 2;
constexpr std::size_t kAccountBytes = 20;
constexpr std::string_view kContractPrefix = "ct:";
constexpr std::size_t kContractTextBytes = 30;

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;  // uppercase too: it would not decode back to itself
}

}  // namespace

Fr encode_address(const Address& a) {
  std::array<std::uint8_t, 32> b{};  // big-endian; b[0] stays zero
  if (a.size() == 2 + 2 * kAccountBytes && a.starts_with("0x")) {
    b[1] = kAccountTag;
    for (std::size_t i = 0; i < kAccountBytes; ++i) {
      const int hi = hex_digit(a[2 + 2 * i]);
      const int lo = hex_digit(a[3 + 2 * i]);
      if (hi < 0 || lo < 0) throw Revert("address not encodable: " + a);
      b[2 + i] = static_cast<std::uint8_t>(hi * 16 + lo);
    }
    return Fr::from_canonical(ff::u256_from_bytes(b));
  }
  const std::string_view text = std::string_view(a).substr(
      a.starts_with(kContractPrefix) ? kContractPrefix.size() : a.size());
  if (text.empty() || text.size() > kContractTextBytes ||
      text.find('\0') != std::string_view::npos) {
    throw Revert("address not encodable: " + a);
  }
  b[1] = kContractTag;
  std::copy(text.begin(), text.end(), b.begin() + 2);
  return Fr::from_canonical(ff::u256_from_bytes(b));
}

Address decode_address(const Fr& v) {
  const auto b = ff::u256_to_bytes(v.to_canonical());
  const auto zero_from = [&](std::size_t i) {
    return std::all_of(b.begin() + static_cast<std::ptrdiff_t>(i), b.end(),
                       [](std::uint8_t x) { return x == 0; });
  };
  if (b[0] == 0 && b[1] == kAccountTag && zero_from(2 + kAccountBytes)) {
    return "0x" + crypto::hex_encode(std::span<const std::uint8_t>(
                      b.data() + 2, kAccountBytes));
  }
  if (b[0] == 0 && b[1] == kContractTag && b[2] != 0) {
    std::size_t end = 2;
    while (end < b.size() && b[end] != 0) ++end;
    if (zero_from(end)) {
      return std::string(kContractPrefix) +
             std::string(b.begin() + 2,
                         b.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  throw Revert("slot holds no address");
}

// --- Chain ---

Chain::Chain() {
  Block genesis;
  genesis.height = 0;
  genesis.timestamp = timestamp_;
  genesis.hash = block_hash(genesis);
  blocks_.push_back(genesis);
}

Address Chain::create_account(const crypto::KeyPair& keys,
                              std::uint64_t initial_balance) {
  if (tls_capture_ != nullptr) {
    throw Revert("create_account inside a batch transaction");
  }
  const Address addr = crypto::address_of(keys.pk);
  // Re-registering an already-known account is a no-op: recovery replays
  // application startup against restored state (ledger reopen), and the
  // restored balance must not be credited a second time.
  if (const auto it = account_keys_.find(addr); it != account_keys_.end()) {
    if (!(it->second == keys.pk)) throw Revert("address collision");
    return addr;
  }
  balances_[addr] += initial_balance;
  account_keys_[addr] = keys.pk;
  if (observer_ != nullptr) {
    observer_->on_account_created(addr, keys.pk, balances_[addr]);
  }
  return addr;
}

std::uint64_t Chain::balance(const Address& a) const {
  // Inside a batch tx the thread sees its own buffered moves (and only
  // those — batch-mates' effects land at commit, after this tx).
  if (const TxExecCapture* cap = tls_capture_) {
    const auto ov = cap->balances.find(a);
    if (ov != cap->balances.end()) return ov->second;
  }
  const auto it = balances_.find(a);
  return it == balances_.end() ? 0 : it->second;
}

void Chain::transfer(const Address& from, const Address& to,
                     std::uint64_t amount) {
  if (TxExecCapture* cap = tls_capture_) {
    cap->check_balance(from);
    cap->check_balance(to);
    const std::uint64_t from_bal = balance(from);  // overlay-aware
    if (from_bal < amount) throw Revert("insufficient balance");
    cap->balances[from] = from_bal - amount;
    cap->balances[to] = balance(to) + amount;
    cap->transfers.emplace_back(from, to, amount);
    return;
  }
  auto it = balances_.find(from);
  if (it == balances_.end() || it->second < amount) {
    throw Revert("insufficient balance");
  }
  it->second -= amount;
  balances_[to] += amount;
  if (observer_ != nullptr) {
    delta_.balance_sets.emplace_back(from, it->second);
    delta_.balance_sets.emplace_back(to, balances_[to]);
  }
}

void Chain::finish_deploy(const crypto::KeyPair& deployer,
                          std::unique_ptr<Contract> contract,
                          Receipt* receipt) {
  if (tls_capture_ != nullptr) {
    throw Revert("deploy inside a batch transaction");
  }
  const Address addr =
      "ct:" + contract->name_ + "#" + std::to_string(next_contract_id_);
  GasMeter meter(100'000'000);
  meter.charge(gas_.tx_base);
  meter.charge(gas_.create_base);
  meter.charge(gas_.create_per_byte * contract->code_size());

  // Adoption path (ledger reopen): the deploy tx is already in the
  // restored history, so re-bind the fresh contract object to its
  // persisted address + storage instead of sealing a duplicate block.
  if (const auto pending = pending_adoptions_.find(addr);
      pending != pending_adoptions_.end()) {
    if (pending->second.name != contract->name_) {
      throw Revert("ledger: deploy order diverges from persisted history (" +
                   addr + " was " + pending->second.name + ")");
    }
    ++next_contract_id_;
    contract->address_ = addr;
    contract->store_.owner_ = addr;
    contract->store_.slots_ = std::move(pending->second.slots);
    pending_adoptions_.erase(pending);
    contracts_.push_back(std::move(contract));
    if (receipt != nullptr) {
      receipt->success = true;
      receipt->gas_used = meter.used();
      receipt->block = height();
    }
    return;
  }
  if (!pending_adoptions_.empty()) {
    throw Revert("ledger: deploy order diverges from persisted history (" +
                 addr + " not in the restored contract set)");
  }

  ++next_contract_id_;
  contract->address_ = addr;
  contract->store_.owner_ = addr;
  TxRecord tx;
  tx.sender = crypto::address_of(deployer.pk);
  tx.description = "deploy " + contract->name_;
  tx.gas_used = meter.used();
  balances_[contract->address_];  // ensure the escrow account exists
  if (observer_ != nullptr) {
    delta_.contracts_created.push_back(
        {contract->address_, contract->name_, contract->code_size()});
    delta_.balance_sets.emplace_back(contract->address_,
                                     balances_[contract->address_]);
  }
  contracts_.push_back(std::move(contract));
  if (receipt != nullptr) {
    receipt->success = true;
    receipt->gas_used = tx.gas_used;
    receipt->block = height();
  }
  seal_block(std::move(tx));
}

Receipt Chain::call(const crypto::KeyPair& sender,
                    const std::string& description,
                    const std::function<void(CallContext&)>& fn,
                    std::uint64_t value, const Address& pay_to,
                    std::uint64_t gas_limit) {
  // Fail-point: the transaction is dropped before it reaches the
  // sequencer — no block is sealed and no state (funds included) moves.
  // Callers observe a failed receipt and must retry (ExchangeDriver) or
  // surface the error.
  if (fault::fire(fault::points::kChainSubmit)) {
    Receipt receipt;
    receipt.error = "injected: tx dropped before submission";
    return receipt;
  }
  BatchTx tx;
  tx.sender = crypto::address_of(sender.pk);
  tx.description = description;
  tx.nonce = account_nonce(tx.sender);
  tx.sig = sign_tx(sender, description, tx.nonce);
  tx.fn = fn;
  tx.value = value;
  tx.pay_to = pay_to;
  tx.gas_limit = gas_limit;
  return execute_batch({std::move(tx)}, /*parallel=*/false)[0];
}

std::uint64_t Chain::account_nonce(const Address& a) const {
  const MutexLock lk(nonce_mu_);
  const auto it = nonces_.find(a);
  return it == nonces_.end() ? 0 : it->second;
}

std::vector<std::uint8_t> Chain::tx_auth_message(const std::string& description,
                                                 std::uint64_t nonce) {
  std::vector<std::uint8_t> msg(description.begin(), description.end());
  for (int i = 0; i < 8; ++i) {
    msg.push_back(static_cast<std::uint8_t>(nonce >> (8 * i)));
  }
  return msg;
}

crypto::Signature Chain::sign_tx(const crypto::KeyPair& sender,
                                 const std::string& description,
                                 std::uint64_t nonce) {
  crypto::Drbg rng("tx-auth:" + crypto::address_of(sender.pk),
                   nonce * 1000003 + description.size());
  return crypto::schnorr_sign(sender, tx_auth_message(description, nonce),
                              rng);
}

void Chain::advance_blocks(std::uint64_t k) {
  for (std::uint64_t i = 0; i < k; ++i) {
    TxRecord empty;
    empty.description = "(empty)";
    seal_block(std::move(empty));
  }
}

Contract* Chain::find_contract(const Address& addr) {
  for (const auto& c : contracts_) {
    if (c->address() == addr) return c.get();
  }
  return nullptr;
}

bool Chain::apply_capture(const TxExecCapture& cap) {
  // Pass 1: recheck every buffered transfer against committed state (an
  // earlier batch-mate may have drained an account this tx also touched
  // — only reachable without declared access sets).
  std::map<Address, std::uint64_t> eff;
  const auto committed = [&](const Address& a) {
    const auto it = eff.find(a);
    if (it != eff.end()) return it->second;
    const auto b = balances_.find(a);
    return b == balances_.end() ? std::uint64_t{0} : b->second;
  };
  for (const auto& [from, to, amount] : cap.transfers) {
    const std::uint64_t from_bal = committed(from);
    if (from_bal < amount) return false;
    eff[from] = from_bal - amount;
    eff[to] = committed(to) + amount;
  }
  // Pass 2: apply. Balance deltas record absolute post-values in
  // address order (map iteration) — canonical regardless of op order.
  for (const auto& [addr, bal] : eff) {
    balances_[addr] = bal;
    if (observer_ != nullptr) delta_.balance_sets.emplace_back(addr, bal);
  }
  for (const auto& [addr, key, value] : cap.delta.slot_sets) {
    Contract* c = find_contract(addr);
    if (c == nullptr) throw Revert("captured write to unknown contract " + addr);
    c->store_.slots_[key] = value;
    if (observer_ != nullptr) delta_.slot_sets.emplace_back(addr, key, value);
  }
  for (const auto& [addr, key] : cap.delta.slot_erases) {
    Contract* c = find_contract(addr);
    if (c == nullptr) throw Revert("captured erase on unknown contract " + addr);
    c->store_.slots_.erase(key);
    if (observer_ != nullptr) delta_.slot_erases.emplace_back(addr, key);
  }
  return true;
}

std::vector<Receipt> Chain::execute_batch(const std::vector<BatchTx>& txs,
                                          bool parallel) {
  std::vector<Receipt> receipts(txs.size());
  if (txs.empty()) return receipts;
  if (tls_capture_ != nullptr) throw Revert("nested batch execution");

  // Stage 1 — signature verification, the dominant per-tx CPU cost
  // outside the closures. Pure reads of account_keys_: safe to fan out.
  std::vector<std::uint8_t> sig_ok(txs.size(), 0);
  const auto verify_one = [&](std::size_t i) {
    const BatchTx& t = txs[i];
    const auto keyit = account_keys_.find(t.sender);
    if (keyit == account_keys_.end()) return;
    sig_ok[i] = crypto::schnorr_verify(
                    keyit->second, tx_auth_message(t.description, t.nonce),
                    t.sig)
                    ? 1
                    : 0;
  };
  if (parallel) {
    runtime::ThreadPool::instance().parallel_for(
        txs.size(), 1, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) verify_one(i);
        });
  } else {
    for (std::size_t i = 0; i < txs.size(); ++i) verify_one(i);
  }

  // Stage 2 — nonce admission, serial in canonical order. Excluded txs
  // never reach the block and consume no nonce.
  std::vector<std::uint8_t> included(txs.size(), 0);
  std::map<Address, std::uint64_t> expected;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (!sig_ok[i]) {
      receipts[i].error = "unknown sender or bad signature";
      continue;
    }
    const BatchTx& t = txs[i];
    const auto [it, fresh] =
        expected.try_emplace(t.sender, account_nonce(t.sender));
    (void)fresh;
    if (t.nonce != it->second) {
      receipts[i].error = "bad nonce (replay rejected)";
      continue;
    }
    ++it->second;
    included[i] = 1;
  }

  // Stage 2½ — batched proof-claim verification. Every included tx's
  // ProofClaim is folded, in canonical order, into one attributed
  // pairing check (per SRS group; plonk bisects on fold failure), so N
  // settle txs in a batch pay one shared pairing product instead of N.
  // Runs before stage 3 and identically in serial and parallel mode —
  // the verdicts (and hence gas and receipts) are a pure function of
  // the admitted tx vector, preserving serial/parallel byte-identity.
  std::vector<ClaimVerdict> verdicts(txs.size());
  {
    std::vector<std::size_t> claim_idx;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      if (included[i] && txs[i].claim) claim_idx.push_back(i);
    }
    if (!claim_idx.empty()) {
      std::vector<plonk::BatchEntry> entries;
      entries.reserve(claim_idx.size());
      for (const std::size_t i : claim_idx) {
        const ProofClaim& c = *txs[i].claim;
        entries.push_back({c.vk, &c.public_inputs, &c.proof});
      }
      const plonk::BatchResult folded =
          plonk::batch_verify_attributed(entries);
      for (std::size_t k = 0; k < claim_idx.size(); ++k) {
        ClaimVerdict& v = verdicts[claim_idx[k]];
        v.claim = txs[claim_idx[k]].claim.get();
        v.valid = folded.ok[k] != 0;
        v.batch_claims = claim_idx.size();
      }
      runtime::counters::settle_batches.fetch_add(1,
                                                  std::memory_order_relaxed);
      runtime::counters::settle_claims.fetch_add(claim_idx.size(),
                                                 std::memory_order_relaxed);
      // Gauge: remember the largest fold (relaxed racy max is fine).
      std::uint64_t cur = runtime::counters::settle_max_fold.load(
          std::memory_order_relaxed);
      while (cur < claim_idx.size() &&
             !runtime::counters::settle_max_fold.compare_exchange_weak(
                 cur, claim_idx.size(), std::memory_order_relaxed)) {
      }
    }
  }

  // Stage 3 — captured execution. Each tx buffers every effect in its
  // own TxExecCapture; chain state is not mutated here, so the
  // scheduler's conflict-free batches run concurrently. Failed txs are
  // rolled back whole (capture discarded): no slot write or balance
  // move of a reverted tx, escrow payment included, reaches the block.
  std::vector<TxExecCapture> caps(txs.size());
  std::vector<TxRecord> recs(txs.size());
  struct CaptureScope {  // exception-safe thread-local (un)install
    explicit CaptureScope(TxExecCapture* cap) { tls_capture_ = cap; }
    ~CaptureScope() { tls_capture_ = nullptr; }
  };
  const auto run_one = [&](std::size_t i) {
    if (!included[i]) return;
    const BatchTx& t = txs[i];
    TxExecCapture& cap = caps[i];
    cap.policy = t.policy;
    const CaptureScope scope(&cap);
    GasMeter meter(t.gas_limit);
    TxRecord& rec = recs[i];
    rec.sender = t.sender;
    rec.description = t.description;
    rec.nonce = t.nonce;
    rec.sig = t.sig;
    rec.has_sig = true;
    Receipt& rc = receipts[i];
    try {
      meter.charge(gas_.tx_base);
      if (t.value > 0) {
        if (t.pay_to.empty()) throw Revert("value transfer without target");
        transfer(t.sender, t.pay_to, t.value);
      }
      CallContext ctx(*this, t.sender, t.value, meter);
      if (verdicts[i].claim != nullptr) ctx.set_claim_verdict(&verdicts[i]);
      if (t.fn) t.fn(ctx);
      rc.success = true;
      rec.events = ctx.events();
      rc.events = std::move(ctx.events());
    } catch (const Revert& r) {
      rc.error = r.what();
      rec.success = false;
      cap.discard();
    } catch (const OutOfGas&) {
      rc.error = "out of gas";
      rec.success = false;
      cap.discard();
    }
    rc.gas_used = meter.used();
    rec.gas_used = meter.used();
  };
  if (parallel) {
    runtime::ThreadPool::instance().parallel_for(
        txs.size(), 1, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) run_one(i);
        });
  } else {
    for (std::size_t i = 0; i < txs.size(); ++i) run_one(i);
  }

  // Simulated process kill at the seal boundary: nothing from this
  // batch has reached chain state or the WAL, so a reopen lands on the
  // pre-batch tip.
  if (fault::fire(fault::points::kTxpoolSealCrash)) {
    throw ledger::CrashInjected(fault::points::kTxpoolSealCrash);
  }

  // Stage 4 — serial commit in canonical order: merge per-tx captures
  // into chain state + the block delta, consume nonces, seal one block.
  // Fail-points are consulted here (not in stage 3) so their hit
  // ordering is canonical-order-deterministic under any worker count.
  const std::uint64_t new_height = blocks_.size();
  // A commit-time abort (injected or overdraw) happens after the
  // closure ran to completion; discarding its capture rolls it back
  // whole, since contract state lives only in the captured slots.
  std::vector<TxRecord> final_txs;
  std::vector<std::size_t> final_idx;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (!included[i]) continue;
    Receipt& rc = receipts[i];
    if (rc.success && fault::fire(fault::points::kTxpoolExecConflictAbort)) {
      // Injected optimistic-concurrency abort: the tx is included as
      // failed (nonce consumed) with its effects discarded.
      caps[i].discard();
      recs[i].events.clear();
      rc.success = false;
      rc.events.clear();
      rc.error = "injected: conflict abort";
      recs[i].success = false;
      runtime::counters::txpool_conflict_aborts.fetch_add(
          1, std::memory_order_relaxed);
    }
    if (rc.success && !apply_capture(caps[i])) {
      caps[i].discard();
      recs[i].events.clear();
      rc.success = false;
      rc.events.clear();
      rc.error = "conflict: balance overdrawn at commit";
      recs[i].success = false;
      runtime::counters::txpool_conflict_aborts.fetch_add(
          1, std::memory_order_relaxed);
    }
    {
      const MutexLock lk(nonce_mu_);
      nonces_[txs[i].sender] = txs[i].nonce + 1;
    }
    rc.block = new_height;
    recs[i].block = new_height;
    final_idx.push_back(i);
  }
  if (final_idx.empty()) return receipts;  // nothing admitted: no block
  final_txs.reserve(final_idx.size());
  for (const std::size_t i : final_idx) final_txs.push_back(std::move(recs[i]));
  seal_batch(std::move(final_txs));
  return receipts;
}

void Chain::seal_block(TxRecord tx) {
  std::vector<TxRecord> txs;
  txs.push_back(std::move(tx));
  seal_batch(std::move(txs));
}

void Chain::seal_batch(std::vector<TxRecord> txs) {
  Block b;
  b.height = blocks_.size();
  timestamp_ += 13;  // ~Ethereum block time
  b.timestamp = timestamp_;
  b.prev_hash = blocks_.back().hash;
  for (auto& tx : txs) {
    tx.block = b.height;
    b.txs.push_back(std::move(tx));
  }
  b.hash = block_hash(b);
  blocks_.push_back(std::move(b));
  if (observer_ != nullptr) {
    // Durability before visibility: the callback (WAL append) returns —
    // or throws, killing the call — before the receipt reaches the
    // caller. delta_ survives a throw so nothing is silently dropped.
    observer_->on_block_sealed(blocks_.back(), delta_);
    delta_.clear();
  }
}

std::array<std::uint8_t, 32> Chain::block_hash(const Block& b) {
  crypto::Sha256 h;
  h.update("zkdet-block");
  std::array<std::uint8_t, 16> hdr{};
  for (int i = 0; i < 8; ++i) {
    hdr[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(b.height >> (i * 8));
    hdr[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(b.timestamp >> (i * 8));
  }
  h.update(hdr);
  h.update(b.prev_hash);
  for (const auto& tx : b.txs) {
    // The canonical encoding covers every receipt-affecting field (gas,
    // success, events, signature) — mutating any of them breaks the
    // hash link that validate_chain() walks.
    h.update(ledger::encode_tx_record(tx));
  }
  return h.finalize();
}

void Chain::restore_state(std::vector<Block> blocks,
                          std::map<Address, std::uint64_t> balances,
                          std::map<Address, crypto::G1Affine> account_keys,
                          std::map<Address, RestoredContract> contracts) {
  if (blocks_.size() != 1 || !balances_.empty() || !contracts_.empty() ||
      !account_keys_.empty()) {
    throw Revert("restore_state requires a chain at genesis");
  }
  if (blocks.empty()) {
    throw Revert("restore_state needs at least the genesis block");
  }
  blocks_ = std::move(blocks);
  balances_ = std::move(balances);
  account_keys_ = std::move(account_keys);
  pending_adoptions_ = std::move(contracts);
  timestamp_ = blocks_.back().timestamp;
  // Per-sender nonces are derivable from the restored history: the next
  // expected nonce is one past the highest included signed tx.
  {
    const MutexLock lk(nonce_mu_);
    for (const auto& b : blocks_) {
      for (const auto& tx : b.txs) {
        if (!tx.has_sig) continue;
        auto& n = nonces_[tx.sender];
        if (tx.nonce + 1 > n) n = tx.nonce + 1;
      }
    }
  }
  // The application re-deploys its contracts in the original order, so
  // id assignment restarts from 1: each adoption consumes the id its
  // contract had before the restart, and a genuinely new deploy (only
  // legal once every pending adoption is consumed) continues the
  // sequence exactly where the persisted history left off.
  next_contract_id_ = 1;
}

bool Chain::validate_chain() const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (block_hash(blocks_[i]) != blocks_[i].hash) return false;
    if (i > 0 && blocks_[i].prev_hash != blocks_[i - 1].hash) return false;
  }
  return true;
}

}  // namespace zkdet::chain
