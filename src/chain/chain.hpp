// In-process blockchain substrate — the Rinkeby substitute.
//
// A deterministic single-sequencer chain: every metered call becomes a
// signed transaction in a SHA-256-linked block. Contracts are C++
// objects whose whole state is a gas-metered key-value store (rolled
// back with the rest of a reverted transaction); they emit gas-metered
// events, and account balances move through the same runtime. This
// preserves what the paper relies on from Ethereum — tamper-evident
// ordered history, gas accounting, contract-held escrow, public
// verifiability of records — without a networked consensus stack
// (substitution documented in DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/gas.hpp"
#include "check/mutex.hpp"
#include "crypto/schnorr.hpp"
#include "ff/bn254.hpp"

namespace zkdet::chain {

using Address = std::string;
using ff::Fr;

class Revert : public std::runtime_error {
 public:
  explicit Revert(const std::string& reason)
      : std::runtime_error("revert: " + reason) {}
};

struct Event {
  std::string name;
  std::vector<std::pair<std::string, std::string>> fields;
};

struct TxRecord {
  std::uint64_t block = 0;
  Address sender;
  std::string description;
  // Per-sender sequence number, consumed on inclusion (success or
  // revert). Signed into the auth message, so resubmitting an already
  // included tx is rejected as a replay instead of re-executing.
  std::uint64_t nonce = 0;
  std::uint64_t gas_used = 0;
  bool success = true;
  // Events emitted by a successful call (part of the receipt trie in
  // Ethereum terms); hashed into the block via the canonical codec so a
  // mutated outcome breaks validate_chain().
  std::vector<Event> events;
  // Sender authentication, kept so a replaying node (ledger reopen) can
  // re-verify the history it was handed. Deploy and empty-block records
  // are sequencer-internal and carry no signature.
  crypto::Signature sig{};
  bool has_sig = false;
};

// Everything a transaction (or the runtime around it) changed in chain
// state, with balances recorded as absolute post-values so replaying a
// delta is idempotent. Captured by Chain while an observer is attached
// and journaled next to each sealed block by src/ledger — replay applies
// deltas instead of re-running C++ call closures.
struct StateDelta {
  struct NewContract {
    Address address;
    std::string name;
    std::uint64_t code_size = 0;
  };
  std::vector<std::pair<Address, std::uint64_t>> balance_sets;  // absolute
  std::vector<NewContract> contracts_created;
  std::vector<std::tuple<Address, std::string, Fr>> slot_sets;
  std::vector<std::pair<Address, std::string>> slot_erases;

  [[nodiscard]] bool empty() const {
    return balance_sets.empty() && contracts_created.empty() &&
           slot_sets.empty() && slot_erases.empty();
  }
  void clear() {
    balance_sets.clear();
    contracts_created.clear();
    slot_sets.clear();
    slot_erases.clear();
  }
};

// Persisted image of one contract's on-chain state (name + code size
// identify the deploy, slots are the MeteredStore contents). Produced by
// ledger replay and consumed by Chain's deploy-adoption path.
struct RestoredContract {
  std::string name;
  std::uint64_t code_size = 0;
  std::map<std::string, Fr> slots;
};

struct Block;

// Durability hook: src/ledger attaches one of these to journal every
// state mutation. Callbacks run synchronously inside the mutating call —
// on_block_sealed fires before Chain::execute_batch (and so Chain::call)
// returns its receipts, so a crash after the callback returned implies
// the block is durable.
class ChainObserver {
 public:
  virtual ~ChainObserver() = default;
  // create_account happens outside any block; journaled immediately.
  virtual void on_account_created(const Address& addr,
                                  const crypto::G1Affine& pk,
                                  std::uint64_t balance) = 0;
  virtual void on_block_sealed(const Block& block, const StateDelta& delta) = 0;
};

struct Block {
  std::uint64_t height = 0;
  std::uint64_t timestamp = 0;
  std::array<std::uint8_t, 32> prev_hash{};
  std::array<std::uint8_t, 32> hash{};
  std::vector<TxRecord> txs;
};

struct Receipt {
  bool success = false;
  std::uint64_t gas_used = 0;
  std::uint64_t block = 0;
  std::string error;
  std::vector<Event> events;
};

class Chain;
class CallContext;
struct ProofClaim;    // chain/claim.hpp
struct ClaimVerdict;  // chain/claim.hpp

// Declared-access authorization for batched execution (implemented by
// src/txpool over a tx intent's declared read/write sets). While a
// batch tx runs under a policy, every contract-slot access and balance
// move is checked; an undeclared access reverts the tx — in serial and
// parallel execution alike, which is what keeps the two byte-identical
// (an undeclared read could otherwise observe an earlier batch-mate's
// write in one mode but not the other).
class TxAccessPolicy {
 public:
  virtual ~TxAccessPolicy() = default;
  [[nodiscard]] virtual bool allow_slot_read(const Address& contract,
                                             const std::string& key) const = 0;
  [[nodiscard]] virtual bool allow_slot_write(const Address& contract,
                                              const std::string& key) const = 0;
  [[nodiscard]] virtual bool allow_balance(const Address& account) const = 0;
};

// One pre-signed transaction of a batch (produced by the txpool
// scheduler, or by Chain::call as a batch of one). The vector order
// handed to Chain::execute_batch IS the canonical in-block order.
struct BatchTx {
  Address sender;
  std::string description;
  std::uint64_t nonce = 0;
  crypto::Signature sig{};
  std::function<void(CallContext&)> fn;
  std::uint64_t value = 0;
  Address pay_to;
  std::uint64_t gas_limit = 30'000'000;
  const TxAccessPolicy* policy = nullptr;  // nullptr = unrestricted
  // Optional pre-execution proof claim (chain/claim.hpp): folded with
  // the batch's other claims into one attributed pairing check before
  // stage 3, with the verdict served to the closure's verifier call.
  std::shared_ptr<const ProofClaim> claim;
};

// Per-transaction execution capture: while one is installed (thread-
// local), slot writes and balance moves buffer here instead of mutating
// chain state, so non-conflicting batch txs can execute concurrently.
// Effects are applied serially, in canonical order, at batch commit; a
// reverted tx's capture is discarded whole (full rollback).
struct TxExecCapture {
  const TxAccessPolicy* policy = nullptr;
  // Slot overlay (reads see the tx's own writes; nullopt = erased) plus
  // the ordered journal replayed into the block delta at commit.
  std::map<std::pair<Address, std::string>, std::optional<Fr>> slots;
  StateDelta delta;
  // Balance overlay (absolute effective values) + ordered transfer ops.
  std::map<Address, std::uint64_t> balances;
  std::vector<std::tuple<Address, Address, std::uint64_t>> transfers;

  void check_read(const Address& contract, const std::string& key) const;
  void check_write(const Address& contract, const std::string& key) const;
  void check_balance(const Address& account) const;
  void discard();
};

// Execution context handed to contract methods. Only Chain::execute_batch
// constructs one, so every contract call runs under an installed capture.
class CallContext {
 public:
  [[nodiscard]] Chain& chain() { return chain_; }
  [[nodiscard]] const Address& sender() const { return sender_; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  [[nodiscard]] GasMeter& gas() { return gas_; }
  [[nodiscard]] std::uint64_t block_height() const;
  [[nodiscard]] std::uint64_t timestamp() const;

  void require(bool cond, const std::string& reason) {
    if (!cond) throw Revert(reason);
  }
  void emit(Event ev);

  [[nodiscard]] std::vector<Event>& events() { return events_; }

  // Batched-settlement verdict for this tx's proof claim (nullptr when
  // the tx carried none, or outside batch execution). Installed by
  // Chain::execute_batch; consumed by PlonkVerifierContract::verify.
  [[nodiscard]] const ClaimVerdict* claim_verdict() const {
    return claim_verdict_;
  }
  void set_claim_verdict(const ClaimVerdict* v) { claim_verdict_ = v; }

  // EVM msg.sender semantics for contract-to-contract calls: while a
  // SenderScope is alive, ctx.sender() reports the calling contract's
  // address instead of the originating account.
  class SenderScope {
   public:
    SenderScope(CallContext& ctx, Address contract_address)
        : ctx_(ctx), saved_(std::move(ctx.sender_)) {
      ctx_.sender_ = std::move(contract_address);
    }
    ~SenderScope() { ctx_.sender_ = std::move(saved_); }
    SenderScope(const SenderScope&) = delete;
    SenderScope& operator=(const SenderScope&) = delete;

   private:
    CallContext& ctx_;
    Address saved_;
  };

 private:
  friend class Chain;
  CallContext(Chain& chain, Address sender, std::uint64_t value,
              GasMeter& gas);

  Chain& chain_;
  Address sender_;
  std::uint64_t value_;
  GasMeter& gas_;
  std::vector<Event> events_;
  const ClaimVerdict* claim_verdict_ = nullptr;
};

// Reads one contract slot (nullopt = unset). Each record kind has one
// decoder over a SlotReader, so the same code reads a record inside a
// transaction (MeteredStore::metered), from committed storage
// (MeteredStore::committed) and from a follower's replay image
// (slot_reader over RestoredContract::slots).
using SlotReader = std::function<std::optional<Fr>(const std::string& key)>;

[[nodiscard]] SlotReader slot_reader(const std::map<std::string, Fr>& slots);

// A slot holding a u64 (counters, amounts, heights, enum states).
[[nodiscard]] inline std::uint64_t slot_u64(const Fr& v) {
  return v.to_canonical().limb[0];
}

// A slot every record of its kind has once created; reverts if unset.
[[nodiscard]] inline Fr required_slot(const SlotReader& read,
                                      const std::string& key) {
  auto v = read(key);
  if (!v) throw Revert("missing slot " + key);
  return *v;
}

// Reversible Address <-> Fr packing for slots that hold an address,
// behind a tag byte so the value stays below 2^248 < r: an account
// ("0x" + 40 lowercase hex digits) packs its 20 bytes, a contract
// ("ct:<name>#<n>") the at most 30 bytes after "ct:". Encoding anything
// else, or decoding a value no address encodes to, reverts.
[[nodiscard]] Fr encode_address(const Address& a);
[[nodiscard]] Address decode_address(const Fr& v);

// Gas-metered contract storage: a flat key -> field-element map with
// EVM new-slot / update pricing. It is the only copy of a contract's
// state: writes buffer in the transaction's capture and reach the map
// at commit, so a reverted transaction leaves no trace.
class MeteredStore {
 public:
  void set(CallContext& ctx, const std::string& key, const Fr& value);
  void set_u64(CallContext& ctx, const std::string& key, std::uint64_t value);
  [[nodiscard]] std::optional<Fr> get(CallContext& ctx,
                                      const std::string& key) const;
  [[nodiscard]] std::optional<std::uint64_t> get_u64(
      CallContext& ctx, const std::string& key) const;
  void erase(CallContext& ctx, const std::string& key);
  // Unmetered read for off-chain inspection (a full node's RPC view).
  [[nodiscard]] std::optional<Fr> peek(const std::string& key) const;
  // Record-decoder readers: metered and access-checked inside `ctx`'s
  // transaction (seeing its own writes), or committed state unmetered.
  [[nodiscard]] SlotReader metered(CallContext& ctx) const {
    return [this, &ctx](const std::string& key) { return get(ctx, key); };
  }
  [[nodiscard]] SlotReader committed() const { return slot_reader(slots_); }
  // Full-state view for off-chain audits (e.g. asserting a secret never
  // appears in any contract slot — the chaos harness does exactly this).
  [[nodiscard]] const std::map<std::string, Fr>& peek_all() const {
    return slots_;
  }

 private:
  friend class Chain;  // sets owner_, restores slots_ on ledger adoption
  std::map<std::string, Fr> slots_;
  // The owning contract's address, for delta journaling (set at deploy).
  Address owner_;
};

// Base class for contracts.
class Contract {
 public:
  Contract(std::string name, std::size_t code_size)
      : name_(std::move(name)), code_size_(code_size) {}
  virtual ~Contract() = default;
  Contract(const Contract&) = delete;
  Contract& operator=(const Contract&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t code_size() const { return code_size_; }
  [[nodiscard]] const Address& address() const { return address_; }
  // Read-only storage view for off-chain audits.
  [[nodiscard]] const MeteredStore& audit_store() const { return store_; }

 protected:
  [[nodiscard]] MeteredStore& store() { return store_; }
  [[nodiscard]] const MeteredStore& store() const { return store_; }

 private:
  friend class Chain;  // binds address_ and store_ at deploy/adoption
  std::string name_;
  std::size_t code_size_;
  Address address_;
  MeteredStore store_;
};

class Chain {
 public:
  Chain();

  // --- accounts ---
  Address create_account(const crypto::KeyPair& keys,
                         std::uint64_t initial_balance);
  [[nodiscard]] std::uint64_t balance(const Address& a) const;
  // Raw transfer used by the runtime and contracts (escrow flows).
  void transfer(const Address& from, const Address& to, std::uint64_t amount);

  // --- contract deployment ---
  // Constructs a contract in place, charges creation gas to the deployer
  // and returns a reference with chain lifetime.
  template <typename C, typename... Args>
  C& deploy(const crypto::KeyPair& deployer, Receipt* receipt, Args&&... args) {
    auto contract = std::make_unique<C>(std::forward<Args>(args)...);
    C& ref = *contract;
    finish_deploy(deployer, std::move(contract), receipt);
    return ref;
  }

  // --- transactions ---
  // Runs `fn` as a signed, gas-metered transaction from `sender`: signs
  // at the sender's current nonce and executes it through execute_batch
  // as a serial batch of one (same admission, rollback and sealing).
  Receipt call(const crypto::KeyPair& sender, const std::string& description,
               const std::function<void(CallContext&)>& fn,
               std::uint64_t value = 0, const Address& pay_to = {},
               std::uint64_t gas_limit = 30'000'000);

  // Next expected nonce for `a` (0 for a fresh account). A tx is only
  // admitted with exactly this nonce; inclusion consumes it.
  [[nodiscard]] std::uint64_t account_nonce(const Address& a) const;

  // Canonical signed message for a tx: description bytes || LE64(nonce).
  // Shared by Chain::call, txpool intent signing and ledger replay
  // re-verification.
  [[nodiscard]] static std::vector<std::uint8_t> tx_auth_message(
      const std::string& description, std::uint64_t nonce);
  // Schnorr signature over tx_auth_message from a deterministic
  // per-(sender, nonce) stream: Chain::call and txpool::make_intent both
  // sign here, so identical (sender, description, nonce) yield identical
  // signatures, blocks and WAL bytes on either path.
  [[nodiscard]] static crypto::Signature sign_tx(
      const crypto::KeyPair& sender, const std::string& description,
      std::uint64_t nonce);

  // Executes a batch of pre-signed transactions and seals the included
  // ones into ONE block, in the given (canonical) order. Stages:
  // signature verification and closure execution run concurrently on
  // the runtime pool when `parallel` (each tx buffering its effects in
  // a thread-local TxExecCapture); nonce admission and effect commit
  // are serial in canonical order either way, so blocks, deltas and
  // WAL bytes are byte-identical for parallel and serial execution of
  // the same tx vector. A tx failing auth or nonce admission is
  // excluded from the block (nonce not consumed); a reverted tx is
  // included as failed with its effects fully rolled back. Seals no
  // block when nothing is admitted.
  std::vector<Receipt> execute_batch(const std::vector<BatchTx>& txs,
                                     bool parallel);

  // The calling thread's installed batch capture (nullptr outside
  // execute_batch). Used by MeteredStore/transfer to buffer effects.
  [[nodiscard]] static TxExecCapture* capture();

  // --- chain state ---
  [[nodiscard]] std::uint64_t height() const { return blocks_.size(); }
  [[nodiscard]] std::uint64_t timestamp() const { return timestamp_; }
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }
  void advance_blocks(std::uint64_t k);  // empty blocks (time passing)

  // Verifies hash-linking of the whole chain (tamper evidence).
  [[nodiscard]] bool validate_chain() const;

  [[nodiscard]] const GasSchedule& gas_schedule() const { return gas_; }

  // Canonical hash of a block: header fields + the codec-serialized
  // transactions (gas, success flag, events and signatures included, so
  // a mutated receipt outcome breaks the hash link). Public so replay
  // verification and tamper tests can recompute it.
  [[nodiscard]] static std::array<std::uint8_t, 32> block_hash(const Block& b);

  // --- durability hooks (src/ledger) ---
  // At most one observer; pass nullptr to detach. Attaching requires no
  // unjournaled history (the ledger attaches at genesis or right after
  // restore_state).
  void set_observer(ChainObserver* observer) { observer_ = observer; }
  [[nodiscard]] bool recording() const { return observer_ != nullptr; }

  // Replaces this chain's state with a persisted image (ledger reopen).
  // Only legal on a chain that has seen no activity beyond genesis.
  // `contracts` become pending adoptions: the application re-deploys its
  // contract objects in the original order and deploy() re-binds each to
  // its persisted address + storage instead of sealing a new block.
  void restore_state(std::vector<Block> blocks,
                     std::map<Address, std::uint64_t> balances,
                     std::map<Address, crypto::G1Affine> account_keys,
                     std::map<Address, RestoredContract> contracts);

  // --- snapshot views (ledger state capture; unmetered) ---
  [[nodiscard]] const std::map<Address, std::uint64_t>& balances_map() const {
    return balances_;
  }
  [[nodiscard]] const std::map<Address, crypto::G1Affine>& account_keys()
      const {
    return account_keys_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Contract>>& contracts()
      const {
    return contracts_;
  }
  // Persisted contract states not yet re-bound to a contract object.
  [[nodiscard]] const std::map<Address, RestoredContract>& pending_adoptions()
      const {
    return pending_adoptions_;
  }

 private:
  void finish_deploy(const crypto::KeyPair& deployer,
                     std::unique_ptr<Contract> contract, Receipt* receipt);
  void seal_block(TxRecord tx);
  void seal_batch(std::vector<TxRecord> txs);
  // Applies a successful tx's buffered effects to chain state; returns
  // false (applying nothing) when a buffered transfer no longer clears
  // against committed state — a conflict only possible for undeclared
  // (policy-free) txs, surfaced as a commit-time abort.
  [[nodiscard]] bool apply_capture(const TxExecCapture& cap);
  [[nodiscard]] Contract* find_contract(const Address& addr);

  GasSchedule gas_;
  std::map<Address, std::uint64_t> balances_;
  std::map<Address, crypto::G1Affine> account_keys_;
  // Next expected nonce per sender. The only chain state readable from
  // outside the sequencer thread (TxPool::submit admission-checks it
  // from any producer thread while a batch commits), so it has its own
  // mutex; everything else on Chain is single-sequencer by contract.
  // Locks are tightly scoped and never held across contract execution,
  // sealing, or observer callbacks.
  mutable Mutex nonce_mu_{check::LockLevel::kChain, "chain.nonces_"};
  std::map<Address, std::uint64_t> nonces_ ZKDET_GUARDED_BY(nonce_mu_);
  std::vector<std::unique_ptr<Contract>> contracts_;
  std::vector<Block> blocks_;
  std::uint64_t timestamp_ = 1'650'000'000;
  std::uint64_t next_contract_id_ = 1;
  ChainObserver* observer_ = nullptr;
  StateDelta delta_;  // mutations since the last sealed block
  std::map<Address, RestoredContract> pending_adoptions_;
  static thread_local TxExecCapture* tls_capture_;
};

}  // namespace zkdet::chain
