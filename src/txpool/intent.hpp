// Signed transaction intents — what the mempool admits.
//
// An intent is a pre-signed, not-yet-executed transaction: the sender's
// signature covers (description, nonce) exactly as in Chain::call, the
// closure is the contract call to run at execution time, and the
// declared AccessSet drives conflict-free scheduling. Submission
// returns a Ticket that resolves to the receipt when the tx's batch is
// sealed (or to a failure when it is rejected or replaced).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "chain/chain.hpp"
#include "crypto/schnorr.hpp"
#include "txpool/access.hpp"

namespace zkdet::txpool {

struct TxIntent {
  // The signed transaction itself; `tx.policy` stays null until the pool
  // seals it, when it points at the enforcer of `access`.
  chain::BatchTx tx;
  AccessSet access;
  // Replacement policy: a resubmission of (sender, nonce) wins only
  // with strictly higher priority.
  std::uint64_t priority = 0;
};

// Builds a signed intent (signed by Chain::sign_tx, as Chain::call is).
[[nodiscard]] TxIntent make_intent(
    const crypto::KeyPair& sender, std::uint64_t nonce,
    std::string description, std::function<void(chain::CallContext&)> fn,
    AccessSet access = {}, std::uint64_t value = 0, chain::Address pay_to = {},
    std::uint64_t gas_limit = 30'000'000, std::uint64_t priority = 0,
    std::shared_ptr<const chain::ProofClaim> claim = {});

// Resolves when the tx leaves the pool: sealed into a block (receipt
// from execution), rejected as stale, or replaced. `ready` is written
// with release ordering after `receipt`, so a submitter polling from
// another thread reads a complete receipt.
struct Ticket {
  std::atomic<bool> ready{false};
  chain::Receipt receipt;

  void resolve(chain::Receipt r) {
    receipt = std::move(r);
    ready.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool done() const {
    return ready.load(std::memory_order_acquire);
  }
};
using TicketPtr = std::shared_ptr<Ticket>;

struct SubmitResult {
  bool accepted = false;
  std::string error;  // set when !accepted
  TicketPtr ticket;   // set when accepted
};

}  // namespace zkdet::txpool
