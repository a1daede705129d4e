#include "rpc/dispatch.hpp"

#include <future>
#include <utility>

#include "runtime/stats.hpp"
#include "txpool/txpool.hpp"

namespace zkdet::rpc {

namespace {

Response reject(const Request& rq, std::string why) {
  Response rs;
  rs.id = rq.id;
  rs.status = Status::kRejected;
  rs.text = std::move(why);
  return rs;
}

Response ok(const Request& rq) {
  Response rs;
  rs.id = rq.id;
  rs.status = Status::kOk;
  return rs;
}

bool is_tx_op(Op op) {
  return op == Op::kTransfer || op == Op::kLock || op == Op::kSettle ||
         op == Op::kRefund;
}

}  // namespace

Dispatcher::Dispatcher(core::ZkdetSystem& sys,
                       core::TransformationProtocol& transform,
                       std::uint64_t seed)
    : sys_(sys),
      transform_(transform),
      exchange_(sys, transform),
      rng_("zkdet-rpc-dispatch", seed) {}

const Dispatcher::Principal* Dispatcher::principal(
    std::uint64_t handle) const {
  if (handle == 0 || handle > principals_.size()) return nullptr;
  return &principals_[handle - 1];
}

Response Dispatcher::handle_serial(const Request& rq) {
  switch (rq.op) {
    case Op::kPing: {
      Response rs = ok(rq);
      rs.value = rq.a;
      return rs;
    }
    case Op::kRegister: {
      Principal p{crypto::KeyPair::generate(rng_), {}};
      p.addr = sys_.chain().create_account(p.keys, rq.a);
      principals_.push_back(std::move(p));
      Response rs = ok(rq);
      rs.value = principals_.size();  // handle
      return rs;
    }
    case Op::kPublish: {
      const Principal* p = principal(rq.client);
      if (p == nullptr) return reject(rq, "unknown client handle");
      if (rq.frs.empty()) return reject(rq, "empty dataset");
      auto asset = transform_.publish(p->keys, rq.frs);
      if (!asset) return reject(rq, "publish failed");
      const std::uint64_t token_id = asset->token_id;
      assets_.emplace(token_id, std::move(*asset));
      Response rs = ok(rq);
      rs.value = token_id;
      return rs;
    }
    case Op::kOffer: {
      const Principal* p = principal(rq.client);
      if (p == nullptr) return reject(rq, "unknown client handle");
      const auto it = assets_.find(rq.a);
      if (it == assets_.end()) return reject(rq, "unknown token");
      // The hosted marketplace offers under the trivial predicate (any
      // buyer may inspect via verify_offer / sample disclosure; richer
      // phi stays a library-level feature).
      const core::Predicate phi = [](gadgets::CircuitBuilder&,
                                     std::span<const gadgets::Wire>) {};
      auto offer = exchange_.make_offer(it->second, phi, "any");
      if (!offer) return reject(rq, "offer proof failed");
      offers_.push_back(std::move(*offer));
      Response rs = ok(rq);
      rs.value = offers_.size();  // offer handle
      return rs;
    }
    case Op::kReadExchange: {
      std::optional<chain::ExchangeInfo> xinfo;
      if (reads_ != nullptr) {
        xinfo = reads_->exchange(rq.a);
      } else if (rq.a >= 1) {
        xinfo = sys_.arbiter_for_exchange(rq.a).exchange(rq.a);
      }
      if (!xinfo) return reject(rq, "unknown exchange");
      Response rs = ok(rq);
      rs.value = static_cast<std::uint64_t>(xinfo->state);
      rs.aux = xinfo->amount;
      rs.fr = xinfo->k_c;
      return rs;
    }
    case Op::kReadBalance: {
      const Principal* p = principal(rq.client);
      if (p == nullptr) return reject(rq, "unknown client handle");
      Response rs = ok(rq);
      if (reads_ != nullptr) {
        rs.value = reads_->balance(p->addr);
        rs.aux = reads_->height();
      } else {
        rs.value = sys_.chain().balance(p->addr);
        rs.aux = sys_.chain().height();
      }
      return rs;
    }
    default:
      return reject(rq, "not a serial op");
  }
}

std::vector<Response> Dispatcher::run(std::span<const Request> requests) {
  runtime::counters::rpc_inflight.store(requests.size(),
                                        std::memory_order_relaxed);
  std::vector<Response> responses(requests.size());

  struct PendingTx {
    std::size_t index = 0;
    Op op = Op::kPing;
    txpool::TicketPtr ticket;
    // kLock only: the closure writes the arbiter-assigned id here, and
    // the session secrets are recorded once the ticket succeeds.
    std::shared_ptr<std::uint64_t> lock_id;
    ff::Fr k_v;
    std::uint64_t token_id = 0;
    chain::Address sender;  // kTransfer: balance read for the response
  };
  struct PendingProve {
    std::size_t index = 0;
    std::future<runtime::ProveOutcome> fut;
  };
  std::vector<PendingTx> txs;
  std::vector<PendingProve> proves;
  auto& pool = sys_.pool();

  // Phase 1: arrival order. Serial ops execute, prove jobs launch onto
  // the prover service (the round's proves coalesce into one group),
  // tx ops build + submit their signed intents into the mempool.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& rq = requests[i];
    if (rq.op == Op::kProve) {
      if (rq.frs.size() != 3) {
        responses[i] = reject(rq, "prove wants {key, key_blinder, k_v}");
        continue;
      }
      gadgets::CircuitBuilder bld =
          core::build_key_circuit(rq.frs[0], rq.frs[1], rq.frs[2]);
      // The same job ZkdetSystem::prove runs, so an RPC prove and an
      // in-process prove at the same rng stream position yield
      // byte-identical proofs. One attempt: no retry on this path.
      proves.push_back(PendingProve{
          i, sys_.prover().submit(
                 sys_.proof_job("pi_k", bld.cs(), bld.witness()))});
      continue;
    }
    if (!is_tx_op(rq.op)) {
      responses[i] = handle_serial(rq);
      continue;
    }

    const Principal* p = principal(rq.client);
    if (p == nullptr) {
      responses[i] = reject(rq, "unknown client handle");
      continue;
    }
    PendingTx pend;
    pend.index = i;
    pend.op = rq.op;
    switch (rq.op) {
      case Op::kTransfer: {
        const Principal* dest = principal(rq.a);
        if (dest == nullptr) {
          responses[i] = reject(rq, "unknown destination handle");
          continue;
        }
        txpool::AccessSet access;
        access.touch_account(p->addr).touch_account(dest->addr);
        auto intent = txpool::make_intent(
            p->keys, pool.next_nonce(p->addr), "rpc.transfer",
            [](chain::CallContext&) {}, std::move(access),
            /*value=*/rq.b, /*pay_to=*/dest->addr);
        auto res = pool.submit(std::move(intent));
        if (!res.accepted) {
          responses[i] = reject(rq, res.error);
          continue;
        }
        pend.ticket = std::move(res.ticket);
        pend.sender = p->addr;
        break;
      }
      case Op::kLock: {
        if (rq.a == 0 || rq.a > offers_.size()) {
          responses[i] = reject(rq, "unknown offer handle");
          continue;
        }
        const core::Offer& offer = offers_[rq.a - 1];
        // Checked before the k_v draw, so a rejected lock draws nothing;
        // make_lock_intent declines only a missing token.
        if (!sys_.nft().exists(offer.token_id)) {
          responses[i] = reject(rq, "offer token vanished");
          continue;
        }
        // Buyer k_v is drawn here — a stream-determined point — and
        // custodied until the matching settle/refund (hosted-wallet
        // analogue of BuyerSession).
        pend.k_v = rng_.random_fr();
        pend.token_id = offer.token_id;
        pend.lock_id = std::make_shared<std::uint64_t>(0);
        auto intent = exchange_.make_lock_intent(p->keys, offer, rq.b, rq.c,
                                                 pend.k_v, pend.lock_id);
        auto res = pool.submit(std::move(*intent));
        if (!res.accepted) {
          responses[i] = reject(rq, res.error);
          continue;
        }
        pend.ticket = std::move(res.ticket);
        break;
      }
      case Op::kSettle: {
        const auto sess = sessions_.find(rq.a);
        if (sess == sessions_.end()) {
          responses[i] = reject(rq, "unknown exchange");
          continue;
        }
        const auto asset = assets_.find(sess->second.token_id);
        if (asset == assets_.end()) {
          responses[i] = reject(rq, "seller asset missing");
          continue;
        }
        auto intent = exchange_.make_settle_intent(p->keys, asset->second,
                                                   rq.a, sess->second.k_v);
        if (!intent) {
          responses[i] = reject(rq, "settle rejected by seller checks");
          continue;
        }
        auto res = pool.submit(std::move(*intent));
        if (!res.accepted) {
          responses[i] = reject(rq, res.error);
          continue;
        }
        pend.ticket = std::move(res.ticket);
        break;
      }
      case Op::kRefund: {
        auto intent = exchange_.make_refund_intent(p->keys, rq.a);
        if (!intent) {
          responses[i] = reject(rq, "unknown exchange");
          continue;
        }
        auto res = pool.submit(std::move(*intent));
        if (!res.accepted) {
          responses[i] = reject(rq, res.error);
          continue;
        }
        pend.ticket = std::move(res.ticket);
        break;
      }
      default:
        responses[i] = reject(rq, "unreachable");
        continue;
    }
    txs.push_back(std::move(pend));
  }

  // Phase 2: one drain seals the round's intents into conflict-free
  // batches — same-batch settle claims share one folded pairing check.
  if (!txs.empty()) pool.drain();

  // Phase 3: resolve tickets into responses.
  for (PendingTx& pend : txs) {
    const Request& rq = requests[pend.index];
    if (!pend.ticket->done() || !pend.ticket->receipt.success) {
      responses[pend.index] =
          reject(rq, pend.ticket->done() ? pend.ticket->receipt.error
                                         : "tx not sealed");
      continue;
    }
    Response rs = ok(rq);
    switch (pend.op) {
      case Op::kTransfer:
        rs.value = sys_.chain().balance(pend.sender);
        break;
      case Op::kLock:
        rs.value = *pend.lock_id;
        sessions_[*pend.lock_id] = Session{pend.k_v, pend.token_id};
        break;
      case Op::kSettle:
      case Op::kRefund:
        rs.value = 1;
        break;
      default:
        break;
    }
    responses[pend.index] = std::move(rs);
  }

  // Phase 4: harvest the round's coalesced prove group.
  for (PendingProve& pend : proves) {
    const Request& rq = requests[pend.index];
    const auto outcome = pend.fut.get();
    if (!outcome.proof) {
      responses[pend.index] = reject(rq, "prover failed");
      continue;
    }
    Response rs = ok(rq);
    rs.bytes = outcome.proof->to_bytes();
    responses[pend.index] = std::move(rs);
  }
  if (!proves.empty()) {
    runtime::counters::rpc_batched_proves.fetch_add(
        proves.size(), std::memory_order_relaxed);
  }

  runtime::counters::rpc_inflight.store(0, std::memory_order_relaxed);
  return responses;
}

}  // namespace zkdet::rpc
