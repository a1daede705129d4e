// Canonical lock-order table.
//
// Every zkdet::Mutex registers one of these levels at construction.
// Under -DZKDET_CHECKED=ON, lockdep (check/mutex.cpp) keeps a
// thread-local stack of held locks and requires each acquisition to
// carry a level STRICTLY GREATER than the innermost held lock — i.e. a
// thread may acquire a higher level while holding a lower one, never
// the reverse, and never two locks of the same level. Any global
// acquisition order that respects a single total rank is deadlock-free,
// so an inversion here is reported as a deterministic ZKDET_CHECK
// failure without needing the deadly interleaving to actually occur.
//
// The table mirrors the subsystem call graph, outermost first:
//
//   RPC admission queue (kRpc)               outermost: the server's
//     -> TxPool (kTxPool), fault (kFault)    pump admits under it, but
//                                            dispatch runs lock-free
//   TxPool::submit/seal (kTxPool)
//     -> Chain nonce map (kChain)            admission reads nonces
//   Mempool (kMempool)                       reserved: mempool is
//                                            currently guarded by the
//                                            pool mutex itself
//   Arbiter shards (kArbiter)                reserved: shards are
//                                            serialized by declared
//                                            access sets, no mutex
//   Replication shipper (kReplShip)
//     -> Ledger io (kLedger)                 reading durable records /
//                                            snapshot bytes to ship
//     -> Link queues (kReplLink)             enqueue/dequeue datagrams
//   Replication follower (kReplFollower)
//     -> Link queues (kReplLink)             drain + ack
//   Ledger WAL/snapshot (kLedger)            observer callbacks, sync
//   Replication link queues (kReplLink)      transport seam; above
//                                            kLedger so a shipper
//                                            mid-read can enqueue, and
//                                            its fail-points can fire
//                                            (-> kFault) under it
//   StorageNetwork (kStorage)                repair/quarantine paths
//   ProverService cache (kProverCache)       one key map, ready and
//                                            in-flight entries; taken on
//                                            every key lookup, never held
//                                            while preprocessing
//   Thread pool queues (kPoolQueue)
//     -> sleep/wake latch (kPoolSleep)       pop() notifies under queue
//   parallel_for region (kPoolRegion)
//   Crypto parameter caches (kCryptoParams)
//   Fault registry (kFault)                  leaf: fault::fire() runs
//                                            under txpool/ledger/storage
//                                            locks
//
// Rule for adding a mutex: pick the level matching where it sits in the
// call graph (what can be held when it is taken; what it may take while
// held), add an enumerator + name here, and document the nesting in
// DESIGN.md "Compile-time concurrency analysis". Gaps between values
// are deliberate room for insertion.
#pragma once

#include <cstdint>

namespace zkdet::check {

enum class LockLevel : std::uint16_t {
  kRpc = 5,            // rpc::AdmissionQueue mu_ (bounded request queue)
  kTxPool = 10,        // txpool::TxPool mu_ (mempool + tickets)
  kMempool = 12,       // reserved for a split-out mempool lock
  kChain = 20,         // chain::Chain nonce_mu_ (account nonce map)
  kArbiter = 25,       // reserved: KeySecureArbiter shards use access sets
  kReplShip = 26,      // replication::Shipper mu_ (per-follower watermarks)
  kReplFollower = 27,  // replication::Follower mu_ (image + WAL head)
  kLedger = 30,        // ledger::Ledger io_mu_ (WAL writer + snapshot)
  kReplLink = 35,      // replication::InMemoryLink mu_ (datagram queues)
  kStorage = 40,       // storage::StorageNetwork m_
  kProverCache = 50,   // runtime::ProverService m_ (key map)
  kPoolQueue = 60,     // runtime thread-pool per-worker deques
  kPoolSleep = 62,     // runtime thread-pool sleep/wake latch
  kPoolRegion = 64,    // runtime parallel_for completion latch
  kCryptoParams = 70,  // crypto parameter caches (Poseidon round keys)
  kFault = 80,         // fault-point registry (innermost leaf)
};

constexpr const char* lock_level_name(LockLevel level) {
  switch (level) {
    case LockLevel::kRpc: return "Rpc";
    case LockLevel::kTxPool: return "TxPool";
    case LockLevel::kMempool: return "Mempool";
    case LockLevel::kChain: return "Chain";
    case LockLevel::kArbiter: return "Arbiter";
    case LockLevel::kReplShip: return "ReplShip";
    case LockLevel::kReplFollower: return "ReplFollower";
    case LockLevel::kLedger: return "Ledger";
    case LockLevel::kReplLink: return "ReplLink";
    case LockLevel::kStorage: return "Storage";
    case LockLevel::kProverCache: return "ProverCache";
    case LockLevel::kPoolQueue: return "PoolQueue";
    case LockLevel::kPoolSleep: return "PoolSleep";
    case LockLevel::kPoolRegion: return "PoolRegion";
    case LockLevel::kCryptoParams: return "CryptoParams";
    case LockLevel::kFault: return "Fault";
  }
  return "?";
}

}  // namespace zkdet::check
