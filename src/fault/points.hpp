// Canonical fail-point catalog.
//
// Every fail-point name in the codebase lives here, as a named constant:
// instrumentation sites pass these symbols to fault::fire(), never raw
// string literals (enforced by scripts/lint_zkdet.py, rule
// fail-point-name). Keeping the catalog in one header makes the fault
// surface greppable and lets tests/docs enumerate it without scanning
// call sites.
//
// Naming: <subsystem>.<operation>[.<detail>], matching the seam the
// point guards. Semantics of a firing point, per site:
//
//   storage.put.node     a node rejects/misses a replica write (node down)
//   storage.fetch.node   a node fails a read (transient unreachability)
//   chain.submit         a transaction is dropped before reaching the
//                        sequencer (no block sealed, no state touched)
//   prover.job           a proof job dies on its worker (simulated crash);
//                        retried by ProverService::prove
//   exchange.verify      buyer-side offer verification aborts
//   exchange.lock        buyer client fails before issuing the lock tx
//   exchange.crash_after_lock
//                        buyer process crashes after the lock tx landed
//                        but before key negotiation (ExchangeDriver
//                        resumes from the persisted session + chain)
//   exchange.settle      seller client fails before issuing settle
//   exchange.recover     buyer client fails while recovering data
//   exchange.refund      buyer client fails before issuing refund
//   ledger.wal.append.torn
//                        process dies mid-append: only a prefix of the
//                        WAL record frame reaches the file (torn tail;
//                        recovery truncates it on reopen)
//   ledger.wal.append.corrupt
//                        a fully-written record frame has a flipped bit
//                        (media corruption; recovery treats the record
//                        as the torn tail and truncates)
//   ledger.fsync         fsync/fdatasync reports EIO; the write's
//                        durability is unknown and the ledger poisons
//                        itself (fail-stop) rather than continue
//   ledger.snapshot.write
//                        process dies while writing snapshot.tmp (the
//                        incomplete temp file is discarded on reopen;
//                        the previous snapshot + WAL stay authoritative)
//   txpool.admit.full    mempool admission rejects a tx as if capacity
//                        were exhausted (caller must resubmit)
//   txpool.exec.conflict-abort
//                        the batch executor aborts a tx at commit as an
//                        optimistic-concurrency conflict: included as
//                        failed, effects discarded, nonce consumed
//   txpool.seal.crash    process dies at the batch seal boundary,
//                        before any batch effect or WAL record lands;
//                        reopen converges to the pre-batch tip
//   repl.ship.drop       a shipped replication frame is lost in transit;
//                        the follower never sees it, the shipper times
//                        out on the missing ack and re-ships the batch
//                        after backoff
//   repl.ship.corrupt    a shipped frame arrives bit-flipped; the
//                        follower rejects it at the CRC check, never
//                        acks, and the shipper re-ships
//   repl.ship.diverge    the primary ships a self-consistent but
//                        DIFFERENT block (simulated fork: tampered
//                        content with a recomputed hash). The block-hash
//                        cross-check at the next acked watermark — or
//                        the follower's prev-hash link check — must
//                        fail-stop the pair; never a silent fork
//   repl.ack.lost        a follower ack is lost in transit; the shipper
//                        watermark goes stale and the re-shipped records
//                        are applied idempotently (seq <= applied)
//   repl.follower.crash  the follower process dies mid-apply; a fresh
//                        follower over the same directory resumes from
//                        its own durable watermark
//   rpc.accept           the server drops a freshly-accepted connection
//                        before any byte is exchanged (listen backlog
//                        overflow / transient accept failure); the
//                        client observes EOF and reconnects
//   rpc.session.disconnect
//                        a client vanishes right after its request was
//                        admitted (killed mid-settle): the work still
//                        runs to completion on-chain, the response is
//                        dropped on the closed session — the client must
//                        re-query state, never resubmit blindly
//   rpc.queue.full       admission sheds a request as if the bounded
//                        queue were full; the client receives a typed
//                        Overloaded response (retryable)
//   rpc.write.torn       the response write tears mid-frame and the
//                        connection dies: the client sees a CRC-invalid
//                        partial frame + EOF and treats the response as
//                        lost (state already committed server-side)
#pragma once

namespace zkdet::fault::points {

inline constexpr const char kStoragePutNode[] = "storage.put.node";
inline constexpr const char kStorageFetchNode[] = "storage.fetch.node";
inline constexpr const char kChainSubmit[] = "chain.submit";
inline constexpr const char kProverJob[] = "prover.job";
inline constexpr const char kExchangeVerify[] = "exchange.verify";
inline constexpr const char kExchangeLock[] = "exchange.lock";
inline constexpr const char kExchangeCrashAfterLock[] =
    "exchange.crash_after_lock";
inline constexpr const char kExchangeSettle[] = "exchange.settle";
inline constexpr const char kExchangeRecover[] = "exchange.recover";
inline constexpr const char kExchangeRefund[] = "exchange.refund";
inline constexpr const char kLedgerWalAppendTorn[] = "ledger.wal.append.torn";
inline constexpr const char kLedgerWalAppendCorrupt[] =
    "ledger.wal.append.corrupt";
inline constexpr const char kLedgerFsync[] = "ledger.fsync";
inline constexpr const char kLedgerSnapshotWrite[] = "ledger.snapshot.write";
inline constexpr const char kTxpoolAdmitFull[] = "txpool.admit.full";
inline constexpr const char kTxpoolExecConflictAbort[] =
    "txpool.exec.conflict-abort";
inline constexpr const char kTxpoolSealCrash[] = "txpool.seal.crash";
inline constexpr const char kReplShipDrop[] = "repl.ship.drop";
inline constexpr const char kReplShipCorrupt[] = "repl.ship.corrupt";
inline constexpr const char kReplShipDiverge[] = "repl.ship.diverge";
inline constexpr const char kReplAckLost[] = "repl.ack.lost";
inline constexpr const char kReplFollowerCrash[] = "repl.follower.crash";
inline constexpr const char kRpcAccept[] = "rpc.accept";
inline constexpr const char kRpcSessionDisconnect[] = "rpc.session.disconnect";
inline constexpr const char kRpcQueueFull[] = "rpc.queue.full";
inline constexpr const char kRpcWriteTorn[] = "rpc.write.torn";

// All registered points, for enumeration (tests, docs, tooling).
inline constexpr const char* kAll[] = {
    kStoragePutNode,    kStorageFetchNode,       kChainSubmit,
    kProverJob,         kExchangeVerify,         kExchangeLock,
    kExchangeCrashAfterLock, kExchangeSettle,    kExchangeRecover,
    kExchangeRefund,    kLedgerWalAppendTorn,    kLedgerWalAppendCorrupt,
    kLedgerFsync,       kLedgerSnapshotWrite,    kTxpoolAdmitFull,
    kTxpoolExecConflictAbort, kTxpoolSealCrash,  kReplShipDrop,
    kReplShipCorrupt,   kReplShipDiverge,        kReplAckLost,
    kReplFollowerCrash, kRpcAccept,              kRpcSessionDisconnect,
    kRpcQueueFull,      kRpcWriteTorn,
};

// The subset whose firing simulates a process kill or IO fault inside
// the durable-ledger write path (the crash-recovery matrix iterates
// exactly these).
inline constexpr const char* kLedgerAll[] = {
    kLedgerWalAppendTorn,
    kLedgerWalAppendCorrupt,
    kLedgerFsync,
    kLedgerSnapshotWrite,
};

// The replication fail-point family (the failover chaos matrix iterates
// exactly these: each one x every hit position, then kill the primary,
// promote a follower and require byte-identical convergence).
inline constexpr const char* kReplAll[] = {
    kReplShipDrop,
    kReplShipCorrupt,
    kReplShipDiverge,
    kReplAckLost,
    kReplFollowerCrash,
};

// The RPC serving-layer fail-point family (the rpc chaos schedules in
// tests/test_chaos.cpp iterate these: each one must leave funds
// conserved and every exchange settled xor refunded).
inline constexpr const char* kRpcAll[] = {
    kRpcAccept,
    kRpcSessionDisconnect,
    kRpcQueueFull,
    kRpcWriteTorn,
};

}  // namespace zkdet::fault::points
