#!/usr/bin/env python3
"""zkdet-specific static lint.

Mechanical rules that the generic toolchain cannot express, enforcing
the repo's correctness architecture (see DESIGN.md, "Correctness &
analysis tooling"):

  thread-outside-runtime   std::thread / std::jthread / pthread_create
                           only inside src/runtime (everything else goes
                           through the shared ThreadPool).
  raw-assert               no raw assert()/abort() outside tests/ — all
                           invariants ride the ZKDET_CHECK/ASSERT/DCHECK
                           tiers so the pluggable failure handler sees
                           them (static_assert is fine).
  nondeterminism           no rand()/srand()/random_device/clock reads in
                           prover or transcript paths (src/ff, src/ec,
                           src/plonk, src/gadgets): proofs must be
                           byte-identical across runs and worker counts.
  narrowing-cast           no casts to sub-64-bit integer types in the
                           arithmetic substrate (src/ff, src/ec) without
                           an explicit reviewed annotation; silent limb
                           truncation is how canonical-form bugs start.
  unbounded-retry          no while(true)/for(;;) loops in src/ — retry
                           and polling loops must carry an explicit
                           attempt cap (fault tolerance means giving up
                           cleanly, not spinning forever); reviewed
                           scheduler/sampling loops are annotated.
  fail-point-name          fault::fire() in src/ takes a named constant
                           from src/fault/points.hpp, never a raw string
                           literal — the catalog is the single source of
                           truth for the fault surface.
  vartime-scalar-mul       no variable-time scalar multiplication in
                           src/crypto: Point::mul(), the fixed-base
                           g1_/g2_mul_generator() and msm()/msm_g2() —
                           secret-scalar paths (keygen, signing nonces)
                           must use the constant-time
                           ec::g1_mul_generator_ct; reviewed public-data
                           call sites (verification) are annotated.
  direct-chain-call        no direct Chain::call() in src/core — protocol
                           transactions route through txpool::TxPool::call
                           (declared access sets, nonce assignment, pooled
                           batching). No annotated site remains; the rule
                           stays because a direct send signs at the chain
                           nonce and would consume a nonce that a queued
                           pooled intent of the same sender already holds.
  unbatched-verify         no inline plonk::verify() on settlement
                           paths (src/chain, src/core) — on-chain proof
                           checks ride the batched claim pipeline
                           (plonk::batch_verify_attributed folding one
                           pairing product per sealed block); reviewed
                           off-chain/fallback sites are annotated.
  unchecked-io             two-sided durability hygiene: outside
                           src/ledger/ no raw file IO (fstream, fopen,
                           fwrite, ::open/::write/fsync...) — durable
                           state goes through the ledger's checked
                           wrappers so every write sits behind the CRC
                           framing and fsync fail-point; inside
                           src/ledger/ no statement-position IO syscall
                           whose return value is silently discarded
                           (bench/fuzz/tests and their JSON emitters are
                           exempt).
  untracked-watermark      replication code (src/replication) must not
                           construct WAL writers or append records
                           outside the tracked apply path — a follower's
                           acked watermark is only honest if every byte
                           in its WAL went through verify -> append ->
                           sync -> durable_seq advance -> ack; the
                           reviewed apply-path sites are annotated.
  raw-socket-io            raw socket syscalls (::socket, ::connect,
                           ::recv, socketpair, <sys/socket.h>...) only
                           inside src/rpc (the sockio layer) and
                           src/replication (SocketLink) — everything
                           else speaks framed requests through
                           rpc::Client / replication::Link, so the CRC
                           framing, non-blocking discipline and rpc.*
                           fail-points can't be bypassed.
  env-knob                 no getenv() in src/ outside the reviewed,
                           documented environment knobs (ZKDET_THREADS,
                           ZKDET_FAULTS, ...), each annotated at its one
                           read site: configuration is an explicit
                           constructor argument, so a knob nothing sets
                           cannot creep back in.
  arbiter-tx               the arbiter transaction names ("arbiter.lock",
                           "arbiter.settle", "arbiter.refund",
                           "zkcp.lock", "zkcp.open") appear in src/ only
                           in src/core/exchange.cpp: each transaction has
                           one builder there, which every front end
                           (the synchronous API, src/rpc) calls, so its
                           declared access set cannot drift between
                           copies. Matched with string literals kept.
  contract-mirror          no container-typed data member (std::map,
                           std::vector, ...) in a class deriving from
                           Contract in src/chain: contract state lives
                           only in the contract's MeteredStore slots,
                           which a reverted transaction rolls back; a
                           C++ copy beside them does not roll back.

Suppression: append  // zkdet-lint: allow(<rule>)  to the offending
line (or the line above) after review.

Exit status: 0 clean, 1 findings, 2 usage/internal error.

--self-test runs the built-in corpus of seeded violations and verifies
every rule both fires and respects suppressions.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

REPO_SCOPES = ("src", "bench", "examples", "fuzz")
CPP_EXTENSIONS = {".cpp", ".hpp", ".h", ".cc", ".cxx"}

ALLOW_RE = re.compile(r"//\s*zkdet-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Strip string literals and comments before matching so rule regexes do
# not fire on prose. Order matters: raw strings, strings, chars, then
# comments.
STRIP_RES = [
    re.compile(r'R"\w*\(.*?\)\w*"', re.DOTALL),
    re.compile(r'"(?:[^"\\\n]|\\.)*"'),
    re.compile(r"'(?:[^'\\\n]|\\.)*'"),
    re.compile(r"//[^\n]*"),
    re.compile(r"/\*.*?\*/", re.DOTALL),
]


# Comments only, for rules that match string literals: a string is
# matched (and kept) first so a "//" inside it does not start a comment.
COMMENT_OR_STRING_RE = re.compile(
    r'R"\w*\(.*?\)\w*"|"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\''
    r"|(//[^\n]*|/\*.*?\*/)",
    re.DOTALL,
)


class Rule:
    def __init__(self, name, pattern, applies, why, keep_strings=False,
                 scan=None):
        self.name = name
        self.pattern = re.compile(pattern) if pattern else None
        self.applies = applies  # path predicate (repo-relative, POSIX)
        self.why = why
        self.keep_strings = keep_strings  # match literals, not only code
        # Whole-file check for rules a line regex cannot express: takes
        # the stripped code, returns the offending line numbers.
        self.scan = scan


CONTRACT_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+\w+\s*(?:final\s*)?:\s*(?:public\s+)?"
    r"(?:chain::)?Contract\b[^{;]*\{")
CONTAINER_RE = re.compile(
    r"\bstd::(?:map|multimap|unordered_map|unordered_multimap|set|multiset"
    r"|unordered_set|unordered_multiset|vector|deque|list|forward_list"
    r"|array|queue|priority_queue|stack)\s*<")
NON_MEMBER_RE = re.compile(r"^\s*(?:(?:public|protected|private)\s*:\s*)*"
                           r"(?:static|using|typedef|friend)\b")


def without_template_args(text: str) -> str:
    out, depth = [], 0
    for c in text:
        if c == "<":
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def contract_container_members(code: str) -> list[int]:
    """Lines of container-typed data members declared in the body of a
    class deriving from Contract (nested bodies are skipped)."""
    lines = []
    for cls in CONTRACT_CLASS_RE.finditer(code):
        depth, top = 1, []  # top: indices of the statement's depth-1 chars
        for i in range(cls.end(), len(code)):
            c = code[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    break
                decl = "".join(code[j] for j in top)
                if depth == 1 and "(" in without_template_args(decl):
                    top = []  # a function body ended
            elif depth == 1 and c == ";":
                decl = "".join(code[j] for j in top)
                match = CONTAINER_RE.search(decl)
                if (match and not NON_MEMBER_RE.match(decl)
                        and "(" not in without_template_args(decl)):
                    lines.append(code.count("\n", 0, top[match.start()]) + 1)
                top = []
            elif depth == 1:
                top.append(i)
    return lines


def _in(prefixes):
    return lambda p: any(p.startswith(pre) for pre in prefixes)


def _in_src_except_runtime(p):
    return p.startswith("src/") and not p.startswith("src/runtime/")


def _outside_tests(p):
    return not p.startswith("tests/")


RULES = [
    Rule(
        "thread-outside-runtime",
        r"\bstd::(thread|jthread)\b|\bpthread_create\b",
        _in_src_except_runtime,
        "spawn work through runtime::ThreadPool, not ad-hoc threads",
    ),
    Rule(
        "raw-assert",
        r"(?<!static_)(?<!\w)assert\s*\(|(?<!\w)abort\s*\(",
        _outside_tests,
        "use ZKDET_CHECK / ZKDET_ASSERT / ZKDET_DCHECK (src/check/check.hpp)",
    ),
    Rule(
        "nondeterminism",
        r"(?<!\w)s?rand\s*\(|\brandom_device\b|\brand_r\b"
        r"|\bstd::chrono::(system|steady|high_resolution)_clock\b"
        r"|(?<!\w)time\s*\(",
        _in(("src/ff/", "src/ec/", "src/plonk/", "src/gadgets/")),
        "prover/transcript paths must be deterministic; take randomness "
        "from crypto::Drbg passed in by the caller",
    ),
    Rule(
        "narrowing-cast",
        r"static_cast<\s*(?:std::)?(?:u?int(?:8|16|32)_t|char|short|unsigned"
        r"(?:\s+(?:char|short|int))?|int)\s*>"
        r"|\(\s*(?:std::)?(?:u?int(?:8|16|32)_t|unsigned\s+char|unsigned\s+short"
        r"|char|short)\s*\)\s*[\w(]",
        _in(("src/ff/", "src/ec/")),
        "review sub-64-bit truncation in the arithmetic substrate and "
        "annotate it with // zkdet-lint: allow(narrowing-cast)",
    ),
    Rule(
        "unbounded-retry",
        r"\bwhile\s*\(\s*(?:true|1)\s*\)|\bfor\s*\(\s*;\s*;\s*\)",
        _in(("src/",)),
        "bound retry/polling loops with an explicit attempt cap (e.g. "
        "runtime::BackoffPolicy, ExchangeDriver::Config::max_attempts); "
        "annotate reviewed scheduler/sampling loops",
    ),
    Rule(
        # Matched against stripped code: a string-literal argument blanks
        # to spaces, so anything but a points:: constant fails the
        # lookahead and fires.
        "fail-point-name",
        r"\bfault::fire\s*\(\s*(?!(?:fault::)?points::k\w+\s*\))",
        lambda p: p.startswith("src/") and not p.startswith("src/fault/"),
        "pass a named constant from src/fault/points.hpp to fault::fire() "
        "so the fail-point catalog stays the single source of truth",
    ),
    Rule(
        # The paren must follow the name (modulo whitespace), so the
        # constant-time `g1_mul_generator_ct(` never matches.
        "vartime-scalar-mul",
        r"\.mul\s*\(|\b(?:g1|g2)_mul_generator\s*\(|\bmsm(?:_g2)?\s*\(",
        _in(("src/crypto/",)),
        "secret scalars in src/crypto must use the constant-time "
        "ec::g1_mul_generator_ct; annotate reviewed public-data call "
        "sites with // zkdet-lint: allow(vartime-scalar-mul)",
    ),
    Rule(
        # The protocol layer sends txs through the pool so every tx gets
        # a nonce, a declared access set, and a shot at batching; a
        # direct Chain::call bypasses all three, and its chain-nonce
        # signature collides with any queued intent of the same sender.
        "direct-chain-call",
        r"\bchain\s*\(\s*\)\s*\.\s*call\s*\(|\bchain_\s*\.\s*call\s*\(",
        _in(("src/core/",)),
        "route protocol transactions through txpool::TxPool::call "
        "(nonce assignment, declared access sets, pooled batching); "
        "annotate reviewed direct sends with "
        "// zkdet-lint: allow(direct-chain-call)",
    ),
    Rule(
        # Settlement-path proof checks must ride the batched claim
        # pipeline: a tx carries its ProofClaim, chain stage 2.5 folds
        # every claim in the sealed block into ONE pairing product, and
        # the verifier contract consumes the verdict. An inline
        # plonk::verify on these paths silently forfeits the
        # amortization (and the per-entry attribution semantics).
        "unbatched-verify",
        r"\bplonk::verify\s*\(",
        _in(("src/chain/", "src/core/")),
        "settlement-path proofs verify through the batched claim "
        "pipeline (chain/claim.hpp + plonk::batch_verify_attributed); "
        "annotate reviewed off-chain or fallback sites with "
        "// zkdet-lint: allow(unbatched-verify)",
    ),
    Rule(
        # Raw file IO outside the ledger. The `(?<![\w)])::` lookbehind
        # keeps method definitions/calls like PoseidonCommitment::open()
        # from matching — only the global-namespace POSIX calls do.
        "unchecked-io",
        r"\bstd::(?:basic_)?[io]?fstream\b"
        r"|(?<!\w)f(?:open|write|read|sync|datasync)\s*\("
        r"|(?<![\w)])::(?:open|creat|read|pread|write|pwrite|ftruncate"
        r"|unlink|rename)\s*\(",
        lambda p: p.startswith("src/") and not p.startswith("src/ledger/"),
        "durable state is written only through src/ledger's checked IO "
        "wrappers (CRC framing, typed IoError, the ledger.fsync "
        "fail-point); raw file IO elsewhere bypasses crash-recovery",
    ),
    Rule(
        # Inside the ledger: an IO syscall in statement position has its
        # return value silently discarded — every write/fsync/close must
        # be checked (or the discard reviewed and annotated, e.g. the
        # destructor-path close which must not throw).
        "unchecked-io",
        r"^\s*(?:\(void\)\s*)?(?:::)?"
        r"(?:open|creat|read|pread|write|pwrite|fsync|fdatasync"
        r"|ftruncate|close|rename|unlink|fflush|fwrite|fread)\s*\(",
        _in(("src/ledger/",)),
        "check the return value of every IO syscall in src/ledger (throw "
        "IoError on failure); annotate reviewed discards with "
        "// zkdet-lint: allow(unchecked-io)",
    ),
    Rule(
        # A follower acks what it has durably applied; that claim is
        # only honest if every byte in its WAL arrived through the
        # tracked apply path (verify -> append -> sync -> advance
        # durable_seq_ -> ack). Any other WalWriter construction or
        # wal append inside the replication subsystem can desync the
        # on-disk WAL from the acked watermark — a silent-fork seed.
        "untracked-watermark",
        r"\bwal_?\w*\s*(?:->|\.)\s*(?:emplace|append)\s*\("
        r"|\bWalWriter\s*\(|\bopen_append\s*\(",
        _in(("src/replication/",)),
        "replication persists shipped records only through the tracked "
        "apply path (verify -> append -> sync -> durable_seq_ -> ack); "
        "annotate reviewed apply-path sites with "
        "// zkdet-lint: allow(untracked-watermark)",
    ),
    Rule(
        # Raw socket syscalls outside the two reviewed homes. Mirrors
        # unchecked-io's shape: the `(?<![\w)])::` lookbehind keeps
        # namespace-qualified calls (sockio::connect_tcp, this->send())
        # from matching — only global-namespace POSIX calls do — and a
        # short list of unmistakable bare names (socketpair, accept4,
        # setsockopt, ...) catches unqualified use. Including a socket
        # header anywhere else is itself a finding: there is no
        # legitimate reason to see sockaddr outside the sockio layer.
        "raw-socket-io",
        r"(?<![\w)])::(?:socket|socketpair|bind|listen|accept4?|connect"
        r"|send|sendto|sendmsg|recv|recvfrom|recvmsg|setsockopt|getsockopt"
        r"|shutdown|getsockname|getpeername)\s*\("
        r"|(?<![\w.:>])(?:socketpair|accept4|recvfrom|sendto|recvmsg"
        r"|sendmsg|setsockopt|getsockopt)\s*\("
        r"|#\s*include\s*<(?:sys/socket\.h|sys/un\.h|netinet/[\w./]+)>",
        lambda p: not p.startswith("src/rpc/")
        and not p.startswith("src/replication/"),
        "raw socket IO lives only in src/rpc (sockio) and "
        "src/replication (SocketLink); speak framed requests through "
        "rpc::Client / replication::Link instead, or annotate a "
        "reviewed site with // zkdet-lint: allow(raw-socket-io)",
    ),
    Rule(
        # Keep the concurrency annotation surface closed: every lock in
        # the tree must be a zkdet::Mutex so clang -Wthread-safety can
        # prove discipline and lockdep (-DZKDET_CHECKED) can rank-check
        # acquisition order. std primitives carry neither.
        "raw-mutex",
        r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
        r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock"
        r"|scoped_lock|shared_lock|condition_variable(?:_any)?"
        r"|call_once|once_flag)\b",
        lambda p: p.startswith("src/") and not p.startswith("src/check/"),
        "use zkdet::Mutex/MutexLock/UniqueLock/CondVar from check/mutex.hpp "
        "(Clang thread-safety capability + lockdep level from "
        "check/lock_order.hpp); annotate reviewed exceptions with "
        "// zkdet-lint: allow(raw-mutex)",
    ),
    Rule(
        # Every environment knob is an undeclared input to the program.
        # The reviewed ones (documented in README) carry an annotation at
        # their single read site; anything else is a constructor
        # argument or config field.
        "env-knob",
        r"(?<![\w.>])(?:std::)?(?:secure_)?getenv\s*\(",
        _in(("src/",)),
        "pass configuration explicitly (constructor argument or Config "
        "field); annotate a reviewed, documented knob with "
        "// zkdet-lint: allow(env-knob)",
    ),
    Rule(
        # An arbiter transaction's access set is enforced at execution,
        # so a second copy of its builder that drifts from the first
        # reverts transactions. Front ends call the core builders.
        "arbiter-tx",
        r'"(?:arbiter\.(?:lock|settle|refund)|zkcp\.(?:lock|open))"',
        lambda p: p.startswith("src/") and p != "src/core/exchange.cpp",
        "build arbiter transactions with the KeySecureExchange / "
        "ZkcpExchange builders in src/core/exchange.cpp "
        "(make_lock_intent, make_settle_intent, make_refund_intent) "
        "instead of declaring the transaction again",
        keep_strings=True,
    ),
    Rule(
        # A second copy of contract state beside the metered slots is
        # written directly and survives a revert, so escrow and token
        # state diverge from what the chain committed.
        "contract-mirror",
        None,
        _in(("src/chain/",)),
        "keep contract state in the contract's MeteredStore slots and "
        "decode it with the record's read_* function; a container member "
        "is not rolled back when a transaction reverts",
        scan=contract_container_members,
    ),
]


def strip_noncode(text: str) -> str:
    """Blank out strings and comments, preserving line structure."""

    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    for pattern in STRIP_RES:
        text = pattern.sub(blank, text)
    return text


def strip_comments(text: str) -> str:
    """Blank out comments only, preserving line structure."""

    def blank(match: re.Match) -> str:
        if match.group(1) is None:
            return match.group(0)  # a string or char literal: keep
        return re.sub(r"[^\n]", " ", match.group(0))

    return COMMENT_OR_STRING_RE.sub(blank, text)


def allowed_rules(line: str) -> set[str]:
    m = ALLOW_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def lint_file(root: pathlib.Path, path: pathlib.Path) -> list[tuple]:
    rel = path.relative_to(root).as_posix()
    rules = [r for r in RULES if r.applies(rel)]
    if not rules:
        return []
    raw_lines = path.read_text(errors="replace").splitlines()
    code_lines = strip_noncode("\n".join(raw_lines)).splitlines()
    literal_lines = strip_comments("\n".join(raw_lines)).splitlines()
    scanned = {
        rule.name: set(rule.scan("\n".join(code_lines)))
        for rule in rules if rule.scan
    }
    findings = []
    for lineno, code in enumerate(code_lines, start=1):
        for rule in rules:
            if rule.scan:
                if lineno not in scanned[rule.name]:
                    continue
            else:
                text = literal_lines[lineno - 1] if rule.keep_strings else code
                if not rule.pattern.search(text):
                    continue
            allows = allowed_rules(raw_lines[lineno - 1])
            if lineno >= 2:
                allows |= allowed_rules(raw_lines[lineno - 2])
            if rule.name in allows:
                continue
            findings.append((rel, lineno, rule, raw_lines[lineno - 1].strip()))
    return findings


def lint_tree(root: pathlib.Path) -> list[tuple]:
    findings = []
    for scope in REPO_SCOPES:
        base = root / scope
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CPP_EXTENSIONS and path.is_file():
                findings.extend(lint_file(root, path))
    return findings


def report(findings: list[tuple]) -> None:
    for rel, lineno, rule, line in findings:
        print(f"{rel}:{lineno}: [{rule.name}] {line}")
        print(f"    {rule.why}")


# --- self-test ----------------------------------------------------------

SELF_TEST_CASES = [
    # (path, contents, rule expected to fire — or None for a clean file)
    ("src/core/foo.cpp", "#include <thread>\nstd::thread t(f);\n",
     "thread-outside-runtime"),
    ("src/runtime/pool.cpp", "std::thread worker(loop);\n", None),
    ("src/ff/bar.cpp", "void f() { assert(x > 0); }\n", "raw-assert"),
    ("src/ff/ok.cpp", "static_assert(sizeof(int) == 4);\n", None),
    ("src/chain/die.cpp", "void f() { abort(); }\n", "raw-assert"),
    ("tests/test_x.cpp", "void f() { assert(true); }\n", None),
    ("src/plonk/bad_rng.cpp", "int r = rand();\n", "nondeterminism"),
    ("src/plonk/clock.cpp",
     "auto t = std::chrono::steady_clock::now();\n", "nondeterminism"),
    ("src/core/clock_ok.cpp",
     "auto t = std::chrono::steady_clock::now();\n", None),  # out of scope
    ("src/ec/narrow.cpp", "auto x = static_cast<std::uint8_t>(v);\n",
     "narrowing-cast"),
    ("src/ec/narrow_ok.cpp",
     "auto x = static_cast<std::uint8_t>(v);"
     "  // zkdet-lint: allow(narrowing-cast)\n", None),
    ("src/ff/wide_ok.cpp", "auto x = static_cast<std::uint64_t>(v);\n", None),
    ("src/gadgets/comment_ok.cpp", "// assert(false) in prose is fine\n",
     None),
    ("src/ff/string_ok.cpp", 'const char* s = "assert(x)";\n', None),
    ("src/crypto/prev_line.cpp",
     "// zkdet-lint: allow(raw-assert)\nabort();\n", None),
    ("src/chain/spin.cpp", "void f() { while (true) { poll(); } }\n",
     "unbounded-retry"),
    ("src/storage/spin1.cpp", "void f() { while(1) retry(); }\n",
     "unbounded-retry"),
    ("src/core/forever.cpp", "void f() { for (;;) step(); }\n",
     "unbounded-retry"),
    ("src/runtime/loop_reviewed.cpp",
     "for (;;) {  // zkdet-lint: allow(unbounded-retry)\n", None),
    ("src/core/bounded_ok.cpp",
     "for (int i = 0; i < cfg.max_attempts; ++i) { attempt(); }\n", None),
    ("src/core/while_cond_ok.cpp", "while (pending > 0) { drain(); }\n",
     None),
    ("src/storage/fp_raw.cpp",
     '#include "fault/fault.hpp"\n'
     'if (fault::fire("storage.put.node")) return;\n',
     "fail-point-name"),
    ("src/storage/fp_var.cpp", "if (fault::fire(point_name)) return;\n",
     "fail-point-name"),
    ("src/storage/fp_ok.cpp",
     "if (fault::fire(fault::points::kStoragePutNode)) return;\n", None),
    ("src/chain/fp_using_ok.cpp",
     "if (fault::fire(points::kChainSubmit)) return;\n", None),
    ("src/fault/fp_impl_ok.cpp",
     'bool fire_slow(const char* p); auto x = fault::fire("self");\n', None),
    ("src/crypto/sig_vartime.cpp", "kp.pk = G1::generator().mul(kp.sk);\n",
     "vartime-scalar-mul"),
    ("src/crypto/sig_fixed_base.cpp", "sig.r = ec::g1_mul_generator(k);\n",
     "vartime-scalar-mul"),
    ("src/crypto/sig_fixed_base_g2.cpp", "auto q = ec::g2_mul_generator(k);\n",
     "vartime-scalar-mul"),
    ("src/crypto/sig_msm.cpp",
     "const G1 p = ec::msm(std::span<const Fr>(&k, 1), bases);\n",
     "vartime-scalar-mul"),
    ("src/crypto/sig_msm_g2.cpp", "auto q = msm_g2(scalars, bases);\n",
     "vartime-scalar-mul"),
    ("src/crypto/sig_ct_ok.cpp", "kp.pk = ec::g1_mul_generator_ct(kp.sk);\n",
     None),
    ("src/crypto/sig_msm_allow_ok.cpp",
     "const G1 lhs =\n"
     "    ec::g1_mul_generator(s) +  // zkdet-lint: allow(vartime-scalar-mul)\n"
     "    ec::msm(es, pks);  // zkdet-lint: allow(vartime-scalar-mul)\n",
     None),
    ("src/crypto/msm_name_ok.cpp",
     "std::size_t msm_terms = 2; auto w = ec::msm_window_size(n, 64);\n",
     None),
    ("src/plonk/msm_scope_ok.cpp", "c.rhs = ec::msm(scalars, bases);\n",
     None),
    ("src/crypto/sig_allow_ok.cpp",
     "return pk.mul(e);  // zkdet-lint: allow(vartime-scalar-mul)\n", None),
    ("src/chain/mul_scope_ok.cpp", "auto p = base.mul(k);\n", None),
    ("src/core/direct_call.cpp",
     "auto r = sys_.chain().call(buyer, desc, fn);\n", "direct-chain-call"),
    ("src/core/direct_call_member.cpp", "auto r = chain_.call(from, d, fn);\n",
     "direct-chain-call"),
    ("src/core/direct_call_allow_ok.cpp",
     "// zkdet-lint: allow(direct-chain-call)\n"
     "auto r = sys_.chain().call(buyer, desc, fn);\n", None),
    ("src/core/pool_call_ok.cpp",
     "auto r = sys_.pool().call(buyer, desc, fn, access);\n", None),
    ("src/chain/chain_scope_ok.cpp", "auto r = chain_.call(from, d, fn);\n",
     None),  # the chain layer itself is out of scope
    ("src/chain/inline_verify.cpp",
     "bool ok = plonk::verify(vk_, publics, proof);\n", "unbatched-verify"),
    ("src/core/inline_verify.cpp",
     "return plonk::verify(keys->vk, publics, offer.proof_p);\n",
     "unbatched-verify"),
    ("src/core/inline_verify_allow_ok.cpp",
     "// zkdet-lint: allow(unbatched-verify) reviewed: off-chain check\n"
     "return plonk::verify(keys->vk, publics, proof);\n", None),
    ("src/chain/prepare_ok.cpp",
     "auto pc = plonk::verify_prepare(vk_, publics, proof);\n", None),
    ("src/plonk/verify_impl_ok.cpp",
     "bool v = plonk::verify(vk, publics, proof);\n", None),  # out of scope
    ("src/chain/raw_stream.cpp",
     '#include <fstream>\nstd::ofstream out("state.bin");\n', "unchecked-io"),
    ("src/storage/raw_write.cpp",
     "const ssize_t n = ::write(fd, buf, len);\n", "unchecked-io"),
    ("src/core/raw_fopen.cpp", 'FILE* f = fopen(path, "wb");\n',
     "unchecked-io"),
    ("src/crypto/method_open_ok.cpp",
     "bool PoseidonCommitment::open(const Fr& c) { return check(c); }\n",
     None),
    ("bench/json_out_ok.cpp",
     '#include <fstream>\nstd::ofstream json("BENCH_x.json");\n',
     None),  # bench/fuzz/tests are exempt from unchecked-io
    ("src/ledger/io_checked_ok.cpp",
     "const ssize_t n = ::write(fd, buf, len);\nif (n < 0) fail();\n", None),
    ("src/ledger/io_discard.cpp", "void f() {\n  ::fsync(fd);\n}\n",
     "unchecked-io"),
    ("src/ledger/io_void_discard.cpp", "(void)::close(fd);\n",
     "unchecked-io"),
    ("src/ledger/io_allow_ok.cpp",
     "::close(fd);  // zkdet-lint: allow(unchecked-io) dtor close\n", None),
    # untracked-watermark: WAL writes in src/replication must ride the
    # tracked apply path (or carry a reviewed annotation).
    ("src/replication/rogue_append.cpp", "void f() { wal_->append(rec); }\n",
     "untracked-watermark"),
    ("src/replication/rogue_writer.cpp",
     "ledger::WalWriter w(ledger::File::open_append(p), false);\n",
     "untracked-watermark"),
    ("src/replication/rogue_emplace.cpp",
     "wal_.emplace(ledger::File::open_append(p), false);\n",
     "untracked-watermark"),
    ("src/replication/apply_path_ok.cpp",
     "wal_->append(rec);  // zkdet-lint: allow(untracked-watermark)\n",
     None),
    ("src/replication/string_append_ok.cpp",
     "void f() { diagnostic.append(why); }\n", None),  # not a WAL handle
    ("src/ledger/wal_home_ok.cpp",
     "WalWriter w(File::open_append(p), true);\n",
     None),  # the WAL's own home is out of scope
    # raw-socket-io: socket syscalls live only in src/rpc (sockio) and
    # src/replication (SocketLink).
    ("src/core/raw_socket.cpp",
     "int s = ::socket(AF_INET, SOCK_STREAM, 0);\n", "raw-socket-io"),
    ("src/storage/sock_hdr.cpp", "#include <sys/socket.h>\n",
     "raw-socket-io"),
    ("src/chain/bare_pair.cpp",
     "int rc = socketpair(AF_UNIX, SOCK_STREAM, 0, sv);\n", "raw-socket-io"),
    ("src/runtime/bare_sockopt.cpp",
     "setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);\n",
     "raw-socket-io"),
    ("src/rpc/sock_home_ok.cpp",
     "int s = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"
     "#include <sys/socket.h>\n", None),  # the sockio home is legal
    ("src/replication/sock_link_ok.cpp", "#include <sys/un.h>\n", None),
    ("src/core/member_send_ok.cpp",
     "link.send_to_follower(bytes);\nauto d = link.recv_at_primary();\n"
     "auto fd = sockio::connect_tcp(port);\n", None),  # members/namespaced
    ("src/core/sock_allow_ok.cpp",
     "int s = ::socket(AF_UNIX, SOCK_STREAM, 0);"
     "  // zkdet-lint: allow(raw-socket-io)\n", None),
    # raw-mutex: std locking primitives are banned in src/ outside
    # src/check/ (the annotated-wrapper home).
    ("src/chain/raw_mutex.cpp", "static std::mutex mu;\n", "raw-mutex"),
    ("src/storage/raw_guard.cpp",
     "const std::lock_guard<std::mutex> lk(m_);\n", "raw-mutex"),
    ("src/runtime/raw_ulock.cpp", "std::unique_lock<std::mutex> lk(m);\n",
     "raw-mutex"),
    ("src/ledger/raw_scoped.cpp", "std::scoped_lock lk(a, b);\n",
     "raw-mutex"),
    ("src/runtime/raw_cv.cpp", "std::condition_variable cv;\n", "raw-mutex"),
    ("src/plonk/raw_once.cpp",
     "std::once_flag once;\nstd::call_once(once, init);\n", "raw-mutex"),
    ("src/check/wrapper_home_ok.cpp",
     "std::mutex m_;\nstd::condition_variable cv_;\n",
     None),  # the wrapper implementation itself is the one legal home
    ("src/core/wrapped_ok.cpp",
     "zkdet::Mutex mu{check::LockLevel::kChain};\nconst MutexLock lk(mu);\n",
     None),
    ("src/crypto/mutex_prose_ok.cpp",
     "// std::mutex is banned here; use zkdet::Mutex\n", None),
    ("src/storage/mutex_allow_ok.cpp",
     "std::mutex special_;  // zkdet-lint: allow(raw-mutex) FFI handoff\n",
     None),
    ("src/runtime/mutex_allow_prev_ok.cpp",
     "// zkdet-lint: allow(raw-mutex)\nstd::mutex legacy_;\n", None),
    ("tests/test_threads_ok.cpp", "std::mutex m;\n", None),  # out of scope
    # env-knob: getenv in src/ only at annotated, reviewed knob sites.
    ("src/txpool/env_knob.cpp",
     'const char* v = std::getenv("ZKDET_TXPOOL_BATCH");\n', "env-knob"),
    ("src/core/env_knob_bare.cpp",
     'if (const char* v = getenv("ZKDET_X")) use(v);\n', "env-knob"),
    ("src/runtime/env_knob_allow_ok.cpp",
     'const char* v = std::getenv("ZKDET_THREADS");'
     "  // zkdet-lint: allow(env-knob)\n", None),
    ("src/core/env_prose_ok.cpp",
     "// reads ZKDET_DATA_DIR via std::getenv() at start-up\n", None),
    ("tests/test_env_ok.cpp",
     'const char* v = std::getenv("ZKDET_CHAOS_SEEDS");\n',
     None),  # out of scope
    # arbiter-tx: arbiter transaction names only in src/core/exchange.cpp.
    ("src/rpc/second_lock.cpp",
     'auto in = txpool::make_intent(keys, n, "arbiter.lock", fn, access);\n',
     "arbiter-tx"),
    ("src/core/exchange.cpp",
     'return txpool::make_intent(buyer, n, "arbiter.refund", fn, access);\n'
     'auto r = pool.call(txpool::make_intent(b, n, "zkcp.lock", fn));\n',
     None),  # the builders' one home
    ("src/rpc/arbiter_prose_ok.cpp",
     '// the dispatcher never names "arbiter.settle" itself\n', None),
    # contract-mirror: no container data member in a Contract subclass.
    ("src/chain/mirror.hpp",
     "class Book : public Contract {\n public:\n  void add(int x);\n"
     " private:\n  std::uint64_t next_id_ = 1;\n"
     "  std::map<std::uint64_t, Entry> entries_;\n};\n",
     "contract-mirror"),
    ("src/chain/token_info_ok.hpp",
     "struct TokenInfo {\n  std::uint64_t id = 0;\n"
     "  std::vector<std::uint64_t> prev_ids;\n};\n"
     "class DataNft : public Contract {\n public:\n"
     "  std::vector<std::uint64_t> provenance(std::uint64_t id) const;\n"
     "  std::optional<TokenInfo> token(std::uint64_t id) const {\n"
     "    std::vector<int> scratch;\n    return read(scratch);\n  }\n"
     " private:\n  DataNft& nft_;\n};\n", None),
    ("src/chain/nested_type_ok.hpp",
     "class Book : public Contract {\n"
     "  struct Page {\n    std::vector<int> lines;\n  };\n"
     "  std::uint64_t first_id_;\n};\n", None),
    ("src/chain/braced_member.hpp",
     "class Book : public chain::Contract {\n"
     "  std::vector<std::uint64_t> ids_{1, 2};\n};\n", "contract-mirror"),
]


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="zkdet-lint-") as tmp:
        root = pathlib.Path(tmp)
        for rel, contents, _ in SELF_TEST_CASES:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(contents)
        findings = lint_tree(root)
        fired = {(f[0], f[2].name) for f in findings}
        for rel, _, expected in SELF_TEST_CASES:
            if expected is None:
                hits = [name for (path, name) in fired if path == rel]
                if hits:
                    print(f"self-test FAIL: {rel} unexpectedly flagged {hits}")
                    failures += 1
            elif (rel, expected) not in fired:
                print(f"self-test FAIL: {rel} did not trigger {expected}")
                failures += 1
    if failures == 0:
        print(f"self-test OK: {len(SELF_TEST_CASES)} cases")
        return 0
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: whole tree)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation corpus and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    if args.paths:
        findings = []
        for p in args.paths:
            path = pathlib.Path(p).resolve()
            if not path.is_file():
                print(f"not a file: {p}", file=sys.stderr)
                return 2
            findings.extend(lint_file(root, path))
    else:
        findings = lint_tree(root)

    if findings:
        report(findings)
        print(f"\n{len(findings)} finding(s)")
        return 1
    print("lint OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
