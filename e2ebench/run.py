#!/usr/bin/env python3
"""End-to-end ZKDET benchmark: build zkdet_e2e, run one workload.

    python3 e2ebench/run.py --workload exchange|audit|transfer \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `zkdet_e2e` from source into
the build directory ($CARGO_TARGET_DIR, else `.bench_build`), makes a
private run directory there (durable ledgers, replica directories, the
AF_UNIX socket), runs the workload and removes the run directory again,
also when the run fails or is interrupted. The last stdout line is the
JSON result of zkdet_e2e; lines starting with '#' describe the run (host
cores, pool size, source revision, seed). A traced run also writes its
spans to <build dir>/traces/<workload>-seed<N>.json.

Exit code: zkdet_e2e's (0 ok, 1 a correctness gate failed, 2 set-up
error), 3 when the build fails, 4 when the run overran its time limit.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
POOL_WORKERS = max(1, min(4, os.cpu_count() or 1))
RUN_LIMIT_S = 170  # a run must end well inside 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds zkdet_e2e; returns the binary path or None."""
    cmake_dir = os.path.join(build_root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cfg = subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                return None
        res = subprocess.run(
            ["cmake", "--build", cmake_dir, "--target", "zkdet_e2e",
             "-j", str(POOL_WORKERS)],
            stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            return None
    return os.path.join(cmake_dir, "zkdet_e2e")


def source_revision(root):
    """Git revision when the checkout is a git repository, and a digest
    of the sources under src/ either way (checkouts may carry no .git)."""
    rev = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["exchange", "audit", "transfer"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--inject-accepted-probe", action="store_true",
                    help="smoke-test hook: make the audit probe gate fail")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("run.py: no ZKDET sources under ./src; run from the repo root")
        return 3
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if binary is None:
        log("run.py: build failed")
        return 3

    runs = os.path.join(build_root, "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="r", dir=runs)
    # zkdet_e2e gets a relative run directory so the AF_UNIX socket
    # path inside it stays short whatever the checkout's location.
    rel_run_dir = os.path.relpath(run_dir, root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--run-dir", rel_run_dir]
    if args.trace == "1":
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.inject_accepted_probe:
        cmd.append("--inject-accepted-probe")

    # Only this benchmark's settings reach the program: every other
    # ZKDET_* knob is dropped so the environment cannot skew a run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZKDET_")}
    env["ZKDET_THREADS"] = str(POOL_WORKERS)

    rev, digest = source_revision(root)
    print("# workload=%s seed=%d seconds=%s trace=%s" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("# host_cores=%d ZKDET_THREADS=%d git_rev=%s src_digest=%s" %
          (os.cpu_count() or 0, POOL_WORKERS, rev, digest), flush=True)

    child = None

    def stop(signum, _frame):
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        child = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                 text=True)
        try:
            out, _ = child.communicate(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            log("run.py: run exceeded %d s" % RUN_LIMIT_S)
            return 4
        sys.stdout.write(out)
        sys.stdout.flush()
        return child.returncode
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
