#!/usr/bin/env python3
"""Build the program and the benchmark program from source, then run one
benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/perfbench
and is redone only when a file under src/ or perfbench/ changed. Every file
a run writes lives in a fresh directory under .bench_build/runs that is
removed when the run ends. The benchmark's BENCH_ROW lines and its result line
are passed through; the result line must carry exactly the metrics that
BENCHMARK.json names for the mode. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "runs"
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_bounded(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group and return (status, stdout). On
    timeout the whole group (build tools spawn children) is killed and
    reaped before TimeoutExpired propagates."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def source_digest():
    """SHA-256 over every file the build reads, so a checkout without git
    metadata still identifies the code it measured."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10, check=True)
    except (subprocess.SubprocessError, OSError):
        return "none"
    return out.stdout.strip() or "none"


def build(digest):
    """Configure and build unless the binary already matches `digest`.
    Serialized with a lock so concurrent runs never build over each other."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    binary = BUILD_DIR / "perfbench"
    stamp = BUILD_DIR / "source_digest"
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if binary.exists() and stamp.exists() and \
                stamp.read_text().strip() == digest:
            return binary
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        jobs = str(min(4, os.cpu_count() or 1))
        for cmd in (configure,
                    ["cmake", "--build", str(BUILD_DIR), "-j", jobs]):
            status, _ = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                    stderr=sys.stderr)
            if status != 0:
                raise subprocess.CalledProcessError(status, cmd)
        stamp.write_text(digest + "\n")
        return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "hv" / "hypervisor.hpp").is_file():
        log(f"program sources not found under {ROOT / 'src'}")
        return 2

    digest = source_digest()
    try:
        binary = build(digest)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 3

    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch-dir", scratch,
           "--verdicts", str(BENCH_DIR / "campaign_verdicts.tsv"),
           "--git-sha", git_sha(), "--src-digest", digest]
    try:
        status, stdout = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 124
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = stdout.splitlines()
    if status not in (0, 1) or not lines:
        sys.stdout.write(stdout)
        log(f"benchmark exited with status {status}")
        return status or 1
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stdout.write(stdout)
        log("benchmark printed no result line")
        return 1
    want = expected_metrics(args.trace)
    if sorted(names) != sorted(want):
        print("\n".join(lines[:-1]))
        log(f"result metrics {names} differ from BENCHMARK.json {want}")
        return 4
    print("\n".join(lines), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
