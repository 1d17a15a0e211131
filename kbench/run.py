#!/usr/bin/env python3
"""Build and run the kcoup benchmark.

    python3 kbench/run.py --workload serve_hot --seed 1 --seconds 15 --trace 0

Run from the repository root.  The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake before every run; an
up-to-date build costs about a second.  Scratch files, traces and per-run
results go under .bench_out/.  The last line of standard output is the
result object; the line before it holds the run's metadata.  The exit code
is nonzero when the build fails or any output differs from its reference.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_mixed", "serve_reload", "campaign_sweep")


def log(msg):
    print(f"kbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build the kbench target; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", build_dir, "--target", "kbench", "-j", jobs]
    for cmd in ([] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
                else [configure]) + [make]:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "kbench")


def revision():
    """The git commit when the checkout is a git repository, else 'none'."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "none"


def source_digest():
    """SHA-256 over the program and benchmark sources, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "kbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    binary = build(os.path.join(build_dir, "kbench"))
    if binary is None:
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--revision", revision(),
           "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded its time limit")
        return 3
    lines = out.splitlines()
    if proc.returncode in (0, 1) and len(lines) >= 2:
        name = f"result-{args.workload}-{args.seed}-trace{args.trace}.jsonl"
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(lines[-2] + "\n" + lines[-1] + "\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
