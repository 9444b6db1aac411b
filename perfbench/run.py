#!/usr/bin/env python3
"""Builds the campus benchmark from source and runs one workload.

    python3 perfbench/run.py --workload campus_e2e --seed 2020 --seconds 12 --trace 0

Run from anywhere inside a checkout of the repository. The first call
configures and builds the src/ libraries plus the benchmark program into
.bench_build/perfbench (build output goes to stderr); later calls only
rebuild what changed. The program's stdout passes through unchanged: a host
line, a jobs line, and last the result JSON object. Traces and the
cross-workload digest log go to .bench_build/run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "run"
WORKLOADS = ("campus_e2e", "snapshot_figures", "logs_ingest")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}; nothing to build", 2)
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    compile_cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_campus"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return BUILD / "perfbench_campus"


def source_rev():
    """The git commit when there is one, else a hash of the sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "src"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return rev + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for path in sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        return "src-sha256:" + digest.hexdigest()[:16]


def recorded_digest(seed):
    baseline = json.loads((HERE / "baseline.json").read_text())
    return baseline.get("figure_digests", {}).get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    binary = build()
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK),
           "--source-rev", source_rev(), "--digest-log", str(WORK / "digests.log")]
    expected = recorded_digest(args.seed)
    if expected:
        cmd += ["--expect-digest", expected]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded 175 s", 4)


if __name__ == "__main__":
    sys.exit(main())
