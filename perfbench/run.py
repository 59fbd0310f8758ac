#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

Run from the repository root:

  python3 perfbench/run.py --workload <paper_run|zoo_sweep|serve_mix> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest          # the benchmark's own tests
  python3 perfbench/run.py --write-reference   # re-pin perfbench/reference

The driver is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and links the library built from ./src.
Build output goes to stderr; the driver's last stdout line is the JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_run", "zoo_sweep", "serve_mix")
# The driver must finish well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target: str) -> Path:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not any((out / name).exists() for name in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            return subprocess.run([str(build("perfbench_selftest"))]).returncode
        binary = build("perfbench")
    except (subprocess.CalledProcessError, FileNotFoundError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3

    common = ["--reference-dir", str(HERE / "reference"),
              "--work-dir", str(build_dir() / "work")]
    if args.write_reference:
        for workload in WORKLOADS:
            code = subprocess.run([str(binary), "--workload", workload,
                                   "--write-reference"] + common).returncode
            if code != 0:
                return code
        return 0

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace] + common
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
