#!/usr/bin/env python3
"""End-to-end benchmark of the comove ICPE pipeline.

Builds perfbench/ (the comove libraries from src/ plus the benchmark
driver) with CMake, then runs one workload:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else to .bench_build/. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def child_env(build):
    """Keeps compiler and program temporaries inside the build tree."""
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    env = child_env(out)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, target)


def run(cmd, env):
    """Runs `cmd` in its own process group; kills the group on timeout so
    no worker process outlives the run. Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"benchmark timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, stdout


def check_result(line, trace):
    """Parses the result line and checks its shape."""
    result = json.loads(line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"metrics differ from BENCHMARK.json: {got} vs {wanted}"
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="fleet or convoy")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-test")
    args = parser.parse_args()

    if args.selftest:
        binary = build("comove_perfbench_selftest")
        code, stdout = run([binary], child_env(build_dir()))
        sys.stdout.write(stdout)
        return code
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build("comove_perfbench")
    mode = "trace" if args.trace else "e2e"
    code, stdout = run([binary, mode, "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds)],
                       child_env(build_dir()))
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        print(f"benchmark exited with code {code}", file=sys.stderr)
        return 1
    check_result(lines[-1], args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
