#!/usr/bin/env python3
"""Builds hopdb_bench from this checkout and runs one workload.

    python3 benchmark/run.py --workload W --seed N --seconds T --trace 0|1
    python3 benchmark/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, as does everything a run writes. Build and program output
go to stderr; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
--out FILE also keeps that object, with workload, seed and trace added,
for compare.py. Exits nonzero without a result when the build or the run
fails, and nonzero after the result when an answer was wrong.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A first run builds and must end within 900 s, any other within 180 s.
BUILD_SECONDS = 720
RUN_SECONDS = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout):
    """Runs cmd with stdout on our stderr; kills its whole process group
    if it outlives `timeout`. Returns the exit code."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {cmd[0]}")


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no hopdb sources at {ROOT}: the benchmark builds the "
             "library from the checkout it sits in")
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        if run(["cmake", "-S", HERE, "-B", cmake_dir], BUILD_SECONDS) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if run(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
            "hopdb_bench"], BUILD_SECONDS) != 0:
        fail("build failed")
    return cmake_dir / "hopdb_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    work_dir = build_dir / "work"
    binary = build(build_dir)

    if args.self_test:
        sys.exit(run([binary, "--self-test", "--work-dir", work_dir],
                     RUN_SECONDS))

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        fail("--seconds must be at least 1")

    tag = f"{args.workload}-{args.seed}-{args.trace}"
    out_path = build_dir / f"run-{tag}.json"
    out_path.unlink(missing_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", seconds, "--trace", args.trace, "--out", out_path,
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out", build_dir / f"spans-{tag}.jsonl"]
    code = run(cmd, RUN_SECONDS)
    if code not in (0, 1) or not out_path.is_file():
        fail(f"hopdb_bench exited with {code}")
    record = json.loads(out_path.read_text())

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = record["metrics"]
    if sorted(m["name"] for m in wanted) != sorted(got):
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} has unit {got[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")

    result = {k: record[k] for k in ("correct", "attempted", "failed",
                                     "metrics")}
    if args.out:
        Path(args.out).write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    sys.exit(0 if code == 0 and record["correct"] else 1)


if __name__ == "__main__":
    main()
