#!/usr/bin/env python3
"""Build the MicroGrid benchmark from source and run one workload.

    python3 perfbench/run.py --workload npb_a --seed 2026 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark package (perfbench/) is
configured and built under $CARGO_TARGET_DIR (default .bench_build) in the
checkout; the first run builds, later runs only check the build is current.

A run prints progress lines, one "provenance:" line (git sha or source
hash, CPU model, core count, affinity, build type and compiler, seed,
window length, sample counts, simulated-output digest), and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics; a name printed by the harness that is not
in BENCHMARK.json, or missing from it, fails the run.

--self-test builds the harness tests, runs them, then runs a smoke size of
every workload traced and untraced and checks each result's metric names.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175  # a run must end within 180 s
BUILD_LIMIT_S = 850  # the first run, which builds, within 900 s


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets, deadline):
    """Configure once, then build `targets`; returns the build directory."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", *targets])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    return out


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        fail(f"no {path}", 2)
    return json.loads(path.read_text())


def git_sha():
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_sha256():
    """Hash of src/: identifies the program when the checkout has no .git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_harness(binary, args, deadline):
    """Run the harness; returns (progress lines, result dict)."""
    try:
        r = subprocess.run([str(binary), *args], capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr)
        fail(f"harness exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_names(result, names, label):
    got = set(result["metrics"])
    if got != set(names):
        fail(f"{label}: metric names differ from BENCHMARK.json: "
             f"missing {sorted(set(names) - got)}, unexpected {sorted(got - set(names))}")


def self_test(bench):
    deadline = time.monotonic() + BUILD_LIMIT_S
    out = build(["perfbench", "perfbench_test"], deadline)
    if subprocess.run([str(out / "perfbench_test")]).returncode != 0:
        fail("harness tests failed")
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", w["name"], "--seed", "7", "--seconds", "0", "--trace",
                    str(trace), "--smoke"]
            _, result = run_harness(out / "perfbench", args, time.monotonic() + RUN_LIMIT_S)
            label = f"{w['name']} smoke trace={trace}"
            check_names(result, [m["name"] for m in bench[key]], label)
            if not result["correct"]:
                fail(f"{label}: incorrect: {result['problems']}")
            print(f"{label}: ok, digest {result['digest']}")
    print("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    start = time.monotonic()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no MicroGrid source tree at {ROOT / 'src'}", 2)
    bench = spec()
    if args.self_test:
        self_test(bench)
        return
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}", 2)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    fresh = not (build_dir() / "perfbench").exists()
    out = build(["perfbench"], start + BUILD_LIMIT_S)
    deadline = start + (BUILD_LIMIT_S + 45 if fresh else RUN_LIMIT_S)

    harness_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
                    str(seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_file = out / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(exist_ok=True)
        harness_args += ["--trace-out", str(trace_file)]
    progress, result = run_harness(out / "perfbench", harness_args, deadline)

    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    check_names(result, units, args.workload)

    for line in progress:
        print(line)
    provenance = {
        "workload": args.workload,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "digest": result["digest"],
        "problems": result["problems"],
        **result["build"],
        **result["provenance"],
    }
    for key in ("p99_window_attribution", "span_self_s"):
        if key in result:
            provenance[key] = result[key]
    if trace_file is not None:
        provenance["trace_file"] = os.path.relpath(trace_file, ROOT)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
