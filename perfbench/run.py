#!/usr/bin/env python3
"""Benchmark entry point, run from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py exact-ref [--check]
    python3 perfbench/run.py goldens

Builds perfbench/perfbench.exe from source with dune, then runs the
workload in a fresh process from an empty result store under
.perfbench/, which is removed afterwards. With --trace 1 the workload
runs twice, untraced then traced, each in its own process and store:
the traced outputs must equal the untraced ones byte for byte, and the
per-layer metrics include the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units come
from BENCHMARK.json. Exits non-zero, printing no result, when the
program cannot be built or a run does not complete.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")
STATE = os.path.join(ROOT, ".perfbench")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found: run from the root of a repository checkout" % need)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    build_dir = os.path.join(ROOT, build_dir)
    env = dict(os.environ)
    # keep every build product inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(STATE, "xdg-cache")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "--build-dir", build_dir,
         "perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if proc.returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "default", "perfbench", "perfbench.exe")


def run_exe(exe, args, run_dir, timeout):
    """Run the executable in [run_dir] in its own process group; return
    its last stdout line as JSON. Every process it started is stopped
    before this returns."""
    os.makedirs(run_dir)
    proc = subprocess.Popen(
        [exe] + args + ["--reference", os.path.join(HERE, "reference"),
                        "--spawn-ns", str(time.monotonic_ns())],
        cwd=run_dir, stdout=subprocess.PIPE, stderr=sys.stderr,
        start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %ds" % (" ".join(args[:3]), timeout))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        die("%s exited with code %d" % (" ".join(args[:3]), proc.returncode))
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    return json.loads(lines[-1])


def setup_times(exe, args, base, indices):
    """Set-up times of set-up-only processes, each from its own store."""
    return [run_exe(exe, args + ["--trace", "0", "--setup-only"],
                    os.path.join(base, "setup-%d" % i), 60)["setup_s"]
            for i in indices]


def read(path):
    with open(path, "rb") as f:
        return f.read()


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("exact-ref", "goldens"):
        exe = build()
        run_dir = os.path.join(STATE, "%s-%d" % (sys.argv[1], os.getpid()))
        try:
            os.makedirs(run_dir)
            proc = subprocess.run(
                [exe] + sys.argv[1:]
                + ["--reference", os.path.join(HERE, "reference")],
                cwd=run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(proc.returncode)

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        die("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + a.workload)

    exe = build()
    args = ["run", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]
    base = os.path.join(STATE, "run-%d" % os.getpid())
    try:
        shutil.rmtree(base, ignore_errors=True)
        # set-up time is the median over this run's own set-up and four
        # set-up-only processes, two before it and two after, so that
        # one swing of the host's speed does not set it
        setups = setup_times(exe, args, base, range(2)) if a.trace == 0 else []
        plain_dir = os.path.join(base, "untraced")
        plain = run_exe(exe, args + ["--trace", "0"], plain_dir, RUN_TIMEOUT_S)
        if plain is None:
            die("no result from the untraced run")
        result, extra = plain, {}
        correct = plain["failed"] == 0
        if a.trace == 0:
            setups.append(plain["metrics"]["setup_s"])
            setups += setup_times(exe, args, base, range(2, 4))
            extra["setup_s"] = statistics.median(setups)
        if a.trace == 1:
            traced_dir = os.path.join(base, "traced")
            traced = run_exe(exe, args + ["--trace", "1"], traced_dir,
                             RUN_TIMEOUT_S)
            if traced is None:
                die("no result from the traced run")
            same = (read(os.path.join(plain_dir, "outputs.txt"))
                    == read(os.path.join(traced_dir, "outputs.txt")))
            result = traced
            result["attempted"] += 1
            if not same:
                result["failed"] += 1
                result["notes"].append(
                    "FAILED: traced outputs differ from the untraced run's")
            correct = result["failed"] == 0
            extra["trace.overhead_s"] = (traced["measured_s"]
                                         - plain["measured_s"])
            traces = os.path.join(STATE, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.copy(os.path.join(traced_dir, "spans.jsonl"),
                        os.path.join(traces, "%s-seed%d.spans.jsonl"
                                     % (a.workload, a.seed)))
    finally:
        shutil.rmtree(base, ignore_errors=True)

    declared = spec["per_layer"] if a.trace == 1 else spec["end_to_end"]
    measured = dict(result["metrics"])
    measured.update(extra)
    metrics = {}
    for m in declared:
        v = measured.get(m["name"])
        if v is None:
            if a.trace == 0:
                correct = False
                result["notes"].append("FAILED: no value for " + m["name"])
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print("perfbench: workload=%s seed=%d host_cores=%d measured_s=%.3f"
          % (a.workload, a.seed, result["host_cores"], result["measured_s"]))
    for note in result["notes"]:
        print("perfbench: " + note)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
