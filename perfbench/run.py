#!/usr/bin/env python3
"""droute benchmark entry point.

Run from the root of a droute checkout:

    python3 perfbench/run.py --workload paper_grid --seed 1 --trace 0

--seconds defaults to BENCHMARK.json's run_seconds, the run length its
bounds were set on.

Builds perfbench/ (which builds ../src) into .bench_build/perfbench on first
use, runs one workload in one process, checks its outputs, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. Full results, with the machine fingerprint,
go to .bench_build/results/; Chrome traces of traced runs to
.bench_build/traces/.

Outcome digests must repeat for one build and seed: the first run stores
them under .bench_build/digests/, and later runs of the same binary compare
against them (a traced run also compares its per-layer work counts).

Other modes:

    python3 perfbench/run.py --selftest          # tests of the arithmetic
    python3 perfbench/run.py --compare A.json B.json

--compare prints the wall-time metrics of two result files side by side and
refuses (exit 3) when their machine fingerprints differ.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(STATE, "perfbench")
WORKLOADS = ("paper_grid", "world_fleet", "chaos_cases", "wire_uploads")
RUN_TIMEOUT_S = 170
# Environment overrides that would change what is measured: sharded fills
# add threads, and the audit toggle changes the work done per event.
PINNED_ENV = ("DROUTE_SHARD_WORKERS", "DROUTE_DEBUG_CHECKS")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configures and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/; run from a full droute checkout", 2)
    os.makedirs(STATE, exist_ok=True)
    log_path = os.path.join(STATE, "build.log")
    with open(os.path.join(STATE, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", target,
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD, target)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_repeats(result, binary_hash):
    """Digests and traced work counts must repeat for one build and seed."""
    os.makedirs(os.path.join(STATE, "digests"), exist_ok=True)
    key = "%s-seed%d" % (result["workload"], result["seed"])
    expected = {}
    if "digest" in result:
        expected["digest-ops%d" % result["digest_ops"]] = result["digest"]
    if result["trace"]:
        expected["trace-counts"] = result["counts"]
    for name, value in expected.items():
        path = os.path.join(STATE, "digests", "%s-%s.json" % (key, name))
        stored = None
        if os.path.isfile(path):
            with open(path) as f:
                stored = json.load(f)
        if stored is not None and stored["binary"] == binary_hash:
            if stored["value"] != value:
                result["check_failures"].append(
                    "%s differs from an earlier run of this build and seed"
                    % name)
                result["failed"] = result["attempted"]
                result["correct"] = False
            continue
        with open(path, "w") as f:
            json.dump({"binary": binary_hash, "value": value}, f,
                      sort_keys=True)


SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    """BENCHMARK.json, or None outside a checkout that has one."""
    if not os.path.isfile(SPEC_PATH):
        return None
    with open(SPEC_PATH) as f:
        return json.load(f)


def check_metric_names(result):
    """The reported metrics are exactly the ones BENCHMARK.json names."""
    spec = load_spec()
    if spec is None:
        return
    listed = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(set(got.items()) ^ set(want.items())), SPEC_PATH))


def run(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r; one of %s" % (args.workload,
                                                 ", ".join(WORKLOADS)), 2)
    binary = build("droute_perfbench")
    traces = os.path.join(STATE, "traces")
    os.makedirs(traces, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", traces]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload,
                                                    RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("droute_perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    check_metric_names(result)
    check_repeats(result, sha256(binary))

    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)

    fp = result["fingerprint"]
    print("fingerprint: %d cores, %s, %s, %s" % (
        fp["cores"], fp["cpu_model"], fp["compiler"], fp["build_type"]))
    info = result["info"]
    if "op_samples" in info:
        print("op samples: %d in %d chunks over %.3f s; set-up repeats: %d"
              % (info["op_samples"], info["chunks"], info["timed_s"],
                 info["setup_repeats"]))
    if "digest" in result:
        print("outcome digest: %s over the first %d ops" % (
            result["digest"], result["digest_ops"]))
    for failure in result["check_failures"][:20]:
        print("check failed: " + failure)
    print("full result: " + os.path.relpath(out, ROOT))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["fingerprint"] != b["fingerprint"]:
        print("refusing to compare wall times across machines:")
        print("  %s: %s" % (path_a, a["fingerprint"]))
        print("  %s: %s" % (path_b, b["fingerprint"]))
        sys.exit(3)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("results are of different workloads or modes", 2)
    print("%-32s %16s %16s %9s" % ("metric", "A", "B", "B/A"))
    for name in sorted(a["metrics"]):
        va = a["metrics"][name]["value"]
        vb = b["metrics"].get(name, {}).get("value")
        rel = "%9.3f" % (vb / va) if vb is not None and va else "%9s" % "-"
        print("%-32s %16.6g %16s %s" % (name, va,
                                        "-" if vb is None else "%.6g" % vb,
                                        rel))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    # The bounds in BENCHMARK.json hold for runs of its run_seconds.
    spec = load_spec()
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.selftest:
        sys.exit(subprocess.call([build("perfbench_selftest")]))
    elif args.workload:
        if args.seconds is None:
            parser.error("--seconds is required without BENCHMARK.json")
        run(args)
    else:
        parser.error("--workload, --selftest or --compare is required")


if __name__ == "__main__":
    main()
