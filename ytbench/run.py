#!/usr/bin/env python3
"""Repository benchmark for the YOUTIAO designer.

    python3 ytbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 ytbench/run.py --workload all [--seed N --seconds T --trace 0|1]
    python3 ytbench/run.py --self-test

Run from the root of a source tree. Builds ytbench/ (the youtiao
libraries plus the yt_bench harness, Release) under $CARGO_TARGET_DIR
(default .bench_build), runs one workload in one process with the
workload's YOUTIAO_THREADS, checks its outputs and prints one JSON result
as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics of a traced pass, including the per-layer self
time computed here from the pass's Chrome trace. --workload all runs
every workload once and prints a table of every metric by name and unit
with the attempted/failed counts. --self-test runs every workload on
tiny inputs and checks the benchmark itself.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

# Thread count per workload; never more than half the cores (minimum 1).
WORKLOAD_THREADS = {"flat-route": 1, "design-fit": 1, "hier-scale": 2}

# Layer (src/ module) of each span in the trace: the harness's own spans
# (category "bench") are named "<layer>.<call>"; library spans map here.
LAYERS = ["chip", "noise", "graph", "partition", "multiplex", "core",
          "routing", "circuit", "sim", "bench"]
LIBRARY_SPAN_LAYER = {
    "design.characterization_fit": "noise",
    "design.crosstalk_predict": "noise",
    "design.distance_matrices": "graph",
    "design.partition": "partition",
    "design.xy_grouping": "multiplex",
    "design.frequency_allocation": "multiplex",
    "design.tdm_grouping": "multiplex",
    "design.readout_planning": "multiplex",
    "hier.design": "core",
    "hier.route": "routing",
}

HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"ytbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def nproc():
    return os.cpu_count() or 1


def workload_threads(name):
    return min(WORKLOAD_THREADS[name], max(1, nproc() // 2))


def build(root):
    """Configure (once) and build yt_bench; returns the binary's path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no youtiao sources (src/CMakeLists.txt) in " + str(root))
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "ytbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "ytbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "yt_bench",
                  "-j", str(min(4, nproc()))])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S).returncode
        if rc != 0:
            fail("build failed: " + " ".join(cmd))
    return target, build_dir / "yt_bench"


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def self_times(trace_path, traced_wall_s):
    """Per-layer self time (span minus child spans) on the main thread.

    The main thread is the one running the harness's "bench.pass" span;
    pool workers' spans overlap it in wall time and are left out, so the
    self times add up to the traced wall time. Returns {layer: seconds}
    plus the unattributed remainder.
    """
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    main = next(e["tid"] for e in events if e["name"] == "bench.pass")
    spans = sorted((e for e in events if e["ph"] == "X" and e["tid"] == main),
                   key=lambda e: (e["ts"], -e["dur"]))
    out = {layer: 0.0 for layer in LAYERS}
    unclaimed = 0.0
    stack = []  # [end_us, layer, child_us, dur_us]

    def close(item):
        nonlocal unclaimed
        self_s = (item[3] - item[2]) / 1e6
        if item[1] in out:
            out[item[1]] += self_s
        else:
            unclaimed += self_s

    for e in spans:
        while stack and e["ts"] >= stack[-1][0] - 1e-3:
            close(stack.pop())
        if e["cat"] == "bench":
            layer = e["name"].split(".")[0]
        else:
            layer = LIBRARY_SPAN_LAYER.get(e["name"], e["name"].split(".")[0])
        if stack:
            stack[-1][2] += e["dur"]
        stack.append([e["ts"] + e["dur"], layer, 0.0, e["dur"]])
    while stack:
        close(stack.pop())
    accounted = sum(out.values())
    metrics = {f"{layer}.self_s": v for layer, v in out.items()}
    metrics["bench.unattributed_s"] = traced_wall_s - accounted + unclaimed
    return metrics


def run_once(root, spec, workload, seed, seconds, trace, tiny=False):
    """Build, run one workload and return (result, env, extra metrics)."""
    target, binary = build(root)
    threads = workload_threads(workload)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("YOUTIAO_")}
    env["YOUTIAO_THREADS"] = str(threads)
    env["YTBENCH_GIT_SHA"] = git_sha(root)
    trace_dir = target / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}{'-tiny' if tiny else ''}"
    trace_path = trace_dir / f"{tag}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(trace_path)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=HARNESS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"yt_bench exited {proc.returncode} on {workload}")
    stamp = json.loads(lines[0])["env"]
    report = json.loads(lines[-1])
    if stamp["youtiao_threads"] != threads or \
            threads > max(1, stamp["nproc"] // 2):
        fail(f"thread count {stamp['youtiao_threads']} is not the "
             f"workload's {threads} or exceeds half of nproc")
    if stamp["build_type"] not in ("Release", "RelWithDebInfo"):
        fail("refusing to time a " + repr(stamp["build_type"]) + " build")
    stamp["workload_threads"] = {w: workload_threads(w)
                                 for w in WORKLOAD_THREADS}

    metrics = dict(report["metrics"])
    if trace:
        wall = metrics["bench.traced_wall_s"]["value"]
        for name, value in self_times(trace_path, wall).items():
            metrics[name] = {"value": value, "unit": "s"}

    problems = list(report["failures"])
    if not report["deterministic"]:
        problems.append("quality differs between passes of one run")
    # Determinism guard across processes: the timed and the traced run of
    # one seed, on one binary, must report bit-identical quality.
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    guard = target / "quality" / f"{digest}-{tag}.json"
    guard.parent.mkdir(parents=True, exist_ok=True)
    if guard.is_file():
        if json.loads(guard.read_text()) != report["quality"]:
            problems.append("quality differs from an earlier run of "
                            "this seed: " + guard.read_text())
    else:
        guard.write_text(json.dumps(report["quality"]))

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} missing or not in "
                            f"{m['unit']}")
    result = {
        "correct": report["failed"] == 0 and not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted
                    if m["name"] in metrics},
    }
    full = {"env": stamp, "problems": problems, "quality": report["quality"],
            "metrics": metrics, "trace": str(trace_path) if trace else None}
    reports = target / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{tag}-trace{trace}.json").write_text(
        json.dumps(full, indent=1))
    for p in problems:
        log(p)
    return result, stamp, metrics


def self_test(root, spec):
    """Tiny runs of every workload: metrics, checks and layer coverage."""
    target, binary = build(root)
    ok = True
    rc = subprocess.run([str(binary), "--self-test-checks"],
                        stdout=sys.stderr, timeout=HARNESS_TIMEOUT_S)
    if rc.returncode != 0:
        log("FAIL: the output checks accepted a corrupted design")
        ok = False
    covered = set()
    # Layers each workload is meant to exercise (see README.md).
    expect = {"flat-route": {"chip", "noise", "multiplex", "core",
                             "routing", "circuit", "sim", "bench"},
              "design-fit": {"chip", "noise", "graph", "partition",
                             "multiplex", "core", "circuit", "sim", "bench"},
              "hier-scale": {"chip", "multiplex", "core", "routing",
                             "circuit", "sim", "bench"}}
    for workload in WORKLOAD_THREADS:
        for trace in (0, 1):
            result, _, metrics = run_once(root, spec, workload, 1, 0.2,
                                          trace, tiny=True)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            missing = [m["name"] for m in wanted
                       if m["name"] not in result["metrics"]]
            if not result["correct"] or missing:
                log(f"FAIL: {workload} trace={trace} correct="
                    f"{result['correct']} missing={missing}")
                ok = False
            if trace:
                layers = {k.split(".")[0] for k, v in metrics.items()
                          if k.endswith(".self_s") and v["value"] > 0}
                covered |= layers
                if not expect[workload] <= layers:
                    log(f"FAIL: {workload} trace lacks layers "
                        f"{sorted(expect[workload] - layers)}")
                    ok = False
    if covered != set(LAYERS):
        log(f"FAIL: traced runs miss layers {sorted(set(LAYERS) - covered)}")
        ok = False
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=sorted(WORKLOAD_THREADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root (no BENCHMARK.json here)")
    spec = json.loads(spec_path.read_text())
    if args.self_test:
        return self_test(root, spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        # Every workload once, as a table; exit 1 if any is incorrect.
        ok = True
        for workload in WORKLOAD_THREADS:
            result, _, _ = run_once(root, spec, workload, args.seed,
                                    args.seconds, args.trace)
            ok = ok and result["correct"]
            print(f"{workload}: correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
        return 0 if ok else 1
    result, stamp, _ = run_once(root, spec, args.workload, args.seed,
                                args.seconds, args.trace)
    print(json.dumps({"env": stamp}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
