#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, two clocks.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds `perfbench` (a Rust package of its own, against the crates by
path) into $CARGO_TARGET_DIR (default `.bench_build`), runs the workload,
writes a host-stamped result file under `perfbench/out/`, prints a
table, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.
`--workload all` runs every workload in turn. Exits non-zero when the
build fails, the binary fails, or an output check fails.

    python3 perfbench/run.py --self-test      # the regression gate's self-test
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["train-uks", "serve-drift", "fleet-churn", "serve-ooc"]
# Claims are made on the default seed and must also hold on the held-out one.
DEFAULT_SEED = 42
HELD_OUT_SEED = 20261017
# Every run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_PROFILE = "release"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def target_dir():
    """$CARGO_TARGET_DIR (relative to the repository root), or `.bench_build`."""
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the benchmark binary; returns its path or None."""
    manifest = BENCH_DIR / "Cargo.toml"
    if not manifest.is_file():
        log("perfbench: missing", manifest)
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--offline", "--quiet", "--profile", BUILD_PROFILE,
           "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: build failed:", e)
        return None
    binary = target_dir() / BUILD_PROFILE / "perfbench"
    if done.returncode != 0 or not binary.is_file():
        log("perfbench: build failed with code", done.returncode)
        return None
    return binary


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                              cwd=ROOT).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def host_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "profile": BUILD_PROFILE,
    }


def git_commit():
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top and Path(top).resolve() == ROOT:
        return command_output(["git", "rev-parse", "HEAD"]) or "unknown"
    return "unknown"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the binary's result document or None."""
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(out_dir / f"{stem}.spans.json")]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {workload} did not finish:", e)
        return None
    if done.returncode != 0:
        log(f"perfbench: {workload} exited with code {done.returncode}")
        return None
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        log(f"perfbench: {workload} printed no result:", e)
        return None
    result["wall_s"] = time.monotonic() - start
    result["stamp"] = {"host": host_stamp(), "commit": git_commit(), "seed": seed,
                       "workload": workload, "trace": trace}
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(result, f, indent=1)
    return result


def contract_metrics(spec, result, trace):
    """The metrics BENCHMARK.json names, from one result document. A
    per-layer metric of a layer the workload never runs reads 0."""
    section, found = ("per_layer", result.get("per_layer", {})) if trace \
        else ("end_to_end", result.get("end_to_end", {}))
    metrics, missing = {}, []
    for m in spec[section]:
        got = found.get(m["name"])
        if got is None and trace:
            got = {"value": 0.0}
        if got is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, missing


def print_table(result, trace):
    w = result["workload"]
    section = "per_layer" if trace else "end_to_end"
    print(f"== {w} (seed {result['seed']}, {'traced' if trace else 'untraced'}) ==")
    for name, m in result.get(section, {}).items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:<10s} {m['clock']}")
    if trace:
        host = result["host"]
        print(f"  {'span':34s} {'calls':>6s} {'self s':>10s} {'share':>7s}")
        for row in sorted(result["layer_table"], key=lambda r: -r["self_s"]):
            print(f"  {row['span']:34s} {row['calls']:>6d} {row['self_s']:>10.4f} "
                  f"{100 * row['self_share']:>6.2f}%")
        print(f"  traced host time {host['traced_total_s']:.3f} s = sum of self times; "
              f"measured phase untraced {host['untraced_measure_s']:.3f} s + overhead "
              f"{host['overhead_s']:+.3f} s = traced {host['traced_measure_s']:.3f} s")
    print(f"  checks: {result['checks_passed']} passed, {len(result['checks_failed'])} failed")
    for c in result["checks_failed"]:
        print(f"    FAILED {c['name']}: {c['detail']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"default {DEFAULT_SEED}; claims must also hold on {HELD_OUT_SEED}")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.path.insert(0, str(BENCH_DIR))
        import gate
        return gate.self_test()
    if not args.workload:
        ap.error("--workload is required")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        result = run_workload(binary, w, args.seed, seconds, args.trace)
        if result is None:
            return 1
        print_table(result, args.trace)
        metrics, missing = contract_metrics(spec, result, args.trace)
        if missing:
            log(f"perfbench: {w} did not report {missing}")
        summary["correct"] &= bool(result["correct"]) and not missing
        summary["attempted"] += int(result["attempted"])
        summary["failed"] += int(result["failed"])
        if len(workloads) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update({f"{w}/{k}": v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
