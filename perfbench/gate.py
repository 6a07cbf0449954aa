#!/usr/bin/env python3
"""The benchmark's regression gate.

    python3 perfbench/gate.py BASE_DIR NEW_DIR   # compare two result sets
    python3 perfbench/gate.py --self-test        # prove the gate can fail

A result set is a directory of untraced result files as `run.py` writes
them under `perfbench/out/`. Host-clock metrics compare by median over
the set and are flagged when worse by more than their BENCHMARK.json
bound. Simulated metrics repeat exactly per seed, so they compare seed by
seed and are flagged when the median paired change is worse by more than
SIM_TOLERANCE. Sets stamped with different hosts are compared for
information only. Exits 1 when a regression is flagged on one host.
"""

import json
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIM_TOLERANCE = 0.005
HOST_KEYS = ("nproc", "cpu_model", "rustc", "profile")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_set(directory):
    """Untraced result documents of a directory."""
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        with open(path) as f:
            doc = json.load(f)
        if not doc.get("trace") and "end_to_end" in doc:
            results.append(doc)
    return results


def host_of(results):
    hosts = {tuple(r["stamp"]["host"].get(k) for k in HOST_KEYS) for r in results}
    return hosts.pop() if len(hosts) == 1 else None


def worse_by(base, new, better):
    """Relative worsening of `new` against `base` (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base, new, spec):
    """Returns (flags, informational): flags lists each regression."""
    flags = []
    base_host, new_host = host_of(base), host_of(new)
    informational = base_host is None or base_host != new_host
    by_workload = {}
    for side, results in (("base", base), ("new", new)):
        for r in results:
            by_workload.setdefault(r["workload"], {"base": [], "new": []})[side].append(r)
    for workload, sets in sorted(by_workload.items()):
        if not sets["base"] or not sets["new"]:
            continue
        for m in spec["end_to_end"]:
            name, better = m["name"], m["better"]
            rows = [(r["seed"], r["end_to_end"][name]) for r in sets["base"]
                    if name in r["end_to_end"]]
            new_rows = [(r["seed"], r["end_to_end"][name]) for r in sets["new"]
                        if name in r["end_to_end"]]
            if not rows or not new_rows:
                continue
            clock = rows[0][1]["clock"]
            base_by_seed = {s: v["value"] for s, v in rows}
            paired = [worse_by(base_by_seed[s], v["value"], better)
                      for s, v in new_rows if s in base_by_seed]
            if clock == "simulated" and paired:
                worse, limit = statistics.median(paired), SIM_TOLERANCE
            else:
                worse = worse_by(statistics.median(v["value"] for _, v in rows),
                                 statistics.median(v["value"] for _, v in new_rows), better)
                limit = m["bound"]
            if worse > limit:
                flags.append(f"{workload} {name} ({clock}): worse by {100 * worse:.1f}% "
                             f"(limit {100 * limit:.1f}%)")
    return flags, informational


def report(flags, informational):
    for f in flags:
        print(("INFO " if informational else "REGRESSION ") + f)
    if informational:
        print("gate: result sets come from different hosts; differences are informational")
        return 0
    print(f"gate: {len(flags)} regression(s)")
    return 1 if flags else 0


# ---- self-test ---------------------------------------------------------

WORKLOADS = ["train-uks", "serve-drift", "fleet-churn", "serve-ooc"]


def synthetic_set(spec, rng, host="test-host", transform=None):
    """Five seeds per workload. Simulated values are a function of the
    seed; host values carry up to 3% run-to-run jitter."""
    results = []
    for wi, workload in enumerate(WORKLOADS):
        for seed in range(1, 6):
            e2e = {}
            for mi, m in enumerate(spec["end_to_end"]):
                host_metric = m["name"] in ("setup_s", "peak_rss_mib", "batches_per_host_s",
                                            "sim_requests_per_host_s")
                base = 100.0 * (wi + 1) * (mi + 1) * (1 + 0.01 * seed)
                value = base * (1 + rng.uniform(-0.03, 0.03)) if host_metric else base
                e2e[m["name"]] = {"value": value, "unit": m["unit"],
                                  "clock": "host" if host_metric else "simulated"}
            doc = {"workload": workload, "seed": seed, "trace": False, "end_to_end": e2e,
                   "stamp": {"host": {"nproc": 2, "cpu_model": host, "rustc": "rustc",
                                      "profile": "release"}}}
            if transform:
                transform(doc)
            results.append(doc)
    return results


def self_test():
    spec = load_spec()
    rng = random.Random(7)
    base = synthetic_set(spec, rng)

    def slower_host(doc):
        # Twice the host time on one workload.
        if doc["workload"] == "fleet-churn":
            e2e = doc["end_to_end"]
            e2e["setup_s"]["value"] *= 2
            e2e["batches_per_host_s"]["value"] /= 2
            e2e["sim_requests_per_host_s"]["value"] /= 2

    def lower_knee(doc):
        if doc["workload"] == "serve-drift":
            doc["end_to_end"]["knee_rps"]["value"] *= 0.95

    cases = [
        ("same code twice flags nothing", synthetic_set(spec, rng), False, False),
        ("2x host time on fleet-churn is flagged",
         synthetic_set(spec, rng, transform=slower_host), True, False),
        ("5% lower knee_rps on serve-drift is flagged",
         synthetic_set(spec, rng, transform=lower_knee), True, False),
        ("another host is informational only",
         synthetic_set(spec, rng, host="other-host", transform=slower_host), True, True),
    ]
    ok = True
    for label, new, want_flags, want_info in cases:
        flags, informational = compare(base, new, spec)
        passed = bool(flags) == want_flags and informational == want_info
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {label}: {len(flags)} flag(s)"
              + "".join(f"\n       {f}" for f in flags))
    print("gate self-test:", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load_set(argv[1]), load_set(argv[2])
    if not base or not new:
        print("gate: empty result set", file=sys.stderr)
        return 2
    return report(*compare(base, new, load_spec()))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
