"""Run the benchmark over several seeds and append one entry to bench/trajectory.json.

Usage, from the repository root:

    python3 bench/collect.py --seeds 1-10 [--claim TEXT]

For every workload it makes one untraced run per seed and one traced run on
the first seed, each as long as ``run_seconds`` in BENCHMARK.json.  The entry holds, per end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, plus the traced per-layer values.  ``claim`` stays null unless a
change claims a gain.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--claim", default=None)
    args = ap.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    entry = {"when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "claim": args.claim,
             "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values, failed, attempted = {}, 0, 0
        for seed in args.seeds:
            record, res = _run(workload, seed, seconds, 0)
            entry.setdefault("machine", record["machine"])
            failed += res["failed"]
            attempted += res["attempted"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  file=sys.stderr, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "runs": vals}
        record, res = _run(workload, args.seeds[0], seconds, 1)
        entry["workloads"][workload] = {
            "failed": failed, "attempted": attempted, "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in res["metrics"].items()},
            "trace_summary": record.get("trace_summary")}
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory.append(entry)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    print(f"appended entry {len(trajectory)} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
