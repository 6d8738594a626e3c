"""rsphase benchmark: one workload, end-to-end metrics or (with --trace 1) per-layer ones.

Usage, from the repository root:

    python3 bench/run.py --workload phase|landscape|amp --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh interpreter (bench/worker.py), so
every pass pays the same lazy set-up a CLI user pays.  Set-up itself is timed
separately.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record (machine, versions, load, percentile used, trace summary).
Working files go to .bench_out/ in the current directory.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads                        # noqa: E402

SETUP_SAMPLES = 5
RUN_BUDGET_S = 165          # a run must end within 180 s, set-up samples included
OUT_ROOT = ".bench_out"
SRC = os.path.join("src", "rsphase")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))
LAYER_UNITS = {"calls": "count", "points": "count", "root_evals": "count",
               "refine_evals": "count", "iterations": "count", "bytes_written": "bytes",
               "us_per_point": "us", "us_per_call": "us", "ms_per_iteration": "ms",
               "overhead_frac": "frac", "two_point": "ns", "discrete": "ns"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def measure_setup(deadline) -> list:
    """Seconds from launching a fresh interpreter until rsphase.cli is imported.

    The wait blocks in waitpid; a wait with a timeout polls every 50 ms and
    would round the figure up to that step.  A timer kills a child that is
    still running at the deadline.
    """
    cmd, env = [sys.executable, "-c", "import rsphase.cli"], _env()
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        code = proc.wait()
        times.append(time.perf_counter() - t0)
        timer.cancel()
        timer.join()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def run_worker(workload, seed, traced, k, deadline):
    out = os.path.join(OUT_ROOT, f"{workload}-{seed}-{k}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result_path = os.path.join(out, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if traced else "0", out, result_path]
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        ok = proc.returncode == 0 and os.path.exists(result_path)
        detail = proc.stderr.strip().splitlines()[-1:] if not ok else []
    except subprocess.TimeoutExpired:
        ok, detail = False, [f"pass did not end within the {RUN_BUDGET_S} s run budget"]
    if ok:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        if traced:
            shutil.move(os.path.join(out, "spans.json"),
                        os.path.join(OUT_ROOT, f"spans-{workload}-{seed}.json"))
    else:
        ops = [op for inv in workloads.PASSES[workload](seed) for op in inv.ops]
        res = {"ops": ops, "failed": ops, "errors": {"worker": " ".join(detail)},
               "digests": {}, "op_times": {}}
    shutil.rmtree(out, ignore_errors=True)
    res["traced"] = traced
    return res


def run_probe(deadline) -> dict:
    """Kernel probe in its own fresh interpreter (see worker.kernel_probe)."""
    path = os.path.join(OUT_ROOT, "probe.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "probe", path]
    subprocess.run(cmd, env=_env(), check=True, capture_output=True,
                   timeout=max(1.0, deadline - time.perf_counter()))
    with open(path, encoding="utf-8") as fh:
        probe = json.load(fh)
    os.remove(path)
    return probe


def tail(values):
    """Highest percentile with at least ten values beyond it, and that percentile."""
    vals = sorted(values)
    n = len(vals)
    if n <= 10:
        return vals[-1], 100.0
    return vals[n - 11], 100.0 * (n - 10) / n


def mark_digest_mismatches(passes, workload, seed):
    """Reruns must write byte-identical artefacts; a differing file fails its ops."""
    base = next((p["digests"] for p in passes if p["digests"]), {})
    ops_of = {inv.name: inv.ops for inv in workloads.PASSES[workload](seed)}
    for p in passes:
        if not p["digests"]:
            continue
        bad = {key.split("/")[0] for key in base if p["digests"].get(key) != base[key]}
        for inv in sorted(bad):
            p["failed"] = sorted(set(p["failed"]) | set(ops_of[inv]))
            p["errors"][inv] = "artefact bytes differ from the first pass"


def machine_facts():
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "platform": platform.platform(),
             "cpu_model": None, "commit": None, "src_sha256": None,
             "cpu_pinning": "not applied", "frequency_control": "not applied"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                       if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        facts["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                         text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    facts["src_sha256"] = digest.hexdigest()
    return facts


def load_facts():
    facts = {"loadavg": list(os.getloadavg()), "steal_ticks": None}
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        facts["steal_ticks"] = int(fields[8])
    except (OSError, IndexError, ValueError):
        pass
    return facts


def end_to_end(untraced, setup):
    ops = [t for p in untraced for t in p["op_times"].values()]
    tail_s, tail_pct = tail(ops) if ops else (float("nan"), None)
    # Each operation's typical time is its median over the passes; the median
    # of those does not straddle two groups of different operations the way
    # the median of all samples does when a pass has an even number of them.
    per_op = {}
    for p in untraced:
        for op, t in p["op_times"].items():
            per_op.setdefault(op, []).append(t)
    op_medians = [statistics.median(v) for v in per_op.values()]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "op_p50_s": statistics.median(op_medians) if ops else float("nan"),
        "op_tail_s": tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, {"op_count": len(ops), "op_tail_percentile": tail_pct,
                     "setup_samples_s": setup}


def per_layer(untraced, traced, probe):
    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = statistics.median(p["layers"][key] for p in traced)
    for key, value in probe.items():
        layers[f"channel.kernel_ns_per_node.{key}"] = value
    layers["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    metrics = {}
    for key, value in layers.items():
        suffix = key.rsplit(".", 1)[-1]
        unit = LAYER_UNITS.get(suffix, "s" if suffix.endswith("s") else "count")
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"error: {SRC}/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    if not os.path.isfile(workloads.REFERENCE_PATH):
        print(f"error: {workloads.REFERENCE_PATH} is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(), "load_start": load_facts(),
              "tolerance": {"quad_tol": workloads.QUAD_TOL,
                            "rule": "|x - ref| <= 2 * max(QUAD_TOL * |ref|, floor)"}}
    n_passes = max(2, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))
    plan = [False] * n_passes if not args.trace else [False, True] * n_passes
    deadline = time.perf_counter() + RUN_BUDGET_S
    passes = [run_worker(args.workload, args.seed, traced, k, deadline)
              for k, traced in enumerate(plan)]
    # After the passes, so the package is already byte-compiled, as for a returning user.
    setup, probe = [], {}
    try:
        if args.trace:
            probe = run_probe(deadline)
        else:
            setup = measure_setup(deadline)
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        record["subprocess_error"] = f"{type(exc).__name__}: {exc}"
    record["load_end"] = load_facts()

    mark_digest_mismatches(passes, args.workload, args.seed)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    record["passes"] = [{k: p.get(k) for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb",
                                               "errors", "versions")}
                        for p in passes]
    record["failed_frac"] = failed / attempted if attempted else 1.0
    record["failed_ops"] = sorted({op for p in passes for op in p["failed"]})[:20]

    ok_untraced = [p for p in passes if not p["traced"] and "wall_s" in p]
    ok_traced = [p for p in passes if p["traced"] and "wall_s" in p]
    if not ok_untraced or (args.trace and not ok_traced) or "subprocess_error" in record:
        print(json.dumps({"record": record}))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    if args.trace:
        metrics = per_layer(ok_untraced, ok_traced, probe)
        record["trace_summary"] = ok_traced[-1]["trace_summary"]
    else:
        metrics, extra = end_to_end(ok_untraced, setup)
        record.update(extra)

    width = max(len(k) for k in metrics)
    for key, m in metrics.items():
        print(f"{key.ljust(width)}  {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac'.ljust(width)}  {record['failed_frac']:.6g} "
          f"({failed}/{attempted} operations)")
    with open(os.path.join(OUT_ROOT, f"record-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
