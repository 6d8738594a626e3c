"""One pass of a workload in a fresh interpreter; writes its measurements as JSON.

Usage, from the repository root:

    python3 bench/worker.py WORKLOAD SEED TRACE OUT_DIR RESULT_FILE
    python3 bench/worker.py probe RESULT_FILE

With TRACE=1 every traced layer is wrapped and the spans are written to
OUT_DIR/spans.json.  ``probe`` times the quadrature kernels alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np                      # noqa: E402
import scipy                            # noqa: E402
from rsphase import channel, cli        # noqa: E402
from rsphase.prior import prior_from_spec, two_point  # noqa: E402

import spans                            # noqa: E402
import workloads                        # noqa: E402

PROBE_POINTS = 256                      # one quadrature chunk
PROBE_NODES = 481                       # the fourth rung of the node ladder
PROBE_REPEATS = 5


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def versions() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def kernel_probe() -> dict:
    """ns per point x node x atom of the fixed-rung M and I kernels, cache warm.

    Run it in a fresh interpreter: once the process has freed a large array,
    the same probe reads about half as much, because the allocator stops
    handing the kernel's temporaries back to the system between calls.
    """
    grid = np.geomspace(1e-3, 50.0, PROBE_POINTS)
    out = {}
    for label, prior in (("two_point", two_point(1e-4)),
                         ("discrete", prior_from_spec(workloads.TERNARY))):
        fns = (channel.mmse_curve, channel.mutual_info_curve)
        for fn in fns:
            fn(prior, grid, nodes=PROBE_NODES)
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            for fn in fns:
                fn(prior, grid, nodes=PROBE_NODES)
            times.append(time.perf_counter() - t0)
        work = len(fns) * PROBE_POINTS * PROBE_NODES * prior.natoms
        out[label] = float(np.median(times)) / work * 1e9
    return out


def run_pass(workload, seed, traced, out):
    invs = workloads.PASSES[workload](seed)
    for inv in invs:
        inv_out = os.path.join(out, inv.name)
        os.makedirs(inv_out, exist_ok=True)
        inv.argv = inv.argv + ["--out", inv_out]
        if inv.config is not None:
            path = os.path.join(inv_out, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inv.config, fh)
            inv.argv += ["--config", path]
    rec = spans.Recorder()
    rec.install(workload, traced)
    errors = {}
    sink = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    for inv in invs:
        with rec.span("cli", inv.name), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                code = cli.main(inv.argv)
            except Exception as exc:          # a failed operation, counted below
                code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            errors[inv.name] = code
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rec.uninstall()
    return invs, rec, wall, cpu, errors


def main(argv):
    if argv[0] == "probe":
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(kernel_probe(), fh)
        return 0
    workload, seed, traced, out, result_path = argv
    seed, traced = int(seed), traced == "1"
    invs, rec, wall, cpu, errors = run_pass(workload, seed, traced, out)
    # Read before the references are loaded, so the figure is the program's alone.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = workloads.load_reference()[workload]

    ops, failed, digests, written = [], [], {}, 0
    for inv in invs:
        ops += inv.ops
        inv_out = os.path.join(out, inv.name)
        if inv.name in errors:
            failed += inv.ops
            continue
        try:
            failed += sorted(workloads.CHECKS[workload](inv, inv_out, ref))
        except (OSError, KeyError, ValueError) as exc:
            errors[inv.name] = f"check: {type(exc).__name__}: {exc}"
            failed += inv.ops
        for name in inv.files:
            path = os.path.join(inv_out, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                written += len(data)
                digests[f"{inv.name}/{name}"] = hashlib.sha256(data).hexdigest()

    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb,
              "op_times": rec.op_times(workload), "ops": ops, "failed": failed,
              "errors": {k: str(v) for k, v in errors.items()}, "digests": digests,
              "bytes_written": written, "versions": versions()}
    if traced:
        result["layers"] = spans.layer_metrics(rec.spans, rec.surrogate_points, written)
        result["trace_summary"] = spans.summary(rec.spans, wall)
        with open(os.path.join(out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": rec.spans}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
