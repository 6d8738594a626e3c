"""Write bench/reference.json.gz from the current source tree.

Usage (from the repository root): python3 bench/make_reference.py

Run it only at a commit whose outputs are trusted; every benchmark pass is
compared against what it writes.  The AMP reference is the state-evolution
MSE column computed exactly as ``amp.run_amp`` computes it, out to the full
iteration cap, and it is cross-checked against the CLI's own column.
"""

from __future__ import annotations

import csv
import gzip
import json
import os
import sys
import tempfile

import worker                            # puts src/ on sys.path
import workloads
from rsphase import amp, channel
from rsphase.prior import two_point


def main() -> int:
    ref = {"quad_tol": workloads.QUAD_TOL}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for workload in workloads.WORKLOADS:
            out = os.path.join(tmp, workload)
            invs, _, _, _, errors = worker.run_pass(workload, 0, False, out)
            if errors:
                print(f"{workload}: {errors}", file=sys.stderr)
                return 1
            ref[workload] = {inv.name: _reference(workload, inv, os.path.join(out, inv.name))
                             for inv in invs}
    ref["phase"] = ref["phase"]["phase"]
    with gzip.open(workloads.REFERENCE_PATH, "wt", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, indent=0)
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


def _require(ok, message):
    if not ok:
        raise SystemExit(message)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(line for line in fh if not line.startswith("#"))][1:]


def _reference(workload, inv, out):
    if workload == "phase":
        rows = _rows(os.path.join(out, "phase.csv"))
        _require(all(row[5] == "" for row in rows), f"phase cell failed: {rows}")
        return {",".join(row[:4]): row[4] for row in rows}
    if workload == "landscape":
        ref = {}
        for name in inv.files:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                ref[name] = workloads.body(fh.read())
        return ref
    with open(os.path.join(out, "amp_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    prior = two_point(workloads.AMP_EPSILON)
    snr = summary["p"] / summary["sigma2"]          # as RegressionInstance.snr
    se_snr = amp.se_sequence(prior, summary["delta"], snr, workloads.AMP_T_MAX)
    se_mse = [1.0] + [channel.mmse_eval(prior, s)[0] for s in se_snr[:-1]]
    for row in _rows(os.path.join(out, "amp.csv")):
        _require(float(row[3]) == se_mse[int(row[1])], f"SE column differs: {row}")
    keep = ("n", "p", "delta", "snr", "s_amp", "mse_predicted")
    return dict({k: summary[k] for k in keep}, se_mse=se_mse)


if __name__ == "__main__":
    raise SystemExit(main())
