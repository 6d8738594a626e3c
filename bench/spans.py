"""Spans around calls into the package's public functions, and what they add up to.

The package looks its own public functions up as module attributes at call
time (``channel.mmse_eval(...)``, and plain global names inside a module), so
replacing those attributes records every call, including the ones a module
makes to itself.  Nothing in the package changes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from workloads import cell_key

CHANNEL = ("mmse_eval_curve", "mutual_info_eval_curve", "mmse_curve", "mutual_info_curve",
           "mmse_eval", "mutual_info_eval", "mmse", "mutual_info", "denoise")
POTENTIAL = ("minimize", "smallest_stationary", "normalized_potential", "normalized_curve",
             "normalized_argmin", "normalized_smallest_stationary", "potential",
             "potential_deriv")
THRESHOLDS = ("transition_check", "report")
AMP = ("generate", "run_amp", "se_sequence")

SCALAR_CHANNEL = {"channel.mmse_eval", "channel.mutual_info_eval", "channel.mmse",
                  "channel.mutual_info"}
NORMALIZED = {f"potential.{n}" for n in POTENTIAL if n.startswith("normalized_")}

# Spans a per-operation time is made of, per workload; landscape operations
# are whole CLI invocations.
OP_SPANS = {"phase": {"thresholds.transition_check"},
            "landscape": {"cli"},
            "amp": {"amp.generate", "amp.run_amp"}}

NAME, START, END, PARENT, OP, INFO = range(6)


def _points(args, kwargs, key):
    return int(np.size(args[1] if len(args) > 1 else kwargs[key]))


def _info(name, args, kwargs):
    """Per-call facts recorded with a span, taken from the arguments."""
    if name in ("mmse_curve", "mutual_info_curve", "mmse_eval_curve",
                "mutual_info_eval_curve"):
        return {"points": _points(args, kwargs, "s_values")}
    if name == "denoise":
        return {"points": _points(args, kwargs, "r")}
    if name == "transition_check":
        return {"kind": args[3] if len(args) > 3 else kwargs["kind"]}
    return None


def _op(name, args, kwargs):
    """Operation id a call starts, or None if it runs inside the current one."""
    if name == "transition_check":
        return cell_key(*args[:4])
    if name == "generate":
        return args[4] if len(args) > 4 else kwargs["seed"]
    return None


class Recorder:
    """In-memory span list: ``[name, start, end, parent index, op id, info]``."""

    def __init__(self):
        self.spans = []
        self.surrogate_points = 0
        self.op = None
        self._stack = []
        self._undo = []
        self._invocation = None

    def _open(self, name, info):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self.op, info]
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, op):
        self.op = op
        self._invocation = op
        rec = self._open(name, None)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, module, attr):
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            op = _op(attr, args, kwargs)
            if op is not None:
                self.op = op if attr != "generate" else f"{self._invocation}/seed{op}"
            rec = self._open(name, _info(attr, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attr.endswith("_eval") or attr.endswith("_eval_curve"):
                rec[INFO] = dict(rec[INFO] or {}, mode=result[1])
            elif attr == "run_amp":
                rec[INFO] = {"iterations": result.iterations}
            return result

        self._install(module, attr, wrapper, fn)

    def count_surrogate(self, channel):
        fn = channel.mmse_q_approx

        def wrapper(epsilon, s):
            self.surrogate_points += int(np.size(s))
            return fn(epsilon, s)

        self._install(channel, "mmse_q_approx", wrapper, fn)

    def _install(self, module, attr, wrapper, fn):
        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def install(self, workload, full):
        """Wrap the operation boundaries, and with ``full`` every traced layer."""
        from rsphase import amp, channel, potential, thresholds
        if full:
            targets = [(channel, CHANNEL), (potential, POTENTIAL),
                       (thresholds, THRESHOLDS), (amp, AMP)]
            self.count_surrogate(channel)
        else:
            modules = {"thresholds": thresholds, "amp": amp}
            targets = [(modules[mod], (attr,)) for mod, _, attr in
                       (n.partition(".") for n in sorted(OP_SPANS[workload]) if n != "cli")]
        for module, attrs in targets:
            for attr in attrs:
                self.wrap(module, attr)

    def uninstall(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def op_times(self, workload) -> dict:
        names = OP_SPANS[workload]
        out = {}
        for rec in self.spans:
            if rec[NAME] in names:
                out[rec[OP]] = out.get(rec[OP], 0.0) + rec[END] - rec[START]
        return out


def _durations(spans):
    """Each span's duration, and its duration minus that of its direct children."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(spans, surrogate_points, bytes_written) -> dict:
    """Per-layer counts and times of one traced pass (see NOTES.md for definitions)."""
    dur, self_t = _durations(spans)

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield p
            p = spans[p][PARENT]

    def pick(names, within=None):
        """Spans named in ``names`` (outermost only), optionally under a ``within`` span."""
        out = []
        for i, s in enumerate(spans):
            if s[NAME] not in names:
                continue
            anc = [spans[a][NAME] for a in ancestors(i)]
            if any(a in names for a in anc):
                continue
            if within is not None and within not in anc:
                continue
            out.append(i)
        return out

    def calls(names):
        return sum(1 for s in spans if s[NAME] in names)

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_of(name):
        return sum(self_t[i] for i, s in enumerate(spans) if s[NAME] == name)

    def info_sum(name, key):
        return sum((s[INFO] or {}).get(key, 0) for s in spans if s[NAME] == name)

    def direct_children(parent_name, names):
        return sum(1 for s in spans
                   if s[NAME] in names and s[PARENT] >= 0
                   and spans[s[PARENT]][NAME] == parent_name)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {}
    for curve in ("mmse_curve", "mutual_info_curve"):
        name = f"channel.{curve}"
        pts = info_sum(name, "points")
        m[f"{name}.calls"] = calls({name})
        m[f"{name}.points"] = pts
        m[f"{name}.us_per_point"] = ratio(total(pick({name})), pts, 1e6)
    for scalar in ("mmse", "mutual_info"):
        name = f"channel.{scalar}"
        m[f"{name}.calls"] = calls({name})
        m[f"{name}.us_per_call"] = ratio(total(pick({name})), calls({name}), 1e6)
    m["channel.approx.points"] = surrogate_points
    m["channel.denoise.calls"] = calls({"channel.denoise"})
    m["channel.denoise.points"] = info_sum("channel.denoise", "points")
    m["channel.denoise.s"] = total(pick({"channel.denoise"}))

    for fn, evals in (("smallest_stationary", "root_evals"), ("minimize", "refine_evals")):
        name = f"potential.{fn}"
        m[f"{name}.calls"] = calls({name})
        m[f"{name}.s"] = total(pick({name}))
        m[f"{name}.self_s"] = self_of(name)
        m[f"{name}.{evals}"] = direct_children(name, SCALAR_CHANNEL)
    m["potential.smallest_stationary.scan_s"] = total(
        i for i, s in enumerate(spans) if s[NAME] == "channel.mmse_eval_curve"
        and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "potential.smallest_stationary")
    m["potential.normalized.calls"] = calls(NORMALIZED)
    m["potential.normalized.s"] = total(pick(NORMALIZED))
    m["potential.scalar.calls"] = calls({"potential.potential", "potential.potential_deriv"})

    checks = pick({"thresholds.transition_check"})
    m["thresholds.transition_check.calls"] = len(checks)
    for kind in ("mmse", "amp"):
        m[f"thresholds.transition_check.{kind}_s"] = total(
            i for i in checks if spans[i][INFO]["kind"] == kind)
    m["thresholds.report.s"] = total(pick({"thresholds.report"}))

    m["amp.generate.calls"] = calls({"amp.generate"})
    m["amp.generate.s"] = total(pick({"amp.generate"}))
    runs = pick({"amp.run_amp"})
    se_ref = total(pick({"amp.se_sequence", "channel.mmse_eval"}, within="amp.run_amp"))
    iterations = info_sum("amp.run_amp", "iterations")
    m["amp.run_amp.calls"] = len(runs)
    m["amp.run_amp.self_s"] = self_of("amp.run_amp")
    m["amp.iterations"] = iterations
    m["amp.ms_per_iteration"] = ratio(total(runs) - se_ref, iterations, 1e3)
    m["amp.se_ref_s"] = se_ref

    m["cli.self_s"] = self_of("cli")
    m["cli.bytes_written"] = bytes_written
    return m


def summary(spans, wall_s, top=8) -> dict:
    """Self time by span name, and how much of the pass the root spans cover."""
    _, self_t = _durations(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + self_t[i]
    self_sum = sum(by_name.values())
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1])[:top]
    return {"spans": len(spans), "self_sum_s": self_sum,
            "self_sum_frac_of_wall": self_sum / wall_s if wall_s else 0.0,
            "top_self_s": dict(ranked)}
