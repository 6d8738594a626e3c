"""Workload definitions, their inputs from the seed, and the correctness gate.

A pass of a workload is a list of CLI invocations, run in-process through
``rsphase.cli.main``.  The seed decides the order of the operations (phase
cells, landscape subcommands) and the AMP instance seeds; per-operation
outputs must not depend on either, so every pass is compared against the
same committed references.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
import random
import re
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json.gz")

# channel.QUAD_TOL and channel.APPROX_EPSILON at the commit the references
# come from.  The gate's rule, per number, is
#     |x - ref| <= 2 * max(QUAD_TOL * |ref|, floor)
# where floor is the absolute tolerance the package converges that kind of
# number to (see ``floors``).  Twice that, because two correct evaluations
# can each be off by the tolerance.
QUAD_TOL = 1e-8
APPROX_EPSILON = 1e-12

SNR = 5.0
PHASE_EPSILONS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-16)
PHASE_RS = (0.5, 0.9, 1.1, 2.0)
KINDS = ("mmse", "amp")
LANDSCAPE_EPSILONS = (0.1, 1e-4, 1e-8, 1e-16)
FIGURE1_EPSILONS = (0.5, 0.1, 1e-2, 1e-4, 1e-8, 1e-16)
FIGURE2_EPSILONS = (1e-4, 1e-16, 0.0)
FIGURE2_RS = (0.5, 0.9, 1.1, 2.3)
TERNARY = {"kind": "discrete", "atoms": [-math.sqrt(10.0), 0.0, math.sqrt(10.0)],
           "weights": [0.05, 0.9, 0.05], "label": "ternary"}
AMP_P, AMP_EPSILON, AMP_SNR, AMP_T_MAX = 2000, 0.1, 10.0, 50
# Instances per delta in one pass.  A delta=0.2 instance takes about half as
# long as a delta=0.86 one; unequal counts keep the median operation inside
# one of the two groups instead of on the gap between them.
AMP_SEEDS = {0.86: 20, 0.2: 40}

# Passes per run are fixed per workload, so both sides of a comparison do the
# same work: the count is the run length over the pass time measured at the
# commit the references come from (2-core Xeon, default OpenBLAS threads).
NOMINAL_PASS_S = {"phase": 17.5, "landscape": 7.0, "amp": 4.0}

WORKLOADS = tuple(NOMINAL_PASS_S)
HEADER_PREFIXES = ("# rsphase ", "# mode=", "# config_sha256=", "# columns:")


@dataclass
class Invocation:
    """One CLI call of a pass; ``argv`` excludes ``--out``."""

    name: str
    argv: list
    files: list
    config: dict | None = None
    ops: list = field(default_factory=list)
    epsilon: float | None = None        # None: the ternary prior
    s_scale: float = 0.0                # delta * snr of a potential operation


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _entropy(eps: float) -> float:
    return -eps * math.log(eps) - (1.0 - eps) * math.log1p(-eps)


TERNARY_H = -sum(w * math.log(w) for w in TERNARY["weights"])


def cell_key(eps, snr, r, kind) -> str:
    """Phase-cell id, formatted as the CLI writes the row."""
    return ",".join(f"{float(x):.17g}" for x in (eps, snr, r)) + f",{kind}"


def phase_pass(seed: int) -> list:
    rng = random.Random(seed)
    eps = rng.sample(PHASE_EPSILONS, len(PHASE_EPSILONS))
    rs = rng.sample(PHASE_RS, len(PHASE_RS))
    kinds = rng.sample(KINDS, len(KINDS))
    argv = ["phase", "--epsilons", _floats(eps), "--snrs", _floats([SNR]),
            "--rs", _floats(rs), "--kinds", ",".join(kinds), "--jobs", "1"]
    ops = [cell_key(e, SNR, r, k) for e in eps for r in rs for k in kinds]
    return [Invocation("phase", argv, ["phase.csv"], ops=ops)]


def landscape_pass(seed: int) -> list:
    invs = []
    for eps in LANDSCAPE_EPSILONS:
        tag = f"{eps:g}"
        delta = 1.1 * 2.0 * _entropy(eps) / math.log1p(SNR)
        invs += [
            Invocation(f"channel-{tag}", ["channel", "--epsilon", repr(eps), "--s-min",
                                          "1e-6", "--s-max", "50", "--points", "2000"],
                       ["channel.csv"], epsilon=eps),
            Invocation(f"potential-{tag}", ["potential", "--epsilon", repr(eps), "--delta",
                                            repr(delta), "--snr", repr(SNR)],
                       ["potential.csv"], epsilon=eps, s_scale=delta * SNR),
            Invocation(f"thresholds-{tag}", ["thresholds", "--epsilon", repr(eps),
                                             "--snr", repr(SNR)],
                       ["thresholds.json", "thresholds.txt"], epsilon=eps),
        ]
    invs += [
        Invocation("channel-ternary", ["channel", "--s-min", "1e-6", "--s-max", "50",
                                       "--points", "2000"],
                   ["channel.csv"], config={"prior": TERNARY}),
        Invocation("potential-ternary", ["potential"], ["potential.csv"],
                   config={"prior": TERNARY, "delta": 0.8, "snr": SNR}, s_scale=0.8 * SNR),
        Invocation("figure1", ["figure1", "--epsilons", _floats(FIGURE1_EPSILONS)],
                   ["figure1.csv"]),
    ]
    invs += [Invocation(f"figure2-{eps:g}", ["figure2", "--epsilon", repr(eps), "--snr",
                                             repr(SNR), "--rs", _floats(FIGURE2_RS)],
                        ["figure2.csv"], epsilon=eps)
             for eps in FIGURE2_EPSILONS]
    for inv in invs:
        inv.ops = [inv.name]
    random.Random(seed).shuffle(invs)
    return invs


def amp_pass(seed: int) -> list:
    base = random.Random(seed).randrange(1, 2**31 - 1 - max(AMP_SEEDS.values()))
    invs = []
    for delta, seeds in AMP_SEEDS.items():
        name = f"amp-{delta:g}"
        argv = ["amp", "--p", str(AMP_P), "--epsilon", repr(AMP_EPSILON), "--snr",
                repr(AMP_SNR), "--t-max", str(AMP_T_MAX), "--delta", repr(delta),
                "--seeds", str(seeds), "--seed", str(base)]
        invs.append(Invocation(name, argv, ["amp.csv", "amp_summary.json"],
                               ops=[f"{name}/seed{base + k}" for k in range(seeds)]))
    return invs


PASSES = {"phase": phase_pass, "landscape": landscape_pass, "amp": amp_pass}


def body(text: str) -> str:
    """Artefact text without the reproducibility header lines."""
    lines = text.split("\n")
    while lines and lines[0].startswith(HEADER_PREFIXES):
        lines.pop(0)
    return "\n".join(lines)


# Column names (or the key before a number, outside CSV rows) by the kind of
# number they hold.  Any other number is a grid coordinate or closed form
# (s, t, r, epsilon, snr, h, delta_mmse, delta_amp, r_amp) and has floor 0.
QUADRATURE = ("mmse", "m_value", "Fprime", "i_norm", "F_norm")  # O(1), to QUAD_TOL
INFORMATION = ("i_nats", "F", "f_star", "l_constant")  # on the entropy scale
LANDMARKS = ("s_lower_star", "s_upper_star", "s_amp")  # roots and minimizers in s


def floors(epsilon, s_scale=0.0) -> dict:
    """Absolute error floor per column for the numbers of one prior.

    ``epsilon`` is the two-point spike weight, or None for the ternary prior.
    On the tail-surrogate path (epsilon below APPROX_EPSILON) and in the
    epsilon = 0 limit every number is closed form, so all floors are 0 and
    numbers compare relatively.  Information values get the package's own
    information tolerance, min(QUAD_TOL, max(1e-13, 1e-4 h)) (potential._mi_tol,
    thresholds.l_constant), which shrinks with the entropy h.  Landmarks are
    located inside the bracket (delta snr / (1 + snr), delta snr) and are held
    to QUAD_TOL of its upper end.
    """
    if epsilon is not None and epsilon < APPROX_EPSILON:
        return {}
    h = TERNARY_H if epsilon is None else _entropy(epsilon)
    mi_tol = min(QUAD_TOL, max(1e-13, 1e-4 * h))
    out = dict.fromkeys(QUADRATURE, QUAD_TOL)
    out.update(dict.fromkeys(INFORMATION, mi_tol))
    out.update(dict.fromkeys(LANDMARKS, QUAD_TOL * s_scale))
    return out


def close(value: float, ref: float, floor: float = QUAD_TOL) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= 2.0 * max(QUAD_TOL * abs(ref), floor)


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


_SPLIT = re.compile(r"[\s,=:]+")


def same_body(text: str, ref: str, epsilon=None, s_scale=0.0, csv_header=False) -> bool:
    """Token-wise comparison: numbers within tolerance, everything else exact.

    A number's column is its CSV header entry on CSV data rows (with
    ``csv_header``, the first line is the header), else the token before it.
    A CSV ``epsilon`` column sets the prior row by row.
    """
    lines, ref_lines = text.split("\n"), ref.split("\n")
    if len(lines) != len(ref_lines):
        return False
    header = ref_lines[0].split(",") if csv_header else []
    eps_col = header.index("epsilon") if "epsilon" in header else None
    op_floors = floors(epsilon, s_scale)
    for i, (line, ref_line) in enumerate(zip(lines, ref_lines)):
        toks, ref_toks = _SPLIT.split(line), _SPLIT.split(ref_line)
        if len(toks) != len(ref_toks):
            return False
        in_row = bool(header) and i > 0 and ref_line and not ref_line.startswith("#")
        row_floors = op_floors
        if in_row and eps_col is not None:
            row_floors = floors(float(ref_toks[eps_col]), s_scale)
        for j, (tok, ref_tok) in enumerate(zip(toks, ref_toks)):
            a, b = _number(tok), _number(ref_tok)
            if a is None or b is None:
                if tok != ref_tok:
                    return False
                continue
            column = header[j] if in_row else ref_toks[j - 1].strip('"') if j else ""
            if not close(a, b, row_floors.get(column, 0.0)):
                return False
    return True


def load_reference() -> dict:
    with gzip.open(REFERENCE_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def check_phase(inv: Invocation, out: str, ref: dict) -> set:
    rows = {}
    surrogate = {op for op in inv.ops if float(op.split(",")[0]) < APPROX_EPSILON}
    with open(os.path.join(out, "phase.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.reader(line for line in fh if not line.startswith("#")):
            if row and row[0] != "epsilon":
                rows[",".join(row[:4])] = row[4:]
    failed = set()
    for op in inv.ops:
        value, error = rows.get(op, ("", "missing"))
        floor = 0.0 if op in surrogate else QUAD_TOL
        if error or not value or not close(float(value), float(ref[op]), floor):
            failed.add(op)
    return failed


def check_landscape(inv: Invocation, out: str, ref: dict) -> set:
    for name in inv.files:
        if not same_body(body(_read(os.path.join(out, name))), ref[inv.name][name],
                         inv.epsilon, inv.s_scale, name.endswith(".csv")):
            return {inv.name}
    return set()


def check_amp(inv: Invocation, out: str, ref: dict) -> set:
    want = ref[inv.name]
    summary = json.loads(_read(os.path.join(out, "amp_summary.json")))
    if (any(summary[k] != want[k] for k in ("n", "p", "delta", "snr"))
            or not close(summary["s_amp"], want["s_amp"])
            or not close(summary["mse_predicted"], want["mse_predicted"])):
        return set(inv.ops)
    seen, failed = set(), set()
    with open(os.path.join(out, "amp.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.reader(line for line in fh if not line.startswith("#")):
            if not row or row[0] == "seed":
                continue
            op, t = f"{inv.name}/seed{row[0]}", int(row[1])
            seen.add(op)
            if t >= len(want["se_mse"]) or not close(float(row[3]), want["se_mse"][t]):
                failed.add(op)
    return failed | (set(inv.ops) - seen)


CHECKS = {"phase": check_phase, "landscape": check_landscape, "amp": check_amp}
