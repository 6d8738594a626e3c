"""Command-line interface: curve emission, threshold reports, and sweeps.

Every subcommand writes CSV/JSON artifacts with a reproducibility header
(seed, version, config hash) and produces byte-identical bodies when re-run
with the same configuration.  Floats are printed with 17 significant digits,
comma delimiter, LF line endings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from . import __version__, amp, channel, potential, thresholds
from .prior import _as_double, prior_from_spec, two_point, two_point_entropy


class SpecError(ValueError):
    """Configuration failed validation; the message names the field."""


class SelftestError(RuntimeError):
    """One or more selftest checks failed; the message counts them."""


def _fmt(x) -> str:
    return f"{float(x):.17g}"


@dataclass
class SweepSpec:
    """Validated description of one CLI job."""

    mode: str
    out: str = "."
    seed: int = 0
    jobs: int = 1
    prior: dict | None = None
    epsilons: list[float] = field(default_factory=list)
    snrs: list[float] = field(default_factory=list)
    rs: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=lambda: ["mmse", "amp"])
    delta: float | None = None
    snr: float | None = None
    epsilon: float | None = None
    p: int | None = None
    sigma2: float | None = None
    n_seeds: int | None = None
    t_max: int = 50
    s_min: float = 1e-3
    s_max: float = 50.0
    s_points: int = 200
    t_min: float = 0.02
    t_max_grid: float = 3.0
    t_points: int = 150

    def content_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k not in ("out", "jobs")}
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.content_dict(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def resolve_prior(self):
        if self.prior is not None:
            return prior_from_spec(self.prior)
        if self.epsilon is not None:
            return two_point(self.epsilon)
        raise SpecError("prior: either a prior spec or an epsilon is required")

    def validate(self):
        if self.mode not in SUBCOMMANDS:
            raise SpecError(f"mode: unknown mode {self.mode!r}")
        if self.jobs < 1:
            raise SpecError(f"jobs: must be >= 1, got {self.jobs}")
        for name, value in self.__dict__.items():
            # An int past the largest double, such as p, fails here by name.
            if any(isinstance(v, (int, float)) and not math.isfinite(_as_double(v, name))
                   for v in (value if isinstance(value, list) else [value])):
                raise SpecError(f"{name}: must be finite, got {value!r}")
        # "a|b" is satisfied by either field; None and [] count as unset.
        for need in SUBCOMMANDS[self.mode].required:
            names = need.split("|")
            if all(getattr(self, name) in (None, []) for name in names):
                raise SpecError(f"{names[0]}: {self.mode} mode requires "
                                + " or ".join(names))
        if self.mode == "phase":
            # The rules the cells apply, so a bad value stops the sweep here and
            # does not fail every cell it is in.  The rules on r stay cell errors.
            for name, check in (("epsilons", two_point), ("snrs", potential._check_snr),
                                ("kinds", thresholds._check_kind)):
                for value in getattr(self, name):
                    try:
                        check(value)
                    except ValueError as exc:
                        raise SpecError(f"{name}: {exc}") from None
        if self.mode == "amp":
            for name in ("p", "delta", "snr", "n_seeds", "t_max"):
                value = getattr(self, name)
                if not 0 < value < math.inf:
                    raise SpecError(f"{name}: amp mode requires a positive finite value, "
                                    f"got {value!r}")
            if self.seed < 0:
                raise SpecError(f"seed: amp mode requires a nonnegative seed, got {self.seed}")
            if self.p / self.snr < np.finfo(float).tiny:     # else snr = p/sigma2 loses digits
                raise SpecError("snr: amp mode needs the noise variance p/snr to be a normal "
                                f"double, got {self.p / self.snr!r}")
            n = self.delta * self.p          # _run_amp takes round(n) measurements
            if not 0.5 < n < math.inf:
                raise SpecError("delta: amp mode needs 0.5 < delta*p < inf (at least one "
                                f"measurement, and finitely many), got delta*p = {n:g}")
        if self.s_points < 2 or self.t_points < 2:
            raise SpecError("grid: s_points and t_points must be >= 2")
        if not (0 < self.s_min < self.s_max):
            raise SpecError("grid: need 0 < s_min < s_max")
        if not (0 < self.t_min < self.t_max_grid):
            raise SpecError("grid: need 0 < t_min < t_max_grid")
        return self


def _write_csv(spec: SweepSpec, name: str, columns: list, rows: typing.Iterable,
               trailing_comments: list = ()) -> str:
    """Write ``name`` under ``spec.out`` with the reproducibility header.

    Header and rows go straight into the open file as ``rows`` yields them.
    Callers compute every number first and pass rows that only format it, so
    the file is opened after the last step that can fail, and a failing call
    writes nothing.
    """
    path = os.path.join(spec.out, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in (f"# rsphase {__version__}", f"# mode={spec.mode} seed={spec.seed}",
                     f"# config_sha256={spec.config_hash()}",
                     f"# columns: {','.join(columns)}"):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        for line in trailing_comments:
            fh.write(line + "\n")
    return path


def _write_json(spec: SweepSpec, name: str, data: dict) -> str:
    path = os.path.join(spec.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _run_channel(spec: SweepSpec) -> list:
    prior = spec.resolve_prior()
    s_grid = np.geomspace(spec.s_min, spec.s_max, spec.s_points)
    curve = channel.channel_curve(prior, s_grid)
    rows = ([_fmt(s), _fmt(i), _fmt(m), curve.mode] for s, i, m in
            zip(curve.s_grid.tolist(), curve.i_values.tolist(), curve.m_values.tolist()))
    return [_write_csv(spec, "channel.csv", ["s", "i_nats", "mmse", "mode"], rows)]


def _run_potential(spec: SweepSpec) -> list:
    prior = spec.resolve_prior()
    land = potential.minimize(spec.delta, spec.snr, prior)
    lo, hi = land.bracket
    s_grid = np.geomspace(lo * (1 - potential.BRACKET_PAD),
                          hi * (1 + potential.BRACKET_PAD), spec.s_points)
    f_vals = potential.potential(spec.delta, spec.snr, prior, s_grid)
    fp_vals = potential.potential_deriv(spec.delta, spec.snr, prior, s_grid)
    rows = ([_fmt(s), _fmt(f), _fmt(fp)]
            for s, f, fp in zip(s_grid.tolist(), f_vals.tolist(), fp_vals.tolist()))
    summary = ("# summary: f_star=" + _fmt(land.f_star)
               + " s_lower_star=" + _fmt(land.s_lower_star)
               + " s_upper_star=" + _fmt(land.s_upper_star)
               + " s_amp=" + _fmt(land.s_amp)
               + " multi_minima=" + str(land.multi_minima).lower())
    return [_write_csv(spec, "potential.csv", ["s", "F", "Fprime"], rows,
                       trailing_comments=[summary])]


def _run_thresholds(spec: SweepSpec) -> list:
    rep = thresholds.report(spec.epsilon, spec.snr, p=spec.p, sigma2=spec.sigma2)
    d = rep.as_dict()
    path = _write_json(spec, "thresholds.json", d)
    width = max(len(k) for k in d)
    lines = [f"{k.ljust(width)}  {_fmt(v)}" for k, v in sorted(d.items())]
    text = "\n".join(lines)
    print(text)
    txt_path = os.path.join(spec.out, "thresholds.txt")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return [path, txt_path]


def _phase_cell(cell):
    eps, snr, r, kind = cell
    try:
        value = thresholds.transition_check(eps, snr, r, kind)
        return _fmt(value), ""
    except Exception as exc:                      # cell failures are non-fatal
        return "", f"{type(exc).__name__}: {exc}"


def _run_phase(spec: SweepSpec) -> list:
    cells = [(e, v, r, k) for e in spec.epsilons for v in spec.snrs
             for r in spec.rs for k in spec.kinds]
    workers = min(spec.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor     # slows every CLI start
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_phase_cell, cells, chunksize=1))
    else:
        results = [_phase_cell(c) for c in cells]
    rows = ([_fmt(eps), _fmt(snr), _fmt(r), kind, value, err]
            for (eps, snr, r, kind), (value, err) in zip(cells, results))
    return [_write_csv(spec, "phase.csv",
                       ["epsilon", "snr", "r", "kind", "m_value", "error"], rows)]


def _run_amp(spec: SweepSpec) -> list:
    prior = spec.resolve_prior()
    p = spec.p
    n = round(spec.delta * p)
    sigma2 = p / spec.snr
    delta_real = n / p
    s_amp = potential.smallest_stationary(delta_real, spec.snr, prior)
    m_star, _ = channel.mmse_eval(prior, s_amp)
    # One state-evolution run serves every seed, at the instances' snr p / sigma2.
    se_mse = [1.0, *amp._se_run(prior, delta_real, p / sigma2, spec.t_max)[1]]
    rows = []
    finals = []
    for k in range(spec.n_seeds):
        seed = spec.seed + k
        # No name holds the instance, so it is freed before the next matrix is drawn.
        trace = amp.run_amp(amp.generate(prior, n, p, sigma2, seed), prior, t_max=spec.t_max)
        for t in range(trace.iterations + 1):
            rows.append([str(seed), str(t), _fmt(trace.mse[t]),
                         _fmt(se_mse[t]), _fmt(trace.residual_var[t])])
        finals.append(float(trace.mse[-1]))
    path = _write_csv(spec, "amp.csv",
                      ["seed", "t", "mse_empirical", "mse_se_predicted", "tau2"], rows)
    summary = {
        "p": p,
        "n": n,
        "delta": delta_real,
        "snr": spec.snr,
        "sigma2": sigma2,
        "n_seeds": spec.n_seeds,
        "t_max": spec.t_max,
        "base_seed": spec.seed,
        "s_amp": s_amp,
        "mse_predicted": m_star,
        "mse_final_mean": float(np.mean(finals)),
        "mse_final_per_seed": finals,
        "abs_gap_to_prediction": abs(float(np.mean(finals)) - m_star),
        "config_sha256": spec.config_hash(),
    }
    return [path, _write_json(spec, "amp_summary.json", summary)]


def _run_figure1(spec: SweepSpec) -> list:
    t_grid = np.linspace(spec.t_min, spec.t_max_grid, spec.t_points)
    curves = []
    for eps in spec.epsilons:
        h = two_point_entropy(eps)
        curve = channel.channel_curve(two_point(eps), 2.0 * h * t_grid)
        curves.append((eps, (curve.i_values / h).tolist(), curve.m_values.tolist()))
    t_list = t_grid.tolist()
    rows = ([_fmt(eps), _fmt(t), _fmt(i_norm), _fmt(m_val)] for eps, i_vals, m_vals in curves
            for t, i_norm, m_val in zip(t_list, i_vals, m_vals))
    return [_write_csv(spec, "figure1.csv", ["epsilon", "t", "i_norm", "m_value"], rows)]


def _run_figure2(spec: SweepSpec) -> list:
    t_grid = np.linspace(spec.t_min, spec.t_max_grid, spec.t_points)
    eps = spec.epsilon
    if eps == 0.0:
        curves = [potential.limit_potential(r, spec.snr, t_grid) for r in spec.rs]
        mode = "limit"
    else:
        # One I curve serves every r.
        curves = potential.normalized_curve(eps, spec.rs, spec.snr, t_grid)
        mode = (channel.MODE_QUADRATURE if channel.approx_epsilon(two_point(eps)) is None
                else channel.MODE_APPROX)
    t_list = t_grid.tolist()
    rows = ([_fmt(t), _fmt(v), _fmt(r), mode] for r, vals in zip(spec.rs, curves)
            for t, v in zip(t_list, vals.tolist()))
    return [_write_csv(spec, "figure2.csv", ["t", "F_norm", "r", "mode"], rows)]


def _selftest_checks():
    from .prior import DiscretePrior, entropy, sample

    eps = 0.1
    prior = two_point(eps)
    h = entropy(prior)

    def check_moments():
        for e in (0.5, 0.1, 1e-4, 1e-8):
            pr = two_point(e)
            w, a = pr.weight_array, pr.atom_array
            assert abs(float(w @ a)) <= 1e-10
            assert abs(float(w @ (a * a)) - 1.0) <= 1e-10
        return "two-point moments standardized"

    def check_i_mmse():
        for s in (0.3, 3.0):
            hstep = 1e-4 * max(s, 1.0)
            lhs = (channel.mutual_info(prior, s + hstep)
                   - channel.mutual_info(prior, s - hstep)) / (2 * hstep)
            rhs = 0.5 * channel.mmse(prior, s)
            assert abs(lhs - rhs) <= 1e-5, f"I'(s) vs M/2 gap {abs(lhs - rhs):.2e}"
        return "information derivative matches half the MMSE"

    def check_bounds():
        big_l = thresholds.l_constant(prior)
        for s in (0.05, 0.5, 2.0, 8.0):
            m = channel.mmse(prior, s)
            i = channel.mutual_info(prior, s)
            assert m <= 1.0 / (1.0 + s) + 1e-9
            assert i <= min(0.5 * math.log1p(s), h) + 1e-9
            assert i >= min(0.5 * s, h) - big_l - 1e-9
        return "channel bound suite holds"

    def check_threshold_identity():
        for snr in (0.3, 1.0, 12.0):
            lhs = thresholds.delta_amp(h, snr) / thresholds.delta_mmse(h, snr)
            assert abs(lhs - thresholds.r_amp(snr)) <= 1e-10
            assert thresholds.r_amp(snr) > 1.0
        return "threshold ratio identity holds"

    def check_se_fixed_point():
        delta = 1.3 * thresholds.delta_amp(h, 8.0)
        s_limit, _ = amp.state_evolution(prior, delta, 8.0, tol=1e-9)
        s_station = potential.smallest_stationary(delta, 8.0, prior)
        assert abs(s_limit - s_station) <= 1e-6 * s_station
        return "state evolution reaches the smallest stationary point"

    def check_q_approx():
        e = 1e-6
        s0 = 2.0 * e * math.log(1.0 / e)
        grid = np.geomspace(0.1 * s0, 10.0 * s0, 50)
        pr = two_point(e)
        gap = max(abs(channel.mmse(pr, s) - channel.mmse_q_approx(e, s)) for s in grid)
        assert gap <= 0.05, f"sup gap {gap:.3f}"
        return "tail surrogate tracks the sparse MMSE"

    def check_sampling():
        draws = sample(prior, 200_000, seed=7)
        assert abs(float(np.mean(draws))) <= 4.0 / math.sqrt(200_000)
        assert np.array_equal(draws, sample(prior, 200_000, seed=7))
        return "prior sampling is standardized and deterministic"

    return [check_moments, check_i_mmse, check_bounds, check_threshold_identity,
            check_se_fixed_point, check_q_approx, check_sampling]


def _run_selftest(spec: SweepSpec) -> list:
    checks = _selftest_checks()
    failures = 0
    for fn in checks:
        try:
            msg = fn()
            print(f"PASS {fn.__name__}: {msg}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {fn.__name__}: {exc}")
        except Exception as exc:
            failures += 1
            print(f"FAIL {fn.__name__}: {type(exc).__name__}: {exc}")
    if failures:
        raise SelftestError(f"selftest: {failures} of {len(checks)} checks failed")
    return []


class Subcommand(typing.NamedTuple):
    """One CLI subcommand: its runner, its flags and the fields it needs."""

    run: typing.Callable
    help: str
    flags: tuple = ()       # (flag, SweepSpec field) pairs
    required: tuple = ()    # SweepSpec fields; "a|b" is satisfied by either


_COMMON_FLAGS = (("--out", "out"), ("--seed", "seed"))

SUBCOMMANDS = {
    "channel": Subcommand(
        _run_channel, "emit (s, I, M) curve for one prior",
        (("--epsilon", "epsilon"), ("--s-min", "s_min"), ("--s-max", "s_max"),
         ("--points", "s_points")),
        ("prior|epsilon",)),
    "potential": Subcommand(
        _run_potential, "emit the potential, its derivative, and minimizers",
        (("--epsilon", "epsilon"), ("--delta", "delta"), ("--snr", "snr"),
         ("--points", "s_points")),
        ("delta", "snr", "prior|epsilon")),
    "thresholds": Subcommand(
        _run_thresholds, "print and write a threshold report",
        (("--epsilon", "epsilon"), ("--snr", "snr"), ("--p", "p"), ("--sigma2", "sigma2")),
        ("epsilon", "snr|p", "snr|sigma2")),
    "phase": Subcommand(
        _run_phase, "sweep transition checks over (epsilon, snr, r)",
        (("--epsilons", "epsilons"), ("--snrs", "snrs"), ("--rs", "rs"),
         ("--kinds", "kinds"), ("--jobs", "jobs")),
        ("epsilons", "snrs", "rs", "kinds")),
    "amp": Subcommand(
        _run_amp, "run AMP on synthetic instances across seeds",
        (("--p", "p"), ("--delta", "delta"), ("--snr", "snr"), ("--epsilon", "epsilon"),
         ("--seeds", "n_seeds"), ("--t-max", "t_max")),
        ("p", "n_seeds", "delta", "snr", "prior|epsilon")),
    "figure1": Subcommand(
        _run_figure1, "normalized channel curves for an epsilon list",
        (("--epsilons", "epsilons"), ("--t-min", "t_min"), ("--t-max", "t_max_grid"),
         ("--points", "t_points")),
        ("epsilons",)),
    "figure2": Subcommand(
        _run_figure2, "normalized potential curves for an r list (epsilon 0: the limit)",
        (("--epsilon", "epsilon"), ("--snr", "snr"), ("--rs", "rs"), ("--t-min", "t_min"),
         ("--t-max", "t_max_grid"), ("--points", "t_points")),
        ("rs", "snr", "epsilon")),
    "selftest": Subcommand(_run_selftest, "run the quick property battery"),
}


def run(spec: SweepSpec) -> list:
    """Validate a spec, execute it, and return the paths written."""
    spec.validate()
    if spec.mode != "selftest":
        os.makedirs(spec.out, exist_ok=True)
    return SUBCOMMANDS[spec.mode].run(spec)


def _float_list(text: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _str_list(text: str) -> list:
    return [v.strip() for v in text.split(",") if v.strip() != ""]


_FIELD_TYPES = typing.get_type_hints(SweepSpec)


def _flag_type(hint):
    """argparse type for a SweepSpec annotation."""
    if typing.get_origin(hint) is types.UnionType:      # X | None
        hint = typing.get_args(hint)[0]
    return {list[float]: _float_list, list[str]: _str_list}.get(hint, hint)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it as it was, so it is reused."""
    parser = argparse.ArgumentParser(
        prog="rsphase",
        description="Replica-symmetric channel curves, potential minimizers, "
                    "phase-transition thresholds, and AMP experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, command in SUBCOMMANDS.items():
        # A flag the user did not type stays out of the namespace, so it never
        # overrides a --config value; SweepSpec carries the real defaults.
        sp = sub.add_parser(mode, help=command.help, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON file of the fields below (flags override)")
        for flag, name in _COMMON_FLAGS + command.flags:
            sp.add_argument(flag, dest=name, type=_flag_type(_FIELD_TYPES[name]))
    return parser


def _fits(value, hint) -> bool:
    """Whether a JSON value matches a SweepSpec annotation (ints pass as floats)."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _spec_from_args(args) -> SweepSpec:
    """The --config fields, overridden by the flags typed on the command line."""
    flags = dict(vars(args))
    config = {}
    path = flags.pop("config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise SpecError("config: top level must be a JSON object")
    for key, value in config.items():
        if key not in _FIELD_TYPES:
            raise SpecError(f"config: unknown field {key!r}")
        if not _fits(value, _FIELD_TYPES[key]):
            raise SpecError(f"{key}: {value!r} is not of type "
                            f"{SweepSpec.__annotations__[key]}")
    if args.mode == "figure2":
        config.setdefault("t_max_grid", 6.0)   # wide enough to show the upper-branch minima
    return SweepSpec(**{**config, **flags})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        paths = run(spec)
    except SpecError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, SelftestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1
    except (potential.BracketError, channel.QuadratureError, amp.ConvergenceError,
            amp.DivergenceError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
