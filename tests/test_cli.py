"""CLI artifact emission: formats, determinism, validation, selftest."""

import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rsphase import cli
from rsphase.amp import se_sequence
from rsphase.channel import mmse_eval
from rsphase.cli import SpecError, SweepSpec, main, run
from rsphase.potential import potential
from rsphase.prior import two_point, two_point_entropy

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")])))


def read_csv(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    body = list(csv.reader(rows[1:]))
    return comments, header, body


_TERNARY = {"kind": "discrete", "atoms": [-math.sqrt(10.0), 0.0, math.sqrt(10.0)],
            "weights": [0.05, 0.9, 0.05]}

# Every subcommand on a small input, at a quadrature and a surrogate spike weight
# where it takes one; the child blocks scipy before importing the package.
_NO_SCIPY = """
import json, os, sys
sys.modules["scipy"] = None
from rsphase import cli
from rsphase.prior import two_point_entropy
from rsphase.thresholds import delta_mmse
out, ternary = sys.argv[1], json.loads(sys.argv[2])
with open(os.path.join(out, "ternary.json"), "w") as fh:
    json.dump({"prior": ternary}, fh)
calls = [
    ["phase", "--epsilons", "1e-4,1e-16", "--snrs", "5", "--rs", "0.9,1.1",
     "--kinds", "mmse,amp"],
    ["channel", "--config", os.path.join(out, "ternary.json"), "--points", "20"],
    ["figure1", "--epsilons", "1e-4,1e-16", "--points", "20"],
    ["figure2", "--epsilon", "1e-16", "--snr", "5", "--rs", "0.5,2", "--points", "20"],
    ["amp", "--p", "200", "--delta", "0.86", "--snr", "10", "--epsilon", "0.1",
     "--seeds", "1", "--t-max", "20"],
    ["selftest"],
]
for eps in (1e-16, 1e-4):
    delta = 1.1 * delta_mmse(two_point_entropy(eps), 5.0)
    calls.append(["potential", "--epsilon", repr(eps), "--delta", repr(delta), "--snr", "5",
                  "--points", "20"])
    calls.append(["thresholds", "--epsilon", repr(eps), "--snr", "5"])
codes = [cli.main(argv + ["--out", os.path.join(out, str(k))]) for k, argv in enumerate(calls)]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)}))
"""


def test_cli_runs_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path), json.dumps(_TERNARY)],
                          env=_child_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * len(result["codes"])
    assert result["scipy"] == []


# Small calls of every subcommand that writes files.
_SMALL_CALLS = {
    "channel": ["channel", "--epsilon", "1e-4", "--points", "20"],
    "potential": ["potential", "--epsilon", "0.1", "--delta", "1", "--snr", "5",
                  "--points", "20"],
    "thresholds": ["thresholds", "--epsilon", "0.1", "--snr", "5"],
    # r = -1 fails its cells, so the error column is written too.
    "phase": ["phase", "--epsilons", "1e-2,1e-16", "--snrs", "5", "--rs", "0.5,-1",
              "--kinds", "mmse,amp"],
    "amp": ["amp", "--p", "200", "--delta", "0.86", "--snr", "10", "--epsilon", "0.1",
            "--seeds", "2", "--t-max", "10"],
    "figure1": ["figure1", "--epsilons", "1e-4,1e-16", "--points", "20"],
    "figure2": ["figure2", "--epsilon", "1e-4", "--snr", "5", "--rs", "0.5,2", "--points", "20"],
}


def test_cli_leaves_numpy_polynomial_out(tmp_path):
    # The two-point remainder's Gauss-Legendre rule is literal constants, so no
    # run-time path imports numpy.polynomial.
    code = ("import sys\nfrom rsphase import cli\n"
            "for k, argv in enumerate(%r):\n"
            "    assert cli.main(argv + ['--out', sys.argv[1] + str(k)]) == 0\n"
            "print('numpy.polynomial' in sys.modules)\n"
            % [_SMALL_CALLS[name] for name in ("channel", "potential", "phase")])
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")], env=_child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


class TestRepeatedCalls:
    """A process that calls main again reuses the parser and writes the same bytes."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", list(_SMALL_CALLS.values()), ids=list(_SMALL_CALLS))
    def test_second_call_writes_the_same_bytes(self, argv, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
        files = sorted(os.listdir(tmp_path / "a"))
        assert files and files == sorted(os.listdir(tmp_path / "b"))
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestChannelCommand:
    def test_artifact(self, tmp_path):
        rc = main(["channel", "--epsilon", "0.1", "--s-min", "0.01",
                   "--s-max", "10", "--points", "15", "--out", str(tmp_path)])
        assert rc == 0
        comments, header, body = read_csv(tmp_path / "channel.csv")
        assert header == ["s", "i_nats", "mmse", "mode"]
        assert any("config_sha256=" in c for c in comments)
        assert any("seed=" in c for c in comments)
        assert len(body) == 15
        s_vals = [float(r[0]) for r in body]
        i_vals = [float(r[1]) for r in body]
        m_vals = [float(r[2]) for r in body]
        assert all(r[3] == "quadrature" for r in body)
        assert s_vals == sorted(s_vals)
        assert all(x2 >= x1 - 1e-12 for x1, x2 in zip(i_vals, i_vals[1:]))
        assert all(0.0 <= m <= 1.0 for m in m_vals)

    def test_byte_identical_rerun(self, tmp_path):
        args = ["channel", "--epsilon", "0.2", "--s-min", "0.1", "--s-max", "5",
                "--points", "8"]
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert (out1 / "channel.csv").read_bytes() == (out2 / "channel.csv").read_bytes()

    def test_floats_have_17_significant_digits(self, tmp_path):
        main(["channel", "--epsilon", "0.1", "--s-min", "0.5", "--s-max", "2",
              "--points", "3", "--out", str(tmp_path)])
        _, _, body = read_csv(tmp_path / "channel.csv")
        value = body[0][1]
        assert len(value.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15


class TestPotentialCommand:
    def test_artifact_with_summary(self, tmp_path):
        rc = main(["potential", "--epsilon", "0.5", "--delta", "1.0",
                   "--snr", "1.0", "--points", "50", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "potential.csv").read_text()
        assert "s,F,Fprime" in text
        summary = [l for l in text.splitlines() if l.startswith("# summary:")]
        assert len(summary) == 1
        assert "s_amp=" in summary[0] and "f_star=" in summary[0]
        # The landmark matches the library value.
        s_amp = float(summary[0].split("s_amp=")[1].split()[0])
        assert s_amp == pytest.approx(0.6295127863, abs=1e-6)


    @pytest.mark.parametrize("eps", [1e-4, 1e-16], ids=["quadrature", "surrogate"])
    def test_f_column_matches_scalar_calls(self, eps, tmp_path):
        # F is one grid call; each value is what a scalar call at its s gives.
        delta = 1.1 * 2.0 * two_point_entropy(eps) / math.log1p(5.0)
        rc = main(["potential", "--epsilon", repr(eps), "--delta", repr(delta),
                   "--snr", "5", "--out", str(tmp_path)])
        assert rc == 0
        _, header, body = read_csv(tmp_path / "potential.csv")
        assert header[:2] == ["s", "F"]
        f_vals = np.array([float(row[1]) for row in body])
        scalar = np.array([potential(delta, 5.0, two_point(eps), float(row[0])) for row in body])
        np.testing.assert_allclose(f_vals, scalar, rtol=1e-15, atol=0)


class TestThresholdsCommand:
    def test_json_values(self, tmp_path, capsys):
        rc = main(["thresholds", "--epsilon", "0.1", "--snr", "10",
                   "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "thresholds.json").read_text())
        assert data["h"] == pytest.approx(0.3250829733914482)
        assert data["delta_amp"] / data["delta_mmse"] == pytest.approx(
            data["r_amp"], abs=1e-10)
        printed = capsys.readouterr().out
        assert "delta_mmse" in printed

    def test_sparse_fields_present_with_p_sigma(self, tmp_path):
        main(["thresholds", "--epsilon", "0.01", "--p", "100000",
              "--sigma2", "4.0", "--out", str(tmp_path)])
        data = json.loads((tmp_path / "thresholds.json").read_text())
        assert "delta_mmse_sparse" in data
        assert data["snr"] == pytest.approx(100000 * 0.01 * 0.99 / 4.0)


class TestPhaseCommand:
    def test_sweep_with_error_cell(self, tmp_path):
        # r = 1 is a domain error for the transition check; the cell must be
        # recorded, not fatal.
        rc = main(["phase", "--epsilons", "0.01", "--snrs", "5",
                   "--rs", "0.5,1.0", "--kinds", "mmse", "--out", str(tmp_path)])
        assert rc == 0
        _, header, body = read_csv(tmp_path / "phase.csv")
        assert header == ["epsilon", "snr", "r", "kind", "m_value", "error"]
        assert len(body) == 2
        good = [row for row in body if row[5] == ""]
        bad = [row for row in body if row[5] != ""]
        assert len(good) == 1 and len(bad) == 1
        assert float(good[0][4]) > 0.5
        assert bad[0][4] == "" and "ValueError" in bad[0][5]

    def test_parallel_matches_serial(self, tmp_path):
        base = ["phase", "--epsilons", "0.05,0.01", "--snrs", "5",
                "--rs", "0.5,2.0", "--kinds", "mmse,amp"]
        main(base + ["--out", str(tmp_path / "serial")])
        main(base + ["--jobs", "2", "--out", str(tmp_path / "par")])
        assert ((tmp_path / "serial" / "phase.csv").read_bytes()
                == (tmp_path / "par" / "phase.csv").read_bytes())

    def test_pool_capped_by_cells_and_cpus(self, tmp_path, monkeypatch):
        # A recorder stands in for the pool, so no worker process starts.
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        base = ["phase", "--epsilons", "0.05", "--snrs", "5", "--kinds", "mmse",
                "--jobs", "64"]
        assert main(base + ["--rs", "0.5,2.0", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--rs", "0.3,0.5,2.0,3.0", "--out", str(tmp_path / "b")]) == 0
        assert sizes == [2, 3]

    def test_cli_import_leaves_the_pool_out(self):
        # A fresh interpreter: the pool is imported only when a sweep uses it.
        code = "import sys, rsphase.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_tiny_snr_cells_all_resolve(self, tmp_path):
        # Below snr ~1.1e-16 the admissible interval is one double; every cell resolves.
        rc = main(["phase", "--epsilons", "0.5", "--snrs", "1e-16,3e-16", "--rs", "2",
                   "--kinds", "amp,mmse", "--out", str(tmp_path)])
        assert rc == 0
        _, header, body = read_csv(tmp_path / "phase.csv")
        rows = [dict(zip(header, row)) for row in body]
        assert len(rows) == 4
        assert all(row["m_value"] and not row["error"] for row in rows)

    def test_jobs_is_a_phase_flag(self, tmp_path, capsys):
        # Only the phase sweep runs cells in parallel; elsewhere --jobs is unknown.
        with pytest.raises(SystemExit) as exc:
            main(["channel", "--epsilon", "0.1", "--jobs", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_empty_grid_rejected_without_output(self, tmp_path):
        rc = main(["phase", "--epsilons", "", "--snrs", "5", "--rs", "0.5",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert not (tmp_path / "x" / "phase.csv").exists()


class TestAmpCommand:
    def test_artifacts(self, tmp_path):
        rc = main(["amp", "--p", "300", "--delta", "0.9", "--snr", "10",
                   "--epsilon", "0.1", "--seeds", "2", "--t-max", "12",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, header, body = read_csv(tmp_path / "amp.csv")
        assert header == ["seed", "t", "mse_empirical", "mse_se_predicted", "tau2"]
        seeds = sorted({row[0] for row in body})
        assert seeds == ["0", "1"]
        summary = json.loads((tmp_path / "amp_summary.json").read_text())
        assert summary["p"] == 300
        assert summary["n"] == 270
        assert "mse_final_mean" in summary and "s_amp" in summary
        assert len(summary["mse_final_per_seed"]) == 2

    def test_missing_fields_rejected(self, tmp_path):
        rc = main(["amp", "--p", "300", "--out", str(tmp_path)])
        assert rc == 2

    def test_in_process_rerun_is_byte_identical(self, tmp_path):
        args = ["amp", "--p", "200", "--delta", "0.86", "--snr", "10", "--epsilon", "0.1",
                "--seeds", "2", "--t-max", "20"]
        for out in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / out)]) == 0
        for name in ("amp.csv", "amp_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_se_column_is_mmse_at_se_iterates(self, tmp_path):
        # One state-evolution run serves every seed: M = 1 at the cold start,
        # then M at each iterate before the last, whatever the seed's length.
        assert main(["amp", "--p", "200", "--delta", "0.86", "--snr", "10", "--epsilon", "0.1",
                     "--seeds", "3", "--t-max", "30", "--out", str(tmp_path)]) == 0
        _, _, body = read_csv(tmp_path / "amp.csv")
        prior = two_point(0.1)
        s_t = se_sequence(prior, 172 / 200, 200 / (200 / 10.0), 30)     # n/p, p/sigma2
        expected = [1.0] + [mmse_eval(prior, s)[0] for s in s_t[:-1]]
        assert sorted({row[0] for row in body}) == ["0", "1", "2"]
        for row in body:
            assert float(row[3]) == expected[int(row[1])]


class TestFigureCommands:
    def test_figure1(self, tmp_path):
        rc = main(["figure1", "--epsilons", "0.1,0.01", "--points", "20",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, header, body = read_csv(tmp_path / "figure1.csv")
        assert header == ["epsilon", "t", "i_norm", "m_value"]
        assert len(body) == 40
        for row in body:
            assert 0.0 <= float(row[3]) <= 1.0
            assert float(row[2]) >= -1e-12

    def test_figure2_approx_mode_stamp(self, tmp_path):
        rc = main(["figure2", "--epsilon", "1e-16", "--snr", "5",
                   "--rs", "0.9,1.1", "--points", "25", "--out", str(tmp_path)])
        assert rc == 0
        _, header, body = read_csv(tmp_path / "figure2.csv")
        assert header == ["t", "F_norm", "r", "mode"]
        assert all(row[3] == "approx" for row in body)

    def test_figure2_limit_mode(self, tmp_path):
        main(["figure2", "--epsilon", "0", "--snr", "5", "--rs", "0.9",
              "--points", "25", "--out", str(tmp_path)])
        _, _, body = read_csv(tmp_path / "figure2.csv")
        assert all(row[3] == "limit" for row in body)
        # Spot value against the closed form.
        from rsphase.potential import limit_potential
        t0, f0 = float(body[0][0]), float(body[0][1])
        assert f0 == pytest.approx(limit_potential(0.9, 5.0, t0), rel=1e-12)


class TestConfigFile:
    def test_config_drives_run_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "epsilon": 0.1, "s_min": 0.01, "s_max": 10.0, "s_points": 7,
            "seed": 99, "out": str(tmp_path / "cfgout"),
        }))
        rc = main(["channel", "--config", str(cfg)])
        assert rc == 0
        comments, _, body = read_csv(tmp_path / "cfgout" / "channel.csv")
        assert len(body) == 7
        assert any("seed=99" in c for c in comments)
        # Flag overrides the config value.
        rc = main(["channel", "--config", str(cfg), "--points", "4",
                   "--out", str(tmp_path / "cfgout2")])
        assert rc == 0
        _, _, body2 = read_csv(tmp_path / "cfgout2" / "channel.csv")
        assert len(body2) == 4

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        assert main(["channel", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("field, value", [("jobs", "2"), ("epsilons", "0.1"),
                                              ("s_points", 2.5)])
    def test_mistyped_config_field(self, tmp_path, capsys, field, value):
        config = {"epsilons": [0.1], "snrs": [5], "rs": [0.5], field: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["phase", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:")
        assert "Traceback" not in err

    def test_discrete_prior_spec(self, tmp_path):
        root3 = math.sqrt(1.5)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "prior": {"kind": "discrete", "atoms": [-root3, 0.0, root3],
                      "weights": [1 / 3, 1 / 3, 1 / 3]},
            "s_min": 0.1, "s_max": 5.0, "s_points": 5,
        }))
        rc = main(["channel", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        _, _, body = read_csv(tmp_path / "o" / "channel.csv")
        assert len(body) == 5
        # Mutual information saturates at ln(3) for three equal atoms.
        assert float(body[-1][1]) < math.log(3.0) + 1e-9


# field -> (typed text, parsed value, config-file value)
FIELD_VALUES = {
    "out": ("o", "o", "cfg"), "seed": ("7", 7, 3), "jobs": ("2", 2, 3),
    "epsilon": ("0.1", 0.1, 0.2), "delta": ("0.8", 0.8, 0.7), "snr": ("5", 5.0, 4.0),
    "p": ("100", 100, 200), "sigma2": ("4", 4.0, 2.0),
    "epsilons": ("0.1,0.01", [0.1, 0.01], [0.2]), "snrs": ("5", [5.0], [4.0]),
    "rs": ("0.5,2", [0.5, 2.0], [1.5]), "kinds": ("amp", ["amp"], ["mmse"]),
    "n_seeds": ("3", 3, 2), "t_max": ("12", 12, 20),
    "s_min": ("0.01", 0.01, 0.02), "s_max": ("9", 9.0, 8.0), "s_points": ("7", 7, 5),
    "t_min": ("0.1", 0.1, 0.05), "t_max_grid": ("2.5", 2.5, 4.0), "t_points": ("9", 9, 11),
}
COMMON_FLAGS = {"--out": "out", "--seed": "seed"}
SUBCOMMAND_FLAGS = {
    "channel": {"--epsilon": "epsilon", "--s-min": "s_min", "--s-max": "s_max",
                "--points": "s_points"},
    "potential": {"--epsilon": "epsilon", "--delta": "delta", "--snr": "snr",
                  "--points": "s_points"},
    "thresholds": {"--epsilon": "epsilon", "--snr": "snr", "--p": "p", "--sigma2": "sigma2"},
    "phase": {"--epsilons": "epsilons", "--snrs": "snrs", "--rs": "rs", "--kinds": "kinds",
              "--jobs": "jobs"},
    "amp": {"--p": "p", "--delta": "delta", "--snr": "snr", "--epsilon": "epsilon",
            "--seeds": "n_seeds", "--t-max": "t_max"},
    "figure1": {"--epsilons": "epsilons", "--t-min": "t_min", "--t-max": "t_max_grid",
                "--points": "t_points"},
    "figure2": {"--epsilon": "epsilon", "--snr": "snr", "--rs": "rs", "--t-min": "t_min",
                "--t-max": "t_max_grid", "--points": "t_points"},
    "selftest": {},
}


class TestFlagTable:
    @pytest.mark.parametrize("mode", list(SUBCOMMAND_FLAGS))
    def test_flags_land_in_their_fields(self, mode, tmp_path, capsys):
        flags = {**COMMON_FLAGS, **SUBCOMMAND_FLAGS[mode]}

        def parse(argv):
            return cli._spec_from_args(cli.build_parser().parse_args([mode] + argv))

        typed = [arg for flag, name in flags.items() for arg in (flag, FIELD_VALUES[name][0])]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: FIELD_VALUES[name][2] for name in flags.values()}))
        by_flag = parse(typed)
        by_config = parse(["--config", str(cfg)])
        both = parse(["--config", str(cfg)] + typed)
        for name in flags.values():
            _, value, config_value = FIELD_VALUES[name]
            assert getattr(by_flag, name) == value
            assert getattr(by_config, name) == config_value   # absent flags keep config
            assert getattr(both, name) == value               # typed flags beat config
        # Untyped flags leave every field at its SweepSpec default, except that
        # figure2 widens t_max_grid when neither a flag nor the config sets it.
        bare, default = parse([]), SweepSpec(mode=mode)
        default.t_max_grid = 6.0 if mode == "figure2" else default.t_max_grid
        assert bare == default

        with pytest.raises(SystemExit) as exc:
            main([mode, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for flag, name in flags.items():
            assert f"{flag} {name.upper()}" in help_text


class TestRuntimeErrors:
    def test_bracket_error_is_one_line(self, tmp_path, capsys):
        # delta*snr so small that 1 - M(s) rounds to 0 at the lower bracket end.
        rc = main(["potential", "--epsilon", "0.1", "--delta", "1e-300",
                   "--snr", "5", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: BracketError: ")
        assert err.count("\n") == 1

    @staticmethod
    def _failing_isolation(monkeypatch):
        # A node ladder that does not converge inside smallest_stationary's
        # isolation, the first step that reads M in both commands below.
        def unconverged(prior, s_values):
            raise cli.channel.QuadratureError("Gauss-Hermite refinement did not stabilize")

        monkeypatch.setattr(cli.channel, "mmse_eval_curve", unconverged)

    def test_quadrature_error_in_the_isolation_is_one_line(self, tmp_path, capsys, monkeypatch):
        self._failing_isolation(monkeypatch)
        rc = main(["amp", "--p", "200", "--delta", "0.86", "--snr", "10", "--epsilon", "0.1",
                   "--seeds", "1", "--t-max", "5", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == ("error: QuadratureError: Gauss-Hermite refinement "
                                           "did not stabilize\n")
        assert not (tmp_path / "amp.csv").exists()

    def test_quadrature_error_in_the_isolation_is_one_error_cell(self, tmp_path, monkeypatch):
        self._failing_isolation(monkeypatch)
        assert main(["phase", "--epsilons", "0.01", "--snrs", "5", "--rs", "0.5",
                     "--kinds", "amp", "--out", str(tmp_path)]) == 0
        _, _, body = read_csv(tmp_path / "phase.csv")
        assert body == [["0.01", "5", "0.5", "amp", "",
                         "QuadratureError: Gauss-Hermite refinement did not stabilize"]]

    def test_tiny_delta_snr_names_the_cause(self, tmp_path, capsys):
        rc = main(["potential", "--epsilon", "0.1", "--delta", "1e-300",
                   "--snr", "5", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "delta*snr = 5e-300" in err
        assert "1 - M(s) rounds to 0" in err
        assert "quadrature" not in err

    @pytest.mark.filterwarnings("error")    # a numpy RuntimeWarning would print a second line
    @pytest.mark.parametrize("delta, snr", [("1e-300", "1e-300"), ("1", "1e-320")])
    def test_subnormal_delta_snr_is_one_line(self, delta, snr, tmp_path, capsys):
        rc = main(["potential", "--epsilon", "0.1", "--delta", delta, "--snr", snr,
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: delta*snr = ") and err.count("\n") == 1
        assert "smallest normal double" in err

    @staticmethod
    def _potential_in_child(delta, snr, tmp_path):
        # A child process, so that the stderr seen is the whole of it, numpy's
        # warnings included (the test session would turn them into errors).
        return subprocess.run([sys.executable, "-m", "rsphase.cli", "potential", "--epsilon",
                               "0.1", "--delta", delta, "--snr", snr, "--out",
                               str(tmp_path / "out")],
                              env=_child_env(), capture_output=True, text=True, timeout=120)

    def test_overflowing_delta_snr_is_one_line(self, tmp_path):
        # It must be the one error line, with no warning and no traceback.
        proc = self._potential_in_child("1e300", "1e300", tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: delta*snr must be finite, got inf\n"

    def test_delta_snr_past_the_padded_grid_is_one_line(self, tmp_path):
        # The product is finite, but the scan grid's padded end is not.
        proc = self._potential_in_child("1", "1.7976931348623157e308", tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ("error: delta*snr = 1.7976931348623157e+308 is too large: "
                               "the padded scan grid's upper end overflows\n")

    @pytest.mark.parametrize("argv, code", [
        (["amp", "--p", "0", "--delta", "0.5", "--snr", "5", "--epsilon", "0.1",
          "--seeds", "1", "--t-max", "5"], 2),
        (["amp", "--p", "100", "--delta", "0.5", "--snr", "0", "--epsilon", "0.1",
          "--seeds", "1", "--t-max", "5"], 2),
        (["amp", "--p", "100", "--delta", "-1", "--snr", "5", "--epsilon", "0.1",
          "--seeds", "1", "--t-max", "5"], 2),
        (["amp", "--p", "100", "--delta", "0.5", "--snr", "5", "--epsilon", "0.1",
          "--seeds", "1", "--t-max", "0"], 2),
        (["thresholds", "--epsilon", "0.1", "--p", "100", "--sigma2", "0"], 1),
        # An int p past the largest double.
        (["thresholds", "--epsilon", "0.1", "--p", "1" + "0" * 400, "--sigma2", "1"], 1),
        (["amp", "--p", "1" + "0" * 400, "--delta", "0.5", "--snr", "5", "--epsilon", "0.1",
          "--seeds", "1", "--t-max", "5"], 1),
        # The last two fail after numbers exist: rows are streamed into the file,
        # so it must be opened only once every number is computed.
        (["figure2", "--epsilon", "1e-4", "--snr", "5", "--rs", "0.5,-1"], 1),
        (["potential", "--epsilon", "0.1", "--delta", "1e-17", "--snr", "1"], 3),
    ], ids=["amp-p0", "amp-snr0", "amp-negative-delta", "amp-t-max-0", "thresholds-sigma2-0",
            "thresholds-p-past-double", "amp-p-past-double", "figure2-negative-r",
            "potential-unresolvable-bracket"])
    def test_bad_input_is_one_line_and_writes_nothing(self, argv, code, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == code
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch):
        def generate(prior, n, p, sigma2, seed):
            raise MemoryError(f"cannot allocate a {n}x{p} design matrix")

        monkeypatch.setattr(cli.amp, "generate", generate)
        rc = main(["amp", "--p", "3000000", "--delta", "1", "--snr", "5", "--epsilon", "0.1",
                   "--seeds", "1", "--t-max", "2", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: MemoryError: cannot allocate a 3000000x3000000 design matrix\n"

    @pytest.mark.parametrize("prior", [
        {"kind": "two_point", "epsilon": None},
        {"kind": "discrete", "atoms": 5, "weights": [1.0]},
        {"kind": "discrete", "atoms": [[1]], "weights": [1.0]},
    ], ids=["epsilon-null", "atoms-number", "atoms-nested"])
    def test_malformed_prior_spec_is_one_line(self, prior, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": prior}))
        rc = main(["channel", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        assert ("epsilon" if "epsilon" in prior else "atoms") in err

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-5"], "seed: amp mode requires a nonnegative seed, got -5\n"),
        (["--p", "1", "--delta", "1", "--snr", "1.7976931348623157e308"],
         "snr: amp mode needs the noise variance p/snr to be a normal double, got 5.56"),
    ], ids=["negative-seed", "subnormal-noise-variance"])
    def test_amp_config_error_names_the_field(self, flags, message, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["amp", "--p", "100", "--delta", "0.5", "--snr", "5", "--epsilon", "0.1",
                   "--seeds", "1", "--t-max", "5", "--out", str(out)] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: " + message)
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_sigma2_is_named(self, tmp_path, capsys):
        # k/sigma2 and p*eps*(1-eps)/sigma2 overflow: the error names sigma2, the
        # input given, not the snr derived from it.
        rc = main(["thresholds", "--epsilon", "0.1", "--p", "10", "--sigma2", "1e-320",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: noise variance sigma2 = 1e-320 is too "
                                           "small: k/sigma2 overflows\n")
        with pytest.raises(ValueError, match="sigma2 = 1e-320 is too small"):
            cli.thresholds.sparse_thresholds(1.0, 10.0, 1e-320)

    def test_amp_delta_below_one_measurement_rejected(self, tmp_path, capsys):
        # round(0.001 * 100) = 0 measurements; the run must not quietly use n = 1.
        out = tmp_path / "out"
        rc = main(["amp", "--p", "100", "--delta", "0.001", "--snr", "5", "--epsilon",
                   "0.1", "--seeds", "1", "--t-max", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: delta:") and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())


class TestSelftest:
    def test_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_failure_exits_1(self, capsys, monkeypatch):
        def check_fails():
            raise AssertionError("gap 1.0e+00")

        def check_passes():
            return "holds"

        monkeypatch.setattr(cli, "_selftest_checks", lambda: [check_fails, check_passes])
        assert main(["selftest"]) == 1
        out, err = capsys.readouterr()
        assert out == "FAIL check_fails: gap 1.0e+00\nPASS check_passes: holds\n"
        assert err == "error: selftest: 1 of 2 checks failed\n"


class TestSpecValidation:
    def test_mode_required_fields(self):
        with pytest.raises(SpecError):
            SweepSpec(mode="figure2", rs=[0.5]).validate()
        with pytest.raises(SpecError):
            SweepSpec(mode="phase", epsilons=[0.1], snrs=[], rs=[1.5]).validate()
        with pytest.raises(SpecError):
            SweepSpec(mode="phase", epsilons=[2.0], snrs=[1.0], rs=[1.5]).validate()
        with pytest.raises(SpecError):
            SweepSpec(mode="amp", p=100).validate()

    def test_amp_t_max_checked_up_front(self, monkeypatch):
        # Rejected by validate, before smallest_stationary runs.
        monkeypatch.setattr(cli.potential, "smallest_stationary", None)
        with pytest.raises(SpecError, match="^t_max: "):
            run(SweepSpec(mode="amp", p=100, delta=0.5, snr=5.0, n_seeds=1, epsilon=0.1,
                          t_max=0))

    @pytest.mark.parametrize("field,value", [
        ("s_min", math.nan), ("s_max", math.inf), ("t_min", -math.inf),
        ("t_max_grid", math.inf), ("t_max_grid", math.nan)])
    def test_non_finite_grid_bound_named(self, field, value):
        with pytest.raises(SpecError, match=f"^{field}: must be finite"):
            SweepSpec(mode="channel", epsilon=0.1, **{field: value}).validate()

    @pytest.mark.parametrize("field", ["snrs", "rs"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_list_value_named(self, field, value):
        lists = {"epsilons": [0.01], "snrs": [5.0], "rs": [1.1], field: [5.0, value]}
        with pytest.raises(SpecError, match=f"^{field}: must be finite"):
            SweepSpec(mode="phase", **lists).validate()

    @pytest.mark.parametrize("argv", [
        ["channel", "--epsilon", "0.01", "--s-max", "inf"],
        ["channel", "--epsilon", "0.01", "--s-min", "nan"],
        ["phase", "--epsilons", "0.01", "--snrs", "inf", "--rs", "1.1"],
        ["figure1", "--epsilons", "0.01", "--t-max", "inf"],
        ["phase", "--epsilons", "0.01", "--snrs", "5", "--rs", "inf"],
        ["potential", "--epsilon", "0.01", "--delta", "inf", "--snr", "5"],
        ["thresholds", "--epsilon", "0.1", "--p", "100", "--sigma2", "inf"],
    ], ids=["channel-s-max-inf", "channel-s-min-nan", "phase-snrs-inf", "figure1-t-max-inf",
            "phase-rs-inf", "potential-delta-inf", "thresholds-sigma2-inf"])
    @pytest.mark.filterwarnings("error")    # a numpy RuntimeWarning would print a second line
    def test_non_finite_flag_is_one_config_error_line(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_amp_overflowing_delta_p_is_one_config_error_line(self, tmp_path, capsys):
        # An overflowing delta*p is a config error, not an OverflowError from round().
        rc = main(["amp", "--p", "10", "--delta", "1e308", "--snr", "5", "--epsilon", "0.1",
                   "--seeds", "1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: delta: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # Values every cell would reject are checked by the rule the cells apply:
    # a subnormal snr, an epsilon whose spike atom overflows, an unknown kind.
    @pytest.mark.parametrize("field, flags, message", [
        ("snrs", ["--epsilons", "0.01", "--snrs", "1e-310", "--kinds", "amp"],
         "below the smallest normal double"),
        ("epsilons", ["--epsilons", "1e-320", "--snrs", "5", "--kinds", "amp"],
         "spike atom sqrt((1-eps)/eps) overflows"),
        ("kinds", ["--epsilons", "0.01", "--snrs", "5", "--kinds", "mmse,both"],
         "kind must be 'mmse' or 'amp', got 'both'"),
    ], ids=["subnormal-snr", "overflowing-epsilon", "unknown-kind"])
    def test_phase_value_every_cell_rejects_is_one_config_error_line(
            self, field, flags, message, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["phase", *flags, "--rs", "0.5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
        assert message in err
        assert not (out / "phase.csv").exists()

    def test_hash_stable_under_out_and_jobs(self):
        a = SweepSpec(mode="channel", epsilon=0.1, out="x", jobs=1)
        b = SweepSpec(mode="channel", epsilon=0.1, out="y", jobs=4)
        assert a.config_hash() == b.config_hash()
