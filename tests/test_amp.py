"""Instance generation, state evolution, the AMP loop, and Monte Carlo MMSE."""

import math
import tracemalloc

import numpy as np
import pytest

from rsphase import amp, channel, cli
from rsphase.amp import (
    ConvergenceError,
    DivergenceError,
    generate,
    mc_mmse,
    run_amp,
    se_sequence,
    state_evolution,
)
from rsphase.channel import mmse, mmse_eval
from rsphase.potential import smallest_stationary
from rsphase.prior import DiscretePrior, entropy, two_point
from rsphase.thresholds import delta_amp, delta_mmse


class TestGenerate:
    def test_shapes_and_ratios(self):
        inst = generate(two_point(0.1), 500, 1000, 4.0, seed=0)
        assert inst.x.shape == (500, 1000)
        assert inst.delta == pytest.approx(0.5)
        assert inst.snr == pytest.approx(250.0)

    def test_exact_identity(self):
        inst = generate(two_point(0.1), 300, 400, 2.0, seed=1)
        assert np.array_equal(inst.y, inst.x @ inst.beta + inst.noise)

    def test_noiseless(self):
        inst = generate(two_point(0.5), 100, 200, 0.0, seed=2)
        assert np.all(inst.noise == 0.0)
        assert np.array_equal(inst.y, inst.x @ inst.beta)
        assert inst.snr == math.inf

    def test_deterministic(self):
        a = generate(two_point(0.2), 60, 80, 1.0, seed=5)
        b = generate(two_point(0.2), 60, 80, 1.0, seed=5)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.y, b.y)

    def test_column_second_moments(self):
        inst = generate(two_point(0.5), 2000, 50, 1.0, seed=6)
        col_m2 = np.mean(inst.x**2, axis=0)
        assert np.all(np.abs(col_m2 - 1.0) <= 5.0 / math.sqrt(2000))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            generate(two_point(0.5), 0, 10, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate(two_point(0.5), 10, 10, -1.0, seed=0)
        for sigma2 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma2"):
                generate(two_point(0.1), 10, 20, sigma2, seed=0)


class TestStateEvolution:
    def test_cold_start_value(self):
        _, iterates = state_evolution(two_point(0.5), 1.0, 1.0)
        assert iterates[0] == pytest.approx(0.5)    # delta*snr/(1+snr)

    def test_zero_mmse_stub_converges_in_one_step(self, monkeypatch):
        monkeypatch.setattr(channel, "mmse_eval", lambda prior, s: (0.0, "quadrature"))
        s_limit, iterates = state_evolution(two_point(0.5), 0.8, 4.0)
        assert s_limit == pytest.approx(0.8 * 4.0, rel=1e-12)
        assert len(iterates) == 3   # start, jump to the fixed point, confirm

    def test_monotone_iterates(self):
        for delta, snr, eps in ((1.0, 1.0, 0.5), (0.3, 5.0, 0.1)):
            _, iterates = state_evolution(two_point(eps), delta, snr)
            assert np.all(np.diff(iterates) >= -1e-12)

    def test_limit_matches_smallest_stationary_on_random_configs(self):
        rng = np.random.default_rng(777)
        for _ in range(25):
            eps = 10 ** rng.uniform(-2, math.log10(0.5))
            snr = 10 ** rng.uniform(math.log10(0.3), math.log10(20.0))
            r = 10 ** rng.uniform(math.log10(0.4), math.log10(2.5))
            prior = two_point(eps)
            delta = r * delta_mmse(entropy(prior), snr)
            s_limit, _ = state_evolution(prior, delta, snr, t_max=4000, tol=1e-12)
            s_station = smallest_stationary(delta, snr, prior)
            assert abs(s_limit - s_station) <= 1e-6 * s_station

    def test_nonconvergence_error_carries_last_iterate(self):
        with pytest.raises(ConvergenceError) as err:
            state_evolution(two_point(0.1), 0.5, 5.0, t_max=2, tol=1e-14)
        assert err.value.last_iterate is not None

    def test_se_sequence_no_stopping(self):
        seq = se_sequence(two_point(0.1), 0.5, 5.0, 10)
        assert len(seq) == 11
        assert np.all(np.diff(seq) >= -1e-12)

    def test_se_sequence_rejects_negative_t_max(self):
        with pytest.raises(ValueError, match="-3"):
            se_sequence(two_point(0.1), 0.5, 5.0, -3)


@pytest.fixture(scope="module")
def tracked_run():
    prior = two_point(0.1)
    snr = 10.0
    delta = 1.2 * delta_amp(entropy(prior), snr)
    p = 2000
    n = round(delta * p)
    traces = []
    for seed in range(20):
        inst = generate(prior, n, p, p / snr, seed=seed)
        traces.append(run_amp(inst, prior, t_max=50))
    return prior, n / p, snr, traces


class TestRunAmp:
    def test_initial_mse_is_signal_power(self, tracked_run):
        _, _, _, traces = tracked_run
        for tr in traces[:5]:
            assert tr.mse[0] == pytest.approx(1.0, abs=0.15)

    def test_se_tracking(self, tracked_run):
        # The seed-averaged empirical MSE follows the recursion prediction
        # within 0.03 absolute for the first 15 iterations.
        _, _, _, traces = tracked_run
        t_len = min(min(tr.iterations for tr in traces), 15)
        mean_mse = np.mean([tr.mse[:t_len + 1] for tr in traces], axis=0)
        predicted = traces[0].se_mse[:t_len + 1]
        assert float(np.max(np.abs(mean_mse - predicted))) <= 0.03

    def test_se_reference_is_mmse_at_se_iterates(self, tracked_run):
        prior, _, _, traces = tracked_run
        tr = traces[0]
        expected = [mmse_eval(prior, s)[0] for s in tr.se_snr[:-1]]
        assert tr.se_mse[0] == 1.0
        assert list(tr.se_mse[1:]) == expected

    def test_residual_power_consistency(self, tracked_run):
        # Seed-averaged tau_hat^2 tracks (1/delta) * (1/snr + MSE_t) within
        # 10 percent; single seeds fluctuate above that at the steepest
        # transient iteration for p = 2000.
        _, delta, snr, traces = tracked_run
        t_len = min(min(tr.iterations for tr in traces), 15)
        mean_tau2 = np.mean([tr.residual_var[:t_len] for tr in traces], axis=0)
        mean_mse = np.mean([tr.mse[:t_len] for tr in traces], axis=0)
        predicted = (1.0 / delta) * (1.0 / snr + mean_mse)
        np.testing.assert_allclose(mean_tau2, predicted, rtol=0.10)

    def test_onsager_term_is_load_bearing(self, tracked_run):
        # Removing the memory correction degrades SE tracking on every seed
        # batch; divergence counts as degradation.
        prior, delta, snr, traces = tracked_run
        p = 2000
        n = round(delta * p)
        tracked_dev = 0.0
        plain_dev = 0.0
        for seed in range(6):
            inst = generate(prior, n, p, p / snr, seed=seed)
            tr = traces[seed]
            t_len = min(tr.iterations, 15)
            tracked_dev += float(np.sum(np.abs(tr.mse[:t_len + 1]
                                               - tr.se_mse[:t_len + 1])))
            try:
                bare = run_amp(inst, prior, t_max=t_len, onsager=False)
                plain_dev += float(np.sum(np.abs(bare.mse[:t_len + 1]
                                                 - bare.se_mse[:t_len + 1])))
            except DivergenceError:
                plain_dev += float("inf")
        assert plain_dev > tracked_dev

    def test_trace_lengths_consistent(self, tracked_run):
        _, _, _, traces = tracked_run
        for tr in traces:
            n_records = tr.iterations + 1
            assert len(tr.mse) == n_records
            assert len(tr.residual_var) == n_records
            assert len(tr.se_snr) == n_records
            assert len(tr.se_mse) == n_records
            assert np.all(np.diff(tr.se_snr) >= -1e-12)

    def test_prior_mismatch_flag(self):
        inst = generate(two_point(0.1), 400, 400, 50.0, seed=4)
        assert run_amp(inst, two_point(0.2), t_max=20).prior_mismatch
        assert not run_amp(inst, two_point(0.1), t_max=20).prior_mismatch
        ternary = DiscretePrior((-math.sqrt(2.0), 0.0, math.sqrt(2.0)), (0.25, 0.5, 0.25))
        assert run_amp(inst, ternary, t_max=5).prior_mismatch

    def test_noiseless_instance_has_nan_se_columns(self):
        # snr is infinite, so there is no state-evolution reference to align.
        trace = run_amp(generate(two_point(0.1), 100, 200, 0.0, seed=5), two_point(0.1),
                        t_max=5)
        for column in (trace.se_snr, trace.se_mse):
            assert column.shape == (trace.iterations + 1,)
            assert np.all(np.isnan(column))

    def test_divergence_guard(self, monkeypatch):
        # An estimator that amplifies its input must trip the divergence error.
        from rsphase import channel as ch

        inst = generate(two_point(0.5), 100, 200, 40.0, seed=8)
        monkeypatch.setattr(
            ch, "denoise",
            lambda prior, r, tau2: (10.0 * np.asarray(r), np.ones(np.shape(r))))
        with pytest.raises(DivergenceError):
            run_amp(inst, two_point(0.5), t_max=30)

    def test_t_max_validation(self):
        inst = generate(two_point(0.5), 20, 30, 1.0, seed=0)
        with pytest.raises(ValueError):
            run_amp(inst, two_point(0.5), t_max=0)


class TestSeReference:
    def test_cached_reference_is_the_uncached_se_prefix(self):
        # The first run fills the cache, the others slice it; every trace must
        # equal a fresh SE run of its own length, even after an earlier trace
        # was overwritten.
        prior = two_point(0.1)
        amp._se_reference.cache_clear()
        lengths = set()
        for seed in range(4):
            inst = generate(prior, 172, 200, 20.0, seed=seed)
            tr = run_amp(inst, prior, t_max=30)
            s, m = amp._se_run(prior, inst.delta, inst.snr, tr.iterations)
            assert np.array_equal(tr.se_snr, s)
            assert np.array_equal(tr.se_mse, np.concatenate([[1.0], m]))
            lengths.add(tr.iterations)
            tr.se_snr[:] = tr.se_mse[:] = np.nan
        info = amp._se_reference.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert len(lengths) > 1


def _traced_peak(fn):
    """``fn()`` and the peak bytes traced while it ran; tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_run_amp_makes_no_copy_of_the_design(self):
        prior = two_point(0.1)
        inst = generate(prior, 500, 1000, 100.0, seed=0)
        _, peak = _traced_peak(lambda: run_amp(inst, prior, t_max=30))
        assert peak < inst.x.nbytes

    def test_cli_holds_one_design_at_a_time(self, tmp_path):
        argv = ["amp", "--p", "1000", "--delta", "0.5", "--snr", "10", "--epsilon", "0.1",
                "--seeds", "3", "--t-max", "30", "--out", str(tmp_path)]
        rc, peak = _traced_peak(lambda: cli.main(argv))
        assert rc == 0
        assert peak < 1.5 * 500 * 1000 * 8


class TestMcMmse:
    def test_zero_snr(self):
        est, se = mc_mmse(two_point(0.5), 0.0, 10**5, seed=1)
        assert abs(est - 1.0) <= 3 * se

    def test_against_quadrature(self):
        prior = two_point(0.1)
        s = 2 * 0.1 * math.log(10.0) * 3.0
        est, se = mc_mmse(prior, s, 10**6, seed=2)
        assert abs(est - mmse(prior, s)) <= 3 * se

    def test_standard_error_scaling(self):
        prior = two_point(0.1)
        _, se_small = mc_mmse(prior, 1.0, 10**5, seed=3)
        _, se_big = mc_mmse(prior, 1.0, 2 * 10**5, seed=3)
        ratio = se_small / se_big
        assert abs(ratio - math.sqrt(2.0)) <= 0.2 * math.sqrt(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_mmse(two_point(0.1), 1.0, 0, seed=0)
        with pytest.raises(ValueError):
            mc_mmse(two_point(0.1), -1.0, 10, seed=0)
