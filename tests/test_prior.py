"""Prior construction, standardization, entropy, and sampling."""

import math

import numpy as np
import pytest

from rsphase.prior import (
    DiscretePrior,
    entropy,
    prior_from_spec,
    prior_to_spec,
    sample,
    standardize_bernoulli,
    two_point,
    two_point_entropy,
    two_point_epsilon,
)

THREE_ATOM = DiscretePrior(
    atoms=(-math.sqrt(1.5), 0.0, math.sqrt(1.5)),
    weights=(1 / 3, 1 / 3, 1 / 3),
    label="uniform3",
)


class TestTwoPoint:
    def test_symmetric_case_is_rademacher(self):
        prior = two_point(0.5)
        np.testing.assert_allclose(prior.atoms, (-1.0, 1.0))
        np.testing.assert_allclose(prior.weights, (0.5, 0.5))

    def test_epsilon_tenth(self):
        prior = two_point(0.1)
        np.testing.assert_allclose(prior.atoms, (-1.0 / 3.0, 3.0), rtol=1e-15)
        np.testing.assert_allclose(prior.weights, (0.9, 0.1), rtol=1e-15)
        w, a = prior.weight_array, prior.atom_array
        assert abs(float(w @ a)) < 1e-15
        assert abs(float(w @ (a * a)) - 1.0) < 1e-15

    def test_extreme_sparsity_moments(self):
        prior = two_point(1e-8)
        w, a = prior.weight_array, prior.atom_array
        assert abs(float(w @ a)) <= 1e-10
        assert abs(float(w @ (a * a)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("eps", [1e-16, 1e-12, 1e-6, 0.01, 0.3, 0.99])
    def test_invariants_across_epsilon(self, eps):
        prior = two_point(eps)
        w = prior.weight_array
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(prior.atom_array) > 0)
        assert np.all(np.isfinite(prior.atom_array))

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError):
            two_point(eps)

    def test_numpy_scalar_epsilon_is_accepted_as_its_double(self):
        eps = np.float32(0.1)
        prior = two_point(eps)
        assert prior == two_point(float(eps))
        assert all(type(v) is float for v in prior.atoms + prior.weights)

    def test_one_instance_per_epsilon(self):
        assert two_point(0.1) is two_point(np.float64(0.1))

    @pytest.mark.parametrize("eps", [0.0, float("nan"), 1e-320])
    def test_invalid_epsilon_raises_on_every_call(self, eps):
        for _ in range(2):
            with pytest.raises(ValueError, match="epsilon"):
                two_point(eps)

    def test_spike_atom_overflow_names_epsilon(self):
        # Below about 5.6e-309, (1 - eps)/eps overflows to inf.
        assert math.isfinite(two_point(6e-309).atoms[1])
        for eps in (5e-309, 1e-320):
            with pytest.raises(ValueError, match=r"^epsilon must be at least about 5\.6e-309"):
                two_point(eps)


class TestDiscretePriorValidation:
    def test_rejects_nonstandardized(self):
        with pytest.raises(ValueError):
            DiscretePrior(atoms=(-1.0, 2.0), weights=(0.5, 0.5))

    def test_rejects_unsorted_atoms(self):
        with pytest.raises(ValueError):
            DiscretePrior(atoms=(1.0, -1.0), weights=(0.5, 0.5))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            DiscretePrior(atoms=(-1.0, 1.0), weights=(0.7, 0.5))
        with pytest.raises(ValueError):
            DiscretePrior(atoms=(-1.0, 1.0), weights=(1.0, 0.0))

    def test_three_atom_prior_accepted(self):
        assert THREE_ATOM.natoms == 3


class TestEntropy:
    def test_rademacher_is_ln2(self):
        assert entropy(two_point(0.5)) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_epsilon_tenth_value(self):
        # binary entropy at 0.1: 0.1*ln(10) + 0.9*ln(10/9)
        assert entropy(two_point(0.1)) == pytest.approx(0.3250829733914482, abs=1e-12)

    def test_uniform_three_atoms_is_ln3(self):
        assert entropy(THREE_ATOM) == pytest.approx(math.log(3.0), abs=1e-14)

    @pytest.mark.parametrize("eps", [0.5, 0.1, 1e-4, 1e-8])
    def test_matches_binary_formula(self, eps):
        assert entropy(two_point(eps)) == pytest.approx(two_point_entropy(eps), abs=1e-12)

    def test_computed_once_per_prior(self):
        # The node kernels read it on every call: the prior keeps the one float.
        assert entropy(THREE_ATOM) is entropy(THREE_ATOM)

    def test_sparse_entropy_ratio_approaches_one(self):
        # H_eps / (eps ln(1/eps)) decreases to 1 and stays below 1 + 2/ln(1/eps).
        ratios = []
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            ratio = two_point_entropy(eps) / (eps * math.log(1.0 / eps))
            assert 1.0 < ratio < 1.0 + 2.0 / math.log(1.0 / eps)
            ratios.append(ratio)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestStandardizeBernoulli:
    def test_half_snr_one(self):
        prior, snr = standardize_bernoulli(0.5, 4, 1.0)
        assert snr == pytest.approx(1.0, rel=1e-15)
        assert prior == two_point(0.5)

    def test_sparse_case(self):
        _, snr = standardize_bernoulli(0.1, 1000, 9.0)
        assert snr == pytest.approx(10.0, rel=1e-12)

    def test_snr_vanishes_with_epsilon(self):
        snrs = [standardize_bernoulli(e, 100, 2.0)[1] for e in (1e-2, 1e-4, 1e-6)]
        assert all(a > b for a, b in zip(snrs, snrs[1:]))
        assert snrs[-1] < 1e-3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            standardize_bernoulli(0.0, 10, 1.0)
        with pytest.raises(ValueError):
            standardize_bernoulli(0.1, 0, 1.0)
        with pytest.raises(ValueError):
            standardize_bernoulli(0.1, 10, 0.0)

    @pytest.mark.parametrize("p, sigma2, name", [
        (10, math.nan, "sigma2"), (10, math.inf, "sigma2"),
        (math.inf, 1.0, "p"), (math.nan, 1.0, "p"),
    ])
    def test_non_finite_rejected_by_name(self, p, sigma2, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            standardize_bernoulli(0.1, p, sigma2)

    @pytest.mark.parametrize("p, sigma2, name", [(10**400, 1.0, "p"), (10, 10**400, "sigma2")])
    def test_integer_past_the_doubles_rejected_by_name(self, p, sigma2, name):
        with pytest.raises(ValueError, match=rf"\b{name} is too large for a double"):
            standardize_bernoulli(0.1, p, sigma2)

    def test_overflowing_snr_names_sigma2(self):
        with pytest.raises(ValueError, match=r"sigma2 = 1e-320 is too small"):
            standardize_bernoulli(0.1, 10, 1e-320)


class TestSample:
    def test_empty(self):
        assert sample(two_point(0.3), 0, seed=1).shape == (0,)

    def test_clt_bound(self):
        draws = sample(two_point(0.5), 10**6, seed=2024)
        assert abs(float(np.mean(draws))) <= 4.0 / math.sqrt(10**6)

    def test_deterministic(self):
        a = sample(two_point(0.1), 5000, seed=9)
        b = sample(two_point(0.1), 5000, seed=9)
        assert np.array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample(two_point(0.1), -1, seed=0)


class TestSpecRoundTrip:
    def test_two_point_spec(self):
        spec = {"kind": "two_point", "epsilon": 0.05}
        prior = prior_from_spec(spec)
        assert two_point_epsilon(prior) == pytest.approx(0.05)
        assert prior_to_spec(prior) == {"kind": "two_point", "epsilon": 0.05}

    def test_spike_weight_above_one_half_round_trips(self):
        # The spike is the larger atom's weight, even where it is the larger weight.
        prior = two_point(0.7)
        assert two_point_epsilon(prior) == 0.7
        assert prior_from_spec(prior_to_spec(prior)) == prior

    def test_discrete_spec(self):
        spec = prior_to_spec(THREE_ATOM)
        assert spec["kind"] == "discrete"
        assert prior_from_spec(spec) == THREE_ATOM

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            prior_from_spec({"kind": "gaussian"})
        with pytest.raises(ValueError):
            prior_from_spec({"kind": "two_point"})
        with pytest.raises(ValueError):
            prior_from_spec({})

    def test_epsilon_detection_is_none_for_three_atoms(self):
        assert two_point_epsilon(THREE_ATOM) is None
