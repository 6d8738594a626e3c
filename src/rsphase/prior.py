"""Discrete zero-mean, unit-variance coefficient priors.

The regression model is analyzed in standardized coordinates, so every prior
here must have mean 0 and second moment 1.  The shipped family is the
two-atom standardization of a Bernoulli(epsilon) coefficient; generic finite
supports are accepted so other families can be plugged in.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

WEIGHT_SUM_TOL = 1e-12
MOMENT_TOL = 1e-10


@dataclass(frozen=True)
class DiscretePrior:
    """Finite atom/weight distribution.

    Atoms are strictly increasing finite reals, weights strictly positive and
    summing to one.  Mean must vanish and the second moment must equal one,
    both within ``MOMENT_TOL``; the tolerances leave room for extreme spike
    probabilities constructed in double precision.
    """

    atoms: tuple
    weights: tuple
    label: str = ""

    def __post_init__(self):
        for name in ("atoms", "weights"):
            try:
                object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a list of numbers, "
                                 f"got {getattr(self, name)!r}") from None
        a = np.asarray(self.atoms, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if a.size == 0 or a.size != w.size:
            raise ValueError("atoms and weights must be non-empty and equally long")
        if not np.all(np.isfinite(a)):
            raise ValueError("atoms must all be finite")
        if a.size > 1 and not np.all(np.diff(a) > 0):
            raise ValueError("atoms must be strictly increasing")
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be strictly positive and finite")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}; must equal 1 within {WEIGHT_SUM_TOL}")
        mean = float(w @ a)
        second = float(w @ (a * a))
        if abs(mean) > MOMENT_TOL:
            raise ValueError(f"prior mean is {mean!r}; must be 0 within {MOMENT_TOL}")
        if abs(second - 1.0) > MOMENT_TOL:
            raise ValueError(f"prior second moment is {second!r}; must be 1 within {MOMENT_TOL}")

    @cached_property
    def atom_array(self) -> np.ndarray:
        return np.asarray(self.atoms, dtype=float)

    @cached_property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @cached_property
    def log_weight_array(self) -> np.ndarray:
        return np.log(self.weight_array)

    @cached_property
    def _entropy(self) -> float:
        return float(-np.sum(self.weight_array * self.log_weight_array))

    @property
    def natoms(self) -> int:
        return len(self.atoms)


def _check_epsilon(epsilon) -> float:
    """``epsilon`` as a Python float (a float32 would keep float32 arithmetic), if in (0, 1)."""
    if not (isinstance(epsilon, numbers.Real) and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be a finite number, got {epsilon!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return float(epsilon)


def _as_double(value, name: str) -> float:
    """``value`` as a Python float; a ValueError naming ``name`` if it overflows one,
    as an int past the largest double does."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a double") from None


def two_point(epsilon: float) -> DiscretePrior:
    """Standardized two-atom prior with spike probability ``epsilon``.

    Atoms are ``(-sqrt(eps/(1-eps)), sqrt((1-eps)/eps))`` with weights
    ``(1-eps, eps)``, which makes the mean 0 and the variance 1.  ``epsilon``
    is checked on every call, and each valid value, as a float, gets one
    instance per process (the latest 256 are kept), so its cached arrays are
    built once.
    """
    return _two_point(_check_epsilon(epsilon))


@lru_cache(maxsize=256)
def _two_point(epsilon: float) -> DiscretePrior:
    mu1 = -math.sqrt(epsilon / (1.0 - epsilon))
    mu2 = math.sqrt((1.0 - epsilon) / epsilon)
    if mu2 == math.inf:
        raise ValueError(f"epsilon must be at least about 5.6e-309, below which the spike atom "
                         f"sqrt((1-eps)/eps) overflows; got {epsilon!r}")
    return DiscretePrior((mu1, mu2), (1.0 - epsilon, epsilon), label=f"two_point({epsilon:g})")


def entropy(prior: DiscretePrior) -> float:
    """Shannon entropy of the atom weights, in nats, computed once per prior."""
    return prior._entropy


def two_point_entropy(epsilon: float) -> float:
    """Binary entropy -e*ln(e) - (1-e)*ln(1-e) in nats, stable for tiny epsilon."""
    epsilon = _check_epsilon(epsilon)
    return -epsilon * math.log(epsilon) - (1.0 - epsilon) * math.log1p(-epsilon)


def standardize_bernoulli(epsilon: float, p: int, sigma2: float):
    """Reduce a Bernoulli(epsilon) regression problem to standardized form.

    Centering and rescaling the 0/1 coefficients by sqrt(eps*(1-eps)) turns
    the prior into ``two_point(epsilon)`` and the total signal-to-noise ratio
    into ``p*eps*(1-eps)/sigma2``.  Returns ``(prior, snr)``.
    """
    epsilon = _check_epsilon(epsilon)
    if not 1 <= p < math.inf:
        raise ValueError(f"dimension p must be >= 1 and finite, got {p!r}")
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"noise variance sigma2 must be positive and finite, got {sigma2!r}")
    p, sigma2 = _as_double(p, "dimension p"), _as_double(sigma2, "noise variance sigma2")
    snr = p * epsilon * (1.0 - epsilon) / sigma2
    if snr == math.inf:
        raise ValueError(f"noise variance sigma2 = {sigma2!r} is too small: the snr overflows")
    return two_point(epsilon), snr


def sample(prior: DiscretePrior, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. values from the prior, deterministic in ``seed``."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count!r}")
    rng = np.random.default_rng(seed)
    return rng.choice(prior.atom_array, size=count, p=prior.weight_array)


def two_point_epsilon(prior: DiscretePrior):
    """Spike probability if the prior is a two-atom standardization, else None.

    Any valid two-atom prior here is the standardized Bernoulli family, so the
    spike probability is simply the weight of the larger atom.
    """
    if prior.natoms == 2:
        return prior.weights[1]
    return None


def prior_from_spec(spec: dict) -> DiscretePrior:
    """Build a prior from its config-file form.

    Accepted shapes: ``{"kind": "two_point", "epsilon": e}`` and
    ``{"kind": "discrete", "atoms": [...], "weights": [...], "label": ...}``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("prior spec must be a mapping with a 'kind' field")
    kind = spec["kind"]
    if kind == "two_point":
        if "epsilon" not in spec:
            raise ValueError("two_point prior spec requires an 'epsilon' field")
        return two_point(spec["epsilon"])
    if kind == "discrete":
        if "atoms" not in spec or "weights" not in spec:
            raise ValueError("discrete prior spec requires 'atoms' and 'weights' fields")
        return DiscretePrior(spec["atoms"], spec["weights"], label=str(spec.get("label", "")))
    raise ValueError(f"unknown prior kind {kind!r}")


def prior_to_spec(prior: DiscretePrior) -> dict:
    """Config-file form of a prior (inverse of :func:`prior_from_spec`)."""
    eps = two_point_epsilon(prior)
    if eps is not None and prior.label.startswith("two_point"):
        return {"kind": "two_point", "epsilon": eps}
    return {"kind": "discrete", "atoms": list(prior.atoms),
            "weights": list(prior.weights), "label": prior.label}
