"""Synthetic regression instances, MMSE-AMP, and its state-evolution tracker.

The estimator iterates a matched-filter step, the entrywise posterior-mean
denoiser of the coefficient prior, and a residual update with the Onsager
memory term that keeps the effective noise Gaussian.  State evolution is the
deterministic recursion for the effective SNR; its fixed point coincides with
the smallest stationary point of the potential, which is what the comparison
tests exploit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channel, potential
from .prior import DiscretePrior, _check_epsilon

SE_T_MAX = 500
SE_TOL = 1e-10
AMP_T_MAX = 200
AMP_REL_CHANGE = 1e-6
AMP_PATIENCE = 3
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 3


class ConvergenceError(RuntimeError):
    """Fixed-point iteration hit its iteration cap before the tolerance."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class DivergenceError(RuntimeError):
    """The estimate MSE blew up, typically from a badly mismatched prior."""


@dataclass
class RegressionInstance:
    """One synthetic draw of y = X beta + w with standard normal design."""

    x: np.ndarray
    beta: np.ndarray
    noise: np.ndarray
    y: np.ndarray
    sigma2: float
    seed: int
    prior: DiscretePrior

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def delta(self) -> float:
        return self.n / self.p

    @property
    def snr(self) -> float:
        return math.inf if self.sigma2 == 0.0 else self.p / self.sigma2


def generate(prior: DiscretePrior, n: int, p: int, sigma2: float,
             seed: int) -> RegressionInstance:
    """Draw an instance with X_ij ~ N(0,1), beta_j ~ prior, w_i ~ N(0, sigma2)."""
    if n < 1 or p < 1:
        raise ValueError(f"n and p must be >= 1, got n={n!r}, p={p!r}")
    if not 0.0 <= sigma2 < math.inf:
        raise ValueError(f"noise variance sigma2 must be finite and nonnegative, got {sigma2!r}")
    rng = np.random.default_rng(seed)
    try:
        x = rng.standard_normal((n, p))
    except MemoryError as exc:
        raise MemoryError(f"cannot allocate a {n}x{p} design matrix") from exc
    beta = rng.choice(prior.atom_array, size=p, p=prior.weight_array)
    noise = math.sqrt(sigma2) * rng.standard_normal(n) if sigma2 > 0.0 else np.zeros(n)
    y = x @ beta + noise
    return RegressionInstance(x=x, beta=beta, noise=noise, y=y,
                              sigma2=float(sigma2), seed=seed, prior=prior)


def _se_run(prior, delta, snr, t_max, tol=None):
    """State evolution from the cold start, and the M(s_t) values it used.

    Returns ``(s, m)``: ``s[t+1] = delta / (1/snr + m[t])`` with
    ``m[t] = M(s[t])``.  Runs ``t_max`` steps, or stops after the first step
    within ``tol`` relative of its start (``tol=None`` never stops early).
    """
    potential._check_params(delta, snr)
    s = [delta * snr / (1.0 + snr)]
    m = []
    for _ in range(t_max):
        m.append(channel.mmse_eval(prior, s[-1])[0])
        s.append(delta / (1.0 / snr + m[-1]))
        if tol is not None and abs(s[-1] - s[-2]) <= tol * s[-2]:
            break
    return np.asarray(s, dtype=float), np.asarray(m, dtype=float)


def se_sequence(prior: DiscretePrior, delta: float, snr: float, t_max: int) -> np.ndarray:
    """Effective-SNR iterates s_0..s_{t_max} of state evolution (no stopping).

    Cold start s_0 = delta*snr/(1+snr), i.e. initial MSE equal to the unit
    prior variance; then s_{t+1} = delta / (1/snr + M(s_t)).
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max!r}")
    return _se_run(prior, delta, snr, t_max)[0]


@functools.lru_cache(maxsize=32)
def _se_reference(prior, delta, snr, t_max):
    """``t_max`` SE steps as ``(se_snr, se_mse)``; shorter runs are prefixes (callers copy)."""
    s, m = _se_run(prior, delta, snr, t_max)
    return s, np.concatenate([[1.0], m])


def state_evolution(prior: DiscretePrior, delta: float, snr: float,
                    t_max: int = SE_T_MAX, tol: float = SE_TOL):
    """Iterate state evolution to its fixed point.

    Returns ``(s_limit, iterates)`` where ``iterates[0]`` is the cold start.
    Raises :class:`ConvergenceError` (carrying the last iterate) if the
    relative step stays above ``tol`` for ``t_max`` iterations.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    iterates, _ = _se_run(prior, delta, snr, t_max, tol)
    last = float(iterates[-1])
    if abs(last - iterates[-2]) <= tol * iterates[-2]:
        return last, iterates
    raise ConvergenceError(
        f"state evolution did not converge within {t_max} iterations "
        f"(last iterate {last!r})", last_iterate=last)


@dataclass
class AmpTrace:
    """Per-iteration record of one AMP run.

    ``mse[t]`` is the empirical estimate MSE at iteration t (t = 0 is the zero
    initialization), ``residual_var[t]`` the residual power used as the
    denoiser noise level, and ``se_snr``/``se_mse`` the state-evolution
    effective SNR and predicted MSE aligned to the same index.
    """

    mse: np.ndarray
    residual_var: np.ndarray
    se_snr: np.ndarray
    se_mse: np.ndarray
    iterations: int
    converged: bool
    prior_mismatch: bool
    onsager: bool
    seed: int

    def __post_init__(self):
        lengths = {len(self.mse), len(self.residual_var), len(self.se_snr),
                   len(self.se_mse)}
        if lengths != {self.iterations + 1}:
            raise ValueError("trace arrays must all have length iterations + 1")


def _priors_match(a: DiscretePrior, b: DiscretePrior) -> bool:
    if a.natoms != b.natoms:
        return False
    return (np.allclose(a.atom_array, b.atom_array, rtol=1e-12, atol=0.0)
            and np.allclose(a.weight_array, b.weight_array, rtol=1e-12, atol=0.0))


def run_amp(instance: RegressionInstance, prior: DiscretePrior,
            t_max: int = AMP_T_MAX, *, onsager: bool = True) -> AmpTrace:
    """Run MMSE-AMP on an instance and record empirical and predicted MSE.

    The iteration is that of the design scaled by 1/sqrt(n), so column norms
    are O(1); the (delta, snr) parameterization is invariant under this.  The
    scale is folded into the vectors, so no copy of ``instance.x`` is made.
    The effective noise level is estimated from the residual power each
    iteration so the algorithm remains a genuine estimator.  State evolution,
    computed once per (prior, delta, snr, t_max) and shared across runs, is
    purely the reference prediction.  The iteration is deterministic given
    the instance, whose seed is echoed into the trace.

    Estimation with a prior different from the one that generated the instance
    is allowed and flagged in the trace.  Raises :class:`DivergenceError` when
    the MSE exceeds 10x its initial value for 3 consecutive iterations.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max!r}")
    n, p = instance.x.shape
    delta = instance.delta
    x, y, beta = instance.x, instance.y, instance.beta

    x_hat = np.zeros(p)
    z = y                    # sqrt(n) scale; zero estimate, so no memory term yet
    mse = [float(np.mean((beta - x_hat) ** 2))]
    residual_var = [float(np.mean(z ** 2)) / n]

    converged = False
    stall = 0
    blowup = 0
    t_done = 0
    for t in range(t_max):
        tau2 = residual_var[-1]
        r_vec = x_hat + (x.T @ z) / n
        x_new, v_new = channel.denoise(prior, r_vec, tau2)
        if onsager:
            # Mean denoiser derivative: d/dr posterior mean = posterior var / tau2.
            correction = (1.0 / delta) * float(np.mean(v_new)) / tau2
            z = y - x @ x_new + correction * z
        else:
            z = y - x @ x_new
        x_hat = x_new
        t_done = t + 1
        mse.append(float(np.mean((beta - x_hat) ** 2)))
        residual_var.append(float(np.mean(z ** 2)) / n)

        if mse[-1] > DIVERGENCE_FACTOR * mse[0]:
            blowup += 1
            if blowup >= DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"estimate MSE {mse[-1]:.3g} exceeded {DIVERGENCE_FACTOR}x its "
                    f"initial value for {DIVERGENCE_PATIENCE} consecutive iterations")
        else:
            blowup = 0

        if abs(mse[-1] - mse[-2]) < AMP_REL_CHANGE * max(mse[-2], 1e-300):
            stall += 1
            if stall >= AMP_PATIENCE:
                converged = True
                break
        else:
            stall = 0

    snr = instance.snr
    if math.isfinite(snr):
        se_snr, se_mse = (a[:t_done + 1].copy()
                          for a in _se_reference(prior, delta, snr, t_max))
    else:
        se_snr = np.full(t_done + 1, np.nan)
        se_mse = np.full(t_done + 1, np.nan)

    return AmpTrace(
        mse=np.asarray(mse),
        residual_var=np.asarray(residual_var),
        se_snr=se_snr,
        se_mse=se_mse,
        iterations=t_done,
        converged=converged,
        prior_mismatch=not _priors_match(prior, instance.prior),
        onsager=onsager,
        seed=instance.seed,
    )


def mc_mmse(prior: DiscretePrior, s: float, samples: int, seed: int):
    """Monte Carlo estimate of M(s) by simulating the posterior-mean error.

    Returns ``(estimate, standard_error)``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    channel._snr_grid(s)
    rng = np.random.default_rng(seed)
    beta0 = rng.choice(prior.atom_array, size=samples, p=prior.weight_array)
    noise = rng.standard_normal(samples)
    if s == 0.0:
        err = beta0 ** 2        # posterior mean is the prior mean, which is 0
    else:
        y = math.sqrt(s) * beta0 + noise
        mean, _ = channel.denoise(prior, y / math.sqrt(s), 1.0 / s)
        err = (beta0 - mean) ** 2
    estimate = float(np.mean(err))
    stderr = float(np.std(err, ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return estimate, stderr


def mc_mmse_two_point(epsilon: float, s: float, samples: int, seed: int):
    """Monte Carlo of the closed-form two-point MMSE expectation.

    Averages 1 / (1 - eps + eps * exp(s/(2 eps (1-eps)) + sqrt(s/(eps(1-eps))) N))
    over standard normal draws.  Returns ``(estimate, standard_error)``.
    """
    _check_epsilon(epsilon)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    channel._snr_grid(s)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(samples)
    scale = epsilon * (1.0 - epsilon)
    exponent = math.log(epsilon) + s / (2.0 * scale) + math.sqrt(s / scale) * noise
    with np.errstate(over="ignore"):
        vals = 1.0 / ((1.0 - epsilon) + np.exp(exponent))
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return estimate, stderr
