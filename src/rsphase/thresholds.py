"""Phase-transition thresholds in the undersampling ratio.

Two critical values of delta = n/p govern recovery: the information threshold
2H/ln(1+snr) at which exact recovery becomes possible at all, and the larger
algorithmic threshold 2H(1+snr)/snr at which AMP starts to succeed.  Their
ratio (1+1/snr)ln(1+snr) exceeds one for every snr, which is the
computational-statistical gap this module quantifies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import channel, potential
from .prior import (DiscretePrior, _check_epsilon, entropy, standardize_bernoulli, two_point,
                    two_point_entropy)

KIND_MMSE = "mmse"
KIND_AMP = "amp"


def _check_h_snr(h, snr):
    if not 0.0 < h < math.inf:
        raise ValueError(f"entropy h must be positive and finite, got {h!r}")
    potential._check_snr(snr)


def delta_mmse(h: float, snr: float) -> float:
    """Information threshold 2h/ln(1+snr) for a prior of entropy h (nats)."""
    _check_h_snr(h, snr)
    return 2.0 * h / math.log1p(snr)


def delta_amp(h: float, snr: float) -> float:
    """Algorithmic threshold 2h(1+snr)/snr."""
    _check_h_snr(h, snr)
    return 2.0 * h * (1.0 + snr) / snr


# delta_amp / delta_mmse = (1 + 1/snr) ln(1+snr); strictly above 1.
r_amp = potential.amp_threshold_ratio


def l_constant(prior: DiscretePrior) -> float:
    """Information deficit H - I(2H); bounds how far I(s) sits below min(s/2, H)."""
    h = entropy(prior)
    i2h, _ = channel.mutual_info_eval(prior, 2.0 * h)
    return max(h - i2h, 0.0)


def sparse_thresholds(k: float, p: float, sigma2: float):
    """Small-epsilon simplifications of both thresholds for Bernoulli designs.

    ``k`` is the expected support size eps*p.  Returns the pair
    ``(2(k/p)ln(p/k)/ln(1+k/sigma2), 2(k+sigma2)ln(p/k)/p)``.
    """
    if not 0.0 < k < p < math.inf:
        raise ValueError(f"need 0 < k < p with p finite, got k={k!r}, p={p!r}")
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"noise variance sigma2 must be positive and finite, got {sigma2!r}")
    log_ratio = math.log(p / k)
    d_mmse = 2.0 * (k / p) * log_ratio / math.log1p(k / sigma2)
    d_amp = 2.0 * (k + sigma2) * log_ratio / p
    return d_mmse, d_amp


def transition_check(epsilon: float, snr: float, r: float, kind: str) -> float:
    """Channel MMSE at the relevant potential landmark for delta = r * threshold.

    ``kind`` selects which threshold scales delta: 'mmse' uses the information
    threshold and reports M at the global minimizer whose basin has the lower
    potential; 'amp' uses the algorithmic threshold and reports M at the
    smallest stationary point.  Values near 1 mean no recovery, near 0 mean
    essentially exact recovery.
    """
    _check_epsilon(epsilon)
    potential._check_snr(snr)
    if not r > 0.0 or r == 1.0:
        raise ValueError(f"r must lie in (0,1) or (1,inf), got {r!r}")
    if kind not in (KIND_MMSE, KIND_AMP):
        raise ValueError(f"kind must be 'mmse' or 'amp', got {kind!r}")
    # The algorithmic scaling is the same landscape with r multiplied by the
    # threshold ratio; both landmarks come back in t = s/2H units.
    if kind == KIND_AMP:
        t_hat = potential.normalized_smallest_stationary(epsilon, r * r_amp(snr), snr)
    else:
        t_hat = potential.normalized_argmin(epsilon, r, snr)
    value, _ = channel.mmse_eval(two_point(epsilon), 2.0 * two_point_entropy(epsilon) * t_hat)
    return value


@dataclass
class ThresholdReport:
    """Threshold summary for one configuration."""

    h: float
    snr: float
    delta_mmse: float
    delta_amp: float
    r_amp: float
    l_constant: float
    delta_mmse_sparse: float | None = None    # set only for a (p, sigma2) report
    delta_amp_sparse: float | None = None

    @property
    def sparse_simplifications(self) -> tuple | None:
        """The pair of :func:`sparse_thresholds`, or None without p and sigma2."""
        if self.delta_mmse_sparse is None:
            return None
        return self.delta_mmse_sparse, self.delta_amp_sparse

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def report(epsilon: float, snr: float | None = None, *, p: float | None = None,
           sigma2: float | None = None) -> ThresholdReport:
    """Build a :class:`ThresholdReport` for a two-point prior.

    Either pass ``snr`` directly, or pass ``p`` and ``sigma2`` and the snr of
    :func:`~rsphase.prior.standardize_bernoulli` is used; in the latter case
    the sparse simplifications are filled in as well.
    """
    _check_epsilon(epsilon)
    sparse = (None, None)
    if p is not None and sigma2 is not None:
        # Validates sigma2 > 0 and 0 < k < p before snr is derived from them.
        sparse = sparse_thresholds(epsilon * p, p, sigma2)
        if snr is None:
            _, snr = standardize_bernoulli(epsilon, p, sigma2)
    elif snr is None:
        raise ValueError("pass either snr or both p and sigma2")
    h = two_point_entropy(epsilon)
    return ThresholdReport(h, snr, delta_mmse(h, snr), delta_amp(h, snr), r_amp(snr),
                           l_constant(two_point(epsilon)), *sparse)
