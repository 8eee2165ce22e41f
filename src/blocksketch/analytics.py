"""Thresholds and tail bounds for the sampled two-community model.

All closed forms are evaluated at the epsilon -> 0+ limit of the underlying
Chernoff argument; no epsilon parameter appears at runtime. The exact
binomial-difference tail is an independent dense-convolution oracle kept
deliberately separate from the closed-form bound.

The module needs only numpy and the standard library; log-factorials come
from `math.lgamma`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ParameterError, as_int

# below / above: which side of the exact-recovery threshold (alpha, beta) fall on
BELOW = "below"
ABOVE = "above"
BOUNDARY = "boundary"

_CONVOLUTION_CAP = 100_000
# t = 0 (the trivial bound 1) must be a candidate: when K1 p = K2 q the
# optimum sits exactly there and every positive t gives a bound above 1.
# Its exponent is 0 for every BoundParams, so some grid point is always valid.
_T_GRID = 0.01 * np.arange(0, 2001)
_BOUNDARY_TOL = 1e-12     # |sqrt(alpha) - sqrt(beta) - sqrt(2)| <= this is BOUNDARY


@dataclass(frozen=True)
class BoundParams:
    """Sizes and rates for the two-binomial comparison X ~ Bin(K1, p) vs Y ~ Bin(K2, q)."""

    K1: int
    K2: int
    p: float
    q: float

    def __post_init__(self):
        if as_int(self.K1, "K1") < 0 or as_int(self.K2, "K2") < 0:
            raise ParameterError("K1 and K2 must be nonnegative integers")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ParameterError("p and q must lie in [0, 1]")
        for name in ("p", "q"):  # Python floats: a numpy float32 would round every bound
            object.__setattr__(self, name, float(getattr(self, name)))


def gamma_star(alpha: float, beta: float) -> float:
    """Conjectured sampling threshold 2 / (sqrt(alpha) - sqrt(beta))^2."""
    if not (math.inf > alpha > beta >= 0.0):
        raise ParameterError(f"need finite alpha > beta >= 0, got alpha={alpha}, beta={beta}")
    return 2.0 / (math.sqrt(alpha) - math.sqrt(beta)) ** 2


def exact_recovery_possible(alpha: float, beta: float) -> str:
    """Classify sqrt(alpha) - sqrt(beta) against sqrt(2): BELOW / ABOVE / BOUNDARY."""
    if not (math.inf > alpha >= beta >= 0.0):
        raise ParameterError(f"need finite alpha >= beta >= 0, got alpha={alpha}, beta={beta}")
    d = (math.sqrt(alpha) - math.sqrt(beta)) - math.sqrt(2.0)
    if abs(d) <= _BOUNDARY_TOL:
        return BOUNDARY
    return ABOVE if d > 0 else BELOW


def lambda_star(p: float, q: float) -> float:
    """Optimal multiplier (p - q) / (log p - log q); invariant to the (alpha, beta, n) form."""
    if not (0.0 < q < p <= 1.0):
        raise ParameterError(f"need 0 < q < p <= 1, got p={p}, q={q}")
    p, q = float(p), float(q)
    # log(p/q) written as log1p keeps the p -> q+ limit (-> q) well conditioned
    return (p - q) / math.log1p((p - q) / q)


def lemma2_exponent(alpha: float, beta: float, gamma: float) -> float:
    """Rate exponent (alpha + beta) * gamma / 2 - gamma * sqrt(alpha * beta),
    computed as gamma (sqrt(alpha) - sqrt(beta))^2 / 2, which cannot overflow
    in alpha * beta and loses less to cancellation when alpha is near beta."""
    if not (math.inf > alpha > beta >= 0.0):
        raise ParameterError(f"need finite alpha > beta >= 0, got alpha={alpha}, beta={beta}")
    if not 0.0 <= gamma < math.inf:
        raise ParameterError(f"gamma must be finite and nonnegative, got {gamma}")
    return gamma * (math.sqrt(alpha) - math.sqrt(beta)) ** 2 / 2.0


def lemma2_bound(bp: BoundParams) -> float:
    """Closed-form tail bound exp(-(K1 p + K2 q - 2 sqrt(K1 K2 p q)))."""
    k1p = bp.K1 * bp.p
    k2q = bp.K2 * bp.q
    if k1p < k2q:
        raise DomainError(f"bound needs K1*p >= K2*q, got {k1p} < {k2q}")
    return math.exp(-(k1p + k2q - 2.0 * math.sqrt(k1p * k2q)))


def _xlogy(x, y):
    """x * log(y) elementwise, with 0 * log(0) = 0: a zero count against a
    rate of 0 or 1 (k = 0 or k = K at p in {0, 1}, or K1 = 0) adds nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def _binom_pmf(k_max: int, p: float, log_fact: np.ndarray) -> np.ndarray:
    """pmf of Bin(k_max, p) on 0..k_max, anchored in log space;
    `log_fact[i]` is log(i!) for i = 0..k_max at least."""
    k = np.arange(k_max + 1, dtype=np.float64)
    lf = log_fact[:k_max + 1]
    logpmf = log_fact[k_max] - lf - lf[::-1] + _xlogy(k, p) + _xlogy(k_max - k, 1.0 - p)
    return np.exp(logpmf)


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Neumaier running sums; plain cumsum error would grow with length."""
    out = []  # a list append costs less than a numpy item store
    total = 0.0
    comp = 0.0
    for v in x.tolist():
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out.append(total + comp)
    return np.array(out)


def binom_diff_tail_exact(bp: BoundParams) -> float:
    """P(X - Y <= 0) for X ~ Bin(K1, p), Y ~ Bin(K2, q), by dense convolution."""
    if bp.K1 + bp.K2 > _CONVOLUTION_CAP:
        raise CapacityError(f"K1 + K2 exceeds the dense convolution cap {_CONVOLUTION_CAP}")
    k = max(bp.K1, bp.K2)
    log_fact = np.fromiter(map(math.lgamma, range(1, k + 2)), dtype=np.float64, count=k + 1)
    pmf_x = _binom_pmf(bp.K1, bp.p, log_fact)
    pmf_y = _binom_pmf(bp.K2, bp.q, log_fact)
    cdf_x = np.minimum(_compensated_cumsum(pmf_x), 1.0)
    j = np.minimum(np.arange(bp.K2 + 1), bp.K1)
    total = math.fsum((pmf_y * cdf_x[j]).tolist())
    return min(max(total, 0.0), 1.0)


def chernoff_grid_min(bp: BoundParams) -> float:
    """Minimum over t in {0, 0.01, ..., 20} of the exact-MGF Chernoff bound
    on P(X - Y <= 0).

    Each valid t >= 0 gives the bound
    exp(K1 * log(1 - p(1 - e^-t)) + K2 * log(1 - q(1 - e^t)));
    grid points with a non-positive log argument or non-finite value are skipped.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x1 = bp.p * (-np.expm1(-_T_GRID))    # p (1 - e^-t) in [0, p]
        x2 = bp.q * np.expm1(_T_GRID)        # -q (1 - e^t) >= 0
        exponent = _xlogy(bp.K1, 1.0 - x1)
        if bp.K2:
            exponent = exponent + bp.K2 * np.log1p(x2)
    valid = (x1 < 1.0) & np.isfinite(exponent)
    return float(np.exp(np.min(exponent[valid])))
