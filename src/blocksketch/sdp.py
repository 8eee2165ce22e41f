"""Low-rank SDP solver for the relaxed maximum-likelihood programs.

The relaxation max Tr(A X) - lambda Tr(X J), X PSD with unit diagonal, is
solved through the factorization X = Y Y^T with unit-norm rows of Y, by
projected gradient ascent with a backtracking line search. The balanced
variant drives Tr(X J) = ||Y^T 1||^2 itself to zero by alternating
projection instead of penalizing it.

The lambda * J term is never materialized: its gradient contribution is the
rank-one correction lambda * 1 (1^T Y).

Restarts stop at the first one whose rounded labels carry a dual
certificate (Abbe-Bandeira-Hall, arXiv:1405.3267): with
D = diag(((A - mu J) x) * x), the matrix S = D - A + mu J satisfies S x = 0,
so S >= 0 proves x x^T optimal for the relaxation and x optimal for the
integral program.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapacityError, ParameterError
from .rng import RngSeed, STREAM_SDP, rng_for
from .sbm import Graph, require_nonempty

_ARMIJO = 1e-4
_MAX_HALVINGS = 30
_RANK_CAP = 32
_BRUTE_FORCE_CAP = 22
_START_SEED = 0x9E3779B9  # fixed start vectors: rounding and the dual check are pure functions
_DUAL_RTOL = 1e-9         # lambda_min(S) tolerance, relative to 1 + |rounded objective|
_LANCZOS_STEPS = 80       # Krylov dimension cap of the dual check


def default_rank(n: int) -> int:
    return min(_RANK_CAP, max(2, math.isqrt(max(2 * n - 1, 0)) + 1))


@dataclass(frozen=True)
class SdpConfig:
    rank: Optional[int] = None      # None -> default_rank(n)
    max_iters: int = 500
    step_tol: float = 1e-10         # stop on relative objective change below this
    grad_tol: float = 1e-8          # stationarity tolerance on the projected gradient
    restarts: int = 5               # upper bound: stops at the first dual-certified restart
    balanced_mode: bool = False
    lam: float = 0.0
    seed: RngSeed = 0

    def __post_init__(self):
        if self.rank is not None and self.rank < 2:
            raise ParameterError("rank must be at least 2")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be at least 1")
        if self.restarts < 1:
            raise ParameterError("restarts must be at least 1")
        if self.lam < 0:
            raise ParameterError("lambda must be nonnegative")
        if self.step_tol <= 0 or self.grad_tol <= 0:
            raise ParameterError("tolerances must be positive")


@dataclass(frozen=True)
class Certificate:
    tight: bool
    gap: float

    def __str__(self):
        return "tight" if self.tight else f"not-tight({self.gap:.6g})"


@dataclass(eq=False)
class SolveDiagnostics:
    converged: bool
    iterations_total: int
    restarts_used: int
    final_grad_norm: float
    power_iteration_converged: bool
    lambda_used: float
    rounded_balance: int
    restart_objectives: np.ndarray
    objective_trace: np.ndarray      # accepted objective per iteration, best restart
    row_norm_dev_trace: np.ndarray   # max |  ||Y_i|| - 1  | per iteration, best restart


@dataclass(eq=False)
class SdpSolution:
    factor: np.ndarray
    objective: float
    rounded: np.ndarray
    rounded_objective: float
    certificate: Certificate
    iterations: int                  # iterations of the best restart
    balance_residual: float          # ||Y^T 1||^2 of the returned factor
    diagnostics: SolveDiagnostics


def _row_normalize(y: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(y, axis=1, keepdims=True)
    return y / np.maximum(nrm, 1e-300)


def _project(y: np.ndarray, balanced: bool) -> np.ndarray:
    if balanced:
        y = y - y.mean(axis=0, keepdims=True)
    return _row_normalize(y)


def _value(adj, y: np.ndarray, lam: float):
    ay = adj @ y
    f = float(np.sum(y * ay))
    if lam:
        cs = y.sum(axis=0)
        f -= lam * float(cs @ cs)
    return f, ay


def _grad_from(y: np.ndarray, ay: np.ndarray, lam: float) -> np.ndarray:
    grad = 2.0 * ay
    if lam:
        grad = grad - (2.0 * lam) * y.sum(axis=0)[None, :]
    return grad


def objective_and_gradient(adj, y, lam: float = 0.0):
    """Value and pre-projection gradient of Tr(A Y Y^T) - lam ||Y^T 1||^2.

    The gradient is 2 A Y - 2 lam 1 (1^T Y). Rows of y need not be
    unit-norm, so the pair is directly checkable by finite differences.
    """
    y = np.asarray(y, dtype=np.float64)
    f, ay = _value(adj, y, lam)
    return f, _grad_from(y, ay, lam)


def _ascent(adj, n: int, r: int, lam: float, balanced: bool, cfg: SdpConfig, rng):
    # the balanced variant handles the constraint by projection, not penalty
    lam_eff = 0.0 if balanced else lam
    y = _project(rng.standard_normal((n, r)), balanced)
    f, ay = _value(adj, y, lam_eff)
    obj_trace = []
    dev_trace = []
    step = 1.0
    grad_norm = 0.0
    converged = False
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        grad = _grad_from(y, ay, lam_eff)
        if balanced:
            grad -= grad.mean(axis=0, keepdims=True)
        direction = grad - np.sum(grad * y, axis=1, keepdims=True) * y
        gsq = float(np.sum(direction * direction))
        grad_norm = math.sqrt(gsq)
        if grad_norm <= cfg.grad_tol * (1.0 + abs(f)):
            converged = True
            iters -= 1
            break
        t = step
        accepted = False
        halvings = 0
        while halvings < _MAX_HALVINGS:
            cand = _project(y + t * direction, balanced)
            fc, ayc = _value(adj, cand, lam_eff)
            if fc >= f + _ARMIJO * t * gsq:
                accepted = True
                break
            t *= 0.5
            halvings += 1
        if not accepted:
            converged = True
            iters -= 1
            break
        # a barely-passing step can overshoot a ridge; prefer the half step
        # while it strictly gains more, within the same halving budget
        while halvings < _MAX_HALVINGS:
            th = 0.5 * t
            ch = _project(y + th * direction, balanced)
            fh, ayh = _value(adj, ch, lam_eff)
            halvings += 1
            if fh > fc:
                t, cand, fc, ayc = th, ch, fh, ayh
            else:
                break
        gain = fc - f
        y, f, ay = cand, fc, ayc
        step = min(1.0, 2.0 * t)
        obj_trace.append(f)
        dev_trace.append(float(np.abs(np.linalg.norm(y, axis=1) - 1.0).max()))
        if gain <= cfg.step_tol * (1.0 + abs(f)):
            converged = True
            break
    return y, f, iters, grad_norm, converged, np.asarray(obj_trace), np.asarray(dev_trace)


def leading_eigenvector(factor: np.ndarray, tol: float = 1e-13, max_iters: int = 2000):
    """Leading eigenvector of Y Y^T by power iteration on the factored operator.

    Deterministic given the factor (fixed internal start vector). Returns
    (vector, converged, iterations); each step costs O(n r).
    """
    y = np.asarray(factor, dtype=np.float64)
    n = y.shape[0]
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for it in range(1, max_iters + 1):
        w = y @ (y.T @ v)
        nw = np.linalg.norm(w)
        if nw < 1e-30:
            return v, False, it  # operator annihilates the iterate
        w /= nw
        if 1.0 - abs(float(v @ w)) < tol:
            return w, True, it
        v = w
    return v, False, max_iters


def round_solution(factor: np.ndarray, balanced: bool = False) -> np.ndarray:
    """Integral labels from a factor: sign pattern of the leading eigenvector.

    sign(0) counts as +1. In balanced mode the eigenvector is split at its
    median instead (top n/2 entries get +1, stable index tie-break), which
    keeps the output feasible for the balanced program.
    """
    labels, _ = _round_with_info(np.asarray(factor, dtype=np.float64), balanced)
    return labels


def _round_with_info(factor: np.ndarray, balanced: bool):
    n = factor.shape[0]
    v, ok, _ = leading_eigenvector(factor)
    if balanced:
        if n % 2:
            raise ParameterError("balanced rounding needs an even number of nodes")
        order = np.argsort(-v, kind="stable")
        labels = np.full(n, -1, dtype=np.int8)
        labels[order[: n // 2]] = 1
    else:
        labels = np.where(v >= 0.0, 1, -1).astype(np.int8)
    return labels, ok


def labeling_objective(g: Graph, labels, lam: float = 0.0) -> float:
    """x^T A x - lambda (1^T x)^2 for an integral labeling x."""
    x = np.asarray(labels, dtype=np.float64)
    if x.shape != (g.n,) or not np.isin(x, (-1.0, 1.0)).all():
        raise ParameterError("labels must be complete +-1 of length n")
    quad = 2.0 * float(x[g.edges[:, 0]] @ x[g.edges[:, 1]]) if g.m else 0.0
    if lam:
        s = float(x.sum())
        quad -= lam * s * s
    return quad


def _certificate_from_values(objective: float, rounded_objective: float,
                             gap_tol: Optional[float] = None) -> Certificate:
    if gap_tol is None:
        gap_tol = 1e-6 * (1.0 + abs(objective))
    gap = objective - rounded_objective
    return Certificate(tight=bool(gap <= gap_tol), gap=float(gap))


def certificate_check(sol, gap_tol: Optional[float] = None) -> Certificate:
    """Gap test: tight iff sol.objective - sol.rounded_objective <= gap_tol.

    Default gap_tol is 1e-6 * (1 + |objective|). This is the cheap
    precondition of the solver's certificate, not a proof of optimality: a
    local ascent can stall at a value its rounding attains while the
    relaxation is higher. The solver's `certificate.tight` also requires a
    converged ascent and the dual check.
    """
    return _certificate_from_values(sol.objective, sol.rounded_objective, gap_tol)


def _dual_certified(adj, x: np.ndarray, mu: float, tol: float) -> bool:
    """True iff lambda_min(S) >= -tol for S = diag(((A - mu J) x) * x) - A + mu J.

    Lanczos with full reorthogonalization on S + x x^T / n, which moves the
    zero eigenvalue of x to 1, from a fixed start vector; J and S are never
    formed. The smallest Ritz value never undershoots lambda_min, so one
    below -tol rejects at once; acceptance needs its residual within tol.
    No convergence within _LANCZOS_STEPS means "not certified".
    """
    x = x.astype(np.float64)
    n = x.size
    d = (adj @ x - mu * x.sum()) * x

    def apply(v):
        return d * v - adj @ v + mu * v.sum() + x * ((x @ v) / n)

    steps = min(n, _LANCZOS_STEPS)
    basis = np.empty((steps, n))
    tri = np.zeros((steps + 1, steps + 1))
    v = np.random.default_rng(_START_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    for j in range(steps):
        basis[j] = v
        w = apply(v)
        q = basis[: j + 1]
        h = q @ w
        tri[j, j] = h[j]
        w -= q.T @ h
        w -= q.T @ (q @ w)  # a second pass keeps the basis orthonormal
        beta = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(tri[: j + 1, : j + 1])
        if theta[0] < -tol:
            return False
        if beta * abs(s[j, 0]) <= tol or j + 1 == n:
            return True
        tri[j, j + 1] = tri[j + 1, j] = beta
        v = w / beta
    return False


def brute_force_mle(g: Graph, *, balanced: bool = False, size: Optional[int] = None,
                    lam: Optional[float] = None):
    """Exhaustive maximum-likelihood labels under one constraint mode.

    Modes: balanced (1^T x = 0), exact size (|{x = +1}| = size), or free with
    a lambda penalty (maximize x^T A x - lam (1^T x)^2). Ties are broken by
    the lexicographically smallest vector with +1 ordered before -1.
    Returns (labels, objective). Hard-capped at n <= 22 nodes.
    """
    require_nonempty(g)
    n = g.n
    if n > _BRUTE_FORCE_CAP:
        raise CapacityError(f"brute force capped at n <= {_BRUTE_FORCE_CAP}, got {n}")
    chosen = sum((balanced, size is not None, lam is not None))
    if chosen != 1:
        raise ParameterError("pick exactly one mode: balanced, size=K, or lam=value")
    if balanced and n % 2:
        raise ParameterError("balanced mode needs even n")
    if size is not None and not (0 <= size <= n):
        raise ParameterError(f"size must lie in [0, {n}], got {size}")

    masks = np.arange(1 << n, dtype=np.int64)
    diff = np.zeros(masks.size, dtype=np.int64)
    for u, v in g.edges.tolist():
        diff += (masks >> u ^ masks >> v) & 1
    quad = 2.0 * (g.m - 2 * diff)  # x^T A x

    pop = np.bitwise_count(masks).astype(np.int64)
    if balanced:
        sel = pop == n // 2
        obj = quad
    elif size is not None:
        sel = pop == size
        obj = quad
    else:
        sel = np.ones(masks.size, dtype=bool)
        imbalance = 2 * pop - n
        obj = quad - lam * (imbalance.astype(np.float64) ** 2)

    cand_masks = masks[sel]
    cand_obj = obj[sel]
    best = cand_obj.max()
    ties = cand_masks[cand_obj == best]
    # lexicographic with +1 before -1: maximize the bit string read from index 0
    rev = np.zeros(ties.size, dtype=np.int64)
    for i in range(n):
        rev |= ((ties >> i) & 1) << (n - 1 - i)
    pick = int(ties[np.argmax(rev)])
    labels = np.where((pick >> np.arange(n)) & 1, 1, -1).astype(np.int8)
    return labels, float(best)


def _round_and_certify(g: Graph, y: np.ndarray, f: float, converged: bool,
                       lam: float, balanced: bool):
    """Round a factor; tight iff converged, gap-tight and dual-certified."""
    labels, pi_ok = _round_with_info(y, balanced)
    rounded_obj = labeling_objective(g, labels, lam=lam)
    cert = _certificate_from_values(f, rounded_obj)
    # mu = lam is the Lagrangian program's own multiplier; on the balanced
    # program any mu gives a dual point, and mu = 1 is Abbe-Bandeira-Hall's
    tight = cert.tight and converged and _dual_certified(
        g.adjacency, labels, 1.0 if balanced else lam,
        _DUAL_RTOL * (1.0 + abs(rounded_obj)))
    return labels, pi_ok, rounded_obj, Certificate(tight=tight, gap=cert.gap)


def _solve(g: Graph, cfg: SdpConfig, balanced: bool) -> SdpSolution:
    require_nonempty(g)
    n = g.n
    r = cfg.rank if cfg.rank is not None else default_rank(n)
    lam = 0.0 if balanced else cfg.lam
    adj = g.adjacency

    best = rounding = None
    restart_objs = []
    total_iters = 0
    for k in range(cfg.restarts):
        rng = rng_for(cfg.seed, STREAM_SDP, k)
        out = _ascent(adj, n, r, lam, balanced, cfg, rng)
        restart_objs.append(out[1])
        total_iters += out[2]
        if best is None or out[1] > best[1]:
            best, rounding = out, None
            if out[4]:
                rounding = _round_and_certify(g, out[0], out[1], True, lam, balanced)
                if rounding[3].tight:
                    break
    y, f, iters, grad_norm, converged, obj_trace, dev_trace = best
    if rounding is None:  # the best restart hit its iteration cap: never tight
        rounding = _round_and_certify(g, y, f, converged, lam, balanced)
    labels, pi_ok, rounded_obj, cert = rounding
    cs = y.sum(axis=0)
    diag = SolveDiagnostics(
        converged=converged,
        iterations_total=total_iters,
        restarts_used=len(restart_objs),
        final_grad_norm=grad_norm,
        power_iteration_converged=pi_ok,
        lambda_used=lam,
        rounded_balance=int(abs(int(labels.sum()))),
        restart_objectives=np.asarray(restart_objs),
        objective_trace=obj_trace,
        row_norm_dev_trace=dev_trace,
    )
    return SdpSolution(
        factor=y,
        objective=f,
        rounded=labels,
        rounded_objective=rounded_obj,
        certificate=cert,
        iterations=iters,
        balance_residual=float(cs @ cs),
        diagnostics=diag,
    )


def solve_lagrangian_sdp(g: Graph, cfg: Optional[SdpConfig] = None) -> SdpSolution:
    """Maximize Tr(A Y Y^T) - lambda ||Y^T 1||^2 over unit-norm rows."""
    cfg = cfg or SdpConfig()
    if cfg.balanced_mode:
        raise ParameterError("config has balanced_mode set; use solve_balanced_sdp")
    return _solve(g, cfg, balanced=False)


def solve_balanced_sdp(g: Graph, cfg: Optional[SdpConfig] = None) -> SdpSolution:
    """As solve_lagrangian_sdp but drives ||Y^T 1||^2 to zero by projection."""
    cfg = cfg or SdpConfig(balanced_mode=True)
    if not cfg.balanced_mode:
        raise ParameterError("config must set balanced_mode for the balanced solve")
    if cfg.lam:
        raise ParameterError("balanced mode does not take a lambda penalty")
    if g.n % 2:
        raise ParameterError("balanced solve needs an even number of nodes")
    return _solve(g, cfg, balanced=True)
