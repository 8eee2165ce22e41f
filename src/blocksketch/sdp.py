"""Low-rank SDP solver for the relaxed maximum-likelihood programs.

The relaxation max Tr(A X) - lambda Tr(X J), X PSD with unit diagonal, is
solved through the factorization X = Y Y^T with unit-norm rows of Y, by
Riemannian gradient ascent on the product of spheres: Barzilai-Borwein
steps with monotone Armijo backtracking (Wen-Yin, Math. Program. 142,
2013). Each trial step costs one product A Y; below the recovery
threshold an iteration takes about 1.3 of them, since the BB step often
needs a halving. On a CSR the products call scipy's compiled kernel
directly, without its Python dispatch. The balanced variant drives
Tr(X J) = ||Y^T 1||^2 itself to zero by alternating projection instead of
penalizing it.

The lambda * J term is never materialized: its gradient contribution is the
rank-one correction lambda * 1 (1^T Y). A factor is rounded by the signs of
the exact leading eigenvector of Y Y^T, from one eigh of the r x r Gram matrix.

Labels x carry a dual certificate (Abbe-Bandeira-Hall, arXiv:1405.3267)
when S = diag(((A - mu J) x) * x) - A + mu J, with mu = lambda (mu = 1 in
the balanced program), is PSD: S x = 0 by construction, so S >= 0 proves
x x^T optimal for the relaxation and x optimal for the integral program.
`_operator` picks the one adjacency the whole solve multiplies. On at most
_DENSE_DUAL_MAX nodes, which covers the sketched subgraphs, and on dense
graphs of at most _DENSE_OPERATOR_MAX nodes, such as the paper's full
n = 400 graphs, it is a dense array built from the edge list and no CSR is
built: there a dense build and dense products cost less than scipy's CSR
build and per-product dispatch. Other graphs get the CSR. On at most
_DENSE_DUAL_MAX nodes lambda_min(S) >= -tol is decided by one dense
Cholesky factorization of S + tol I, whose success is a proof; larger
graphs, dense or CSR, run a short Lanczos iteration that never forms S.
The proof never looks at a factor, so the solve first tries spectral
labels: the signs of the top Ritz vector of A - mu J after a few Lanczos
steps, cleaned up by two rounds of x <- sign((A - mu J) x) (a median split
in the balanced program). Above the recovery threshold these are usually
exact (Abbe-Fan-Wang-Zhong, arXiv:1709.09565). If they certify, the rank-1
factor x, its own rounding, is returned and no ascent runs. Otherwise
restarts of the ascent run, and stop at the first one whose rounded labels
certify. Without a certificate one rule ends them: a restart confirms the
best converged restart when its objective is within the gap test's
tolerance of the best's and it rounds to the best's partition. A restart
that confirms ends the solve, and the earlier restart stays the best.
`_ascent` checks this at a converged restart's stop, never at an iteration
cap. On the Lagrangian program it also rounds the first accepted iterate
within the tolerance once, and a match stops the restart there,
unconverged: run to its stop rule, such a restart spent about a third of
its iterations after it already matched. Balanced restarts end far off the
balance constraint, and stopping one early lowered the objective beyond
the tolerance. The dual certificate carries correctness, so the rank is a
performance setting chosen by benchmark: outside the worst case a low rank
suffices (Bandeira-Boumal-Voroninski, arXiv:1602.04426).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapacityError, ParameterError
from .rng import RngSeed, STREAM_SDP, rng_for, seed_sequence
from .sbm import Graph, is_complete, partitions_equal, require_nonempty

_ARMIJO = 1e-4
_STEP_TOL = 1e-10         # stop on relative objective change below this. 5e-10 cut iterations
                          # 14% on n = 300 control graphs, but of 260 (tools/replay_solver.py's
                          # 60 and 200 more) 5 needed extra restarts and 1 rounded to a worse
                          # partition; 2e-10 to 4e-10 also added restarts, and 1e-9 added them
                          # on 8 of the 200 and on TestDefaultRank's control seed 0
_GRAD_TOL = 1e-8          # stationarity tolerance on the projected gradient
_MAX_HALVINGS = 30
_BRUTE_FORCE_CAP = 22
_START_SEED = 0x9E3779B9  # fixed start vectors: rounding and the dual check are pure functions
_DUAL_RTOL = 1e-9         # lambda_min(S) tolerance, relative to 1 + |rounded objective|
_LANCZOS_STEPS = 80       # Krylov dimension cap of the dual check
_DENSE_DUAL_MAX = 180     # largest n solved on a dense adjacency at any density, and the
                          # largest whose dual check is a dense Cholesky: on accepting labels,
                          # build and factor took 0.04/0.07/0.15/0.48 ms at n = 50/100/150/180
                          # against 0.5-0.9 ms of Lanczos, but 0.85-4.2 ms at n = 186-400
                          # (numpy's Cholesky nearly doubles in cost from n = 184 to 186;
                          # 2 vCPUs, 1 BLAS thread). A dense rank-8 product took 13 us
                          # against 50 us on CSR at n = 180, but 40 against 29 us at n = 300,
                          # density 3.9%
_DENSE_OPERATOR_MAX = 400 # above _DENSE_DUAL_MAX, largest n solved on a dense adjacency,
_DENSE_MIN_FILL = 0.2     # and only when 2m >= this share of its n^2 entries. Rank-1 / rank-8
                          # products, CSR against dense (us; 2 vCPUs, 1 BLAS thread): n = 400
                          # at fill 0.10 22/34, 105/141; at 0.15 20/21, 142/106; at 0.24
                          # 45/26, 226/104. Past n = 400 the dense matrix leaves the 2 MB L2:
                          # n = 500 at 0.15 30/49, 227/202; n = 600 at 0.24 101/138, 610/442.
                          # A dense build takes a third of a CSR build. Whole spectral-skip
                          # solves at n = 400 took 3.32/2.66 ms at fill 0.24, 2.83/2.72 at
                          # 0.15 and 2.97/3.33 at 0.10; ascent solves at n = 500, fill 0.15,
                          # 205/358 ms. Ascent solves at n = 400 below the recovery threshold,
                          # dense time over CSR time (mean of 4-6 graphs; Lagrangian, then
                          # balanced): fill 0.15 0.89-0.92, 0.95-1.15; 0.17 0.87-0.89, 1.03;
                          # 0.19 0.86, 0.81; 0.21 0.78, 0.71; 0.24 0.80, 0.64; 0.37 0.57, 0.49
_SPECTRAL_STEPS = 12      # Krylov dimension of the spectral candidate labels


def require_multiplier(lam: float) -> None:
    if not (0.0 <= lam < math.inf):  # also false for nan
        raise ParameterError(f"lambda must be finite and nonnegative, got {lam}")


@dataclass(frozen=True)
class SdpConfig:
    rank: int = 8                   # a performance setting, picked by benchmark; may exceed n
    max_iters: int = 500
    restarts: int = 5               # upper bound: none run when the spectral labels certify; else
                                    # stops at the first dual-certified restart or at one that
                                    # confirms the best (see the module docstring)
    lam: float = 0.0                # the Lagrangian multiplier; must be 0 in the balanced solve
    seed: RngSeed = 0

    def __post_init__(self):
        if self.rank < 2:
            raise ParameterError("rank must be at least 2")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be at least 1")
        if self.restarts < 1:
            raise ParameterError("restarts must be at least 1")
        require_multiplier(self.lam)
        if not isinstance(self.seed, np.random.SeedSequence):
            seed_sequence(self.seed)  # a negative seed fails even when no restart runs


@dataclass(frozen=True)
class Certificate:
    tight: bool
    gap: float

    def __str__(self):
        return "tight" if self.tight else f"not-tight({self.gap:.6g})"


@dataclass(eq=False)
class SolveDiagnostics:
    converged: bool                  # best restart ended on a stop rule; True if none ran
    iterations_total: int            # ascent iterations over all restarts run
    restarts_used: int               # 0: the spectral labels certified and no ascent ran
    restart_objectives: np.ndarray   # one per restart run; [objective] when none ran


@dataclass(eq=False)
class SdpSolution:
    factor: np.ndarray
    objective: float
    rounded: np.ndarray
    rounded_objective: float
    certificate: Certificate
    iterations: int                  # iterations of the best restart; 0 on a spectral skip
    balance_residual: float          # ||Y^T 1||^2 of the returned factor
    diagnostics: SolveDiagnostics


def _project(y: np.ndarray, balanced: bool) -> np.ndarray:
    """Retract a fresh array onto the factors, in place: centre its columns in
    the balanced program, then normalize its rows."""
    if balanced:
        y -= y.mean(axis=0, keepdims=True)
    y /= np.maximum(np.sqrt(np.einsum("ij,ij->i", y, y)), 1e-300)[:, None]
    return y


def _value(y: np.ndarray, ay: np.ndarray, lam: float):
    """The objective and the column sums 1^T Y (None when lam is 0), given A Y."""
    f = float(np.vdot(y, ay))
    cs = np.einsum("ij->j", y) if lam else None
    if lam:
        f -= lam * float(cs @ cs)
    return f, cs


def objective_and_gradient(adj, y, lam: float = 0.0):
    """Value and pre-projection gradient of Tr(A Y Y^T) - lam ||Y^T 1||^2.

    `adj` is a dense array or a scipy sparse matrix. The gradient is
    2 A Y - 2 lam 1 (1^T Y). Rows of y need not be unit-norm, so the pair
    is directly checkable by finite differences.
    """
    y = np.asarray(y, dtype=np.float64)
    ay = adj @ y
    f, cs = _value(y, ay, lam)
    grad = 2.0 * ay
    if lam:
        grad -= (2.0 * lam) * cs
    return f, grad


def _product(adj, r: int):
    """The map Y -> A Y on the (n, r) factors of one ascent.

    A dense array keeps `@`. On a CSR it calls scipy's compiled kernel
    directly, into a fresh zero array as `adj @ y` does, so the product is
    the same to the bit without scipy's Python dispatch, which costs about
    as much as the kernel at rank 8 on a few hundred nodes.
    """
    if isinstance(adj, np.ndarray):
        return adj.__matmul__
    from scipy.sparse._sparsetools import csr_matvecs
    n = adj.shape[0]
    csr = (n, n, r, adj.indptr, adj.indices, adj.data)

    def product(y: np.ndarray) -> np.ndarray:
        ay = np.zeros((n, r))
        csr_matvecs(*csr, y.ravel(), ay.ravel())
        return ay

    return product


class _Restart(NamedTuple):
    """One run of the ascent: its last accepted factor and objective."""
    factor: np.ndarray
    objective: float
    iterations: int
    converged: bool                  # ended on a stop rule
    objectives: list                 # accepted objective per iteration; never decreases
    confirmed: bool = False          # matched the `confirm` target, which ends the solve


def _ascent(adj, n: int, r: int, lam: float, balanced: bool, max_iters: int, rng,
            confirm=None):
    """One restart of the ascent from a random start drawn from `rng`.

    `confirm` is None or (objective, labels) of a converged restart. The
    restart confirms it when, within the gap test's tolerance of that
    objective, it rounds to the same partition: checked at a converged stop,
    and on the Lagrangian program also at the first accepted iterate within
    the tolerance, rounded once, where a match stops the ascent unconverged.
    """
    # the balanced variant handles the constraint by projection, not penalty
    lam_eff = 0.0 if balanced else lam
    product = _product(adj, r)
    y = _project(rng.standard_normal((n, r)), balanced)
    ay = product(y)
    f, cs = _value(y, ay, lam_eff)
    objectives = []
    step = 1.0
    y_prev = h_prev = None
    converged = False
    early = confirm is not None and not balanced
    for iters in range(1, max_iters + 1):
        # h, half the projected gradient, built in place in A Y, which is spent
        # once f is known. Each factor 2 of the gradient 2 h is folded into a
        # scalar instead: scaling by a power of two is exact, so every value is
        # the one the full gradient gives, to the bit
        h = ay
        if lam_eff:
            h -= lam_eff * cs
        if balanced:
            h -= h.mean(axis=0, keepdims=True)
        h -= np.einsum("ij,ij->i", h, y)[:, None] * y
        gsq = 4.0 * float(np.vdot(h, h))
        if math.sqrt(gsq) <= _GRAD_TOL * (1.0 + abs(f)):
            converged = True
            iters -= 1
            break
        if h_prev is not None:
            # Barzilai-Borwein step, long and short formulas alternating; z is
            # half the gradient difference
            s, z = y - y_prev, h - h_prev
            sz = abs(float(np.vdot(s, z)))
            if sz:
                bb = (float(np.vdot(s, s)) / (2.0 * sz) if iters % 2
                      else sz / (2.0 * float(np.vdot(z, z))))
                step = min(max(bb, 1e-10), 1e10)
        t = step
        for _ in range(_MAX_HALVINGS):
            cand = _project(y + (2.0 * t) * h, balanced)
            ayc = product(cand)
            fc, csc = _value(cand, ayc, lam_eff)
            if fc >= f + _ARMIJO * t * gsq:
                break
            t *= 0.5
        else:  # no trial step passed the Armijo test
            converged = True
            iters -= 1
            break
        gain = fc - f
        y_prev, h_prev = y, h
        y, f, ay, cs = cand, fc, ayc, csc
        objectives.append(f)
        if gain <= _STEP_TOL * (1.0 + abs(f)):
            converged = True
            break
        if early and _agrees(f, confirm[0]):
            if partitions_equal(round_solution(y), confirm[1]):
                return _Restart(y, f, iters, False, objectives, confirmed=True)
            early = False  # one early rounding; then its own stop rule decides
    confirmed = (converged and confirm is not None and _agrees(f, confirm[0])
                 and partitions_equal(round_solution(y, balanced), confirm[1]))
    return _Restart(y, f, iters, converged, objectives, confirmed)


@functools.lru_cache(maxsize=128)
def _start_vector(n: int) -> np.ndarray:
    """The fixed unit start vector v0 of length n, drawn once per n; read-only."""
    v = np.random.default_rng(_START_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def leading_eigenvector(factor: np.ndarray):
    """Leading eigenvector v = Y u / ||Y u|| of Y Y^T, exact: u is the top
    eigenvector of the r x r Gram matrix Y^T Y. Signed so that v . v0 >= 0 for
    the fixed start vector v0, the sign a power iteration from v0 converges to.
    Returns (vector, converged, iterations), always (v, True, 0)."""
    y = np.asarray(factor, dtype=np.float64)
    v0 = _start_vector(y.shape[0])
    v = y @ np.linalg.eigh(y.T @ y)[1][:, -1]
    if not v.any():  # Y = 0: every vector is a leading eigenvector
        v = v0
    return np.copysign(1.0 / np.linalg.norm(v), v @ v0) * v, True, 0


def round_solution(factor: np.ndarray, balanced: bool = False) -> np.ndarray:
    """Integral labels from a factor: sign pattern of the leading eigenvector.

    sign(0) counts as +1. In balanced mode the eigenvector is split at its
    median instead (top n/2 entries get +1, stable index tie-break), which
    keeps the output feasible for the balanced program.
    """
    v, _, _ = leading_eigenvector(factor)
    if balanced:
        if v.size % 2:
            raise ParameterError("balanced rounding needs an even number of nodes")
        return _split_at_median(v)
    return np.where(v >= 0.0, 1, -1).astype(np.int8)


def _split_at_median(v: np.ndarray) -> np.ndarray:
    """+1 on the top n/2 entries of v (stable index tie-break), -1 elsewhere."""
    labels = np.full(v.size, -1, dtype=np.int8)
    labels[np.argsort(-v, kind="stable")[: v.size // 2]] = 1
    return labels


def labeling_objective(g: Graph, labels, lam: float = 0.0) -> float:
    """x^T A x - lambda (1^T x)^2 for an integral labeling x."""
    x = np.asarray(labels, dtype=np.float64)
    if x.shape != (g.n,) or not is_complete(x):
        raise ParameterError("labels must be complete +-1 of length n")
    quad = 2.0 * float(x[g.edges[:, 0]] @ x[g.edges[:, 1]]) if g.m else 0.0
    if lam:
        s = float(x.sum())
        quad -= lam * s * s
    return quad


def _certificate_from_values(objective: float, rounded_objective: float) -> Certificate:
    """Gap test, a precondition of the solver's certificate and no proof:
    tight iff objective - rounded_objective <= 1e-6 (1 + |objective|)."""
    gap = objective - rounded_objective
    return Certificate(tight=bool(gap <= 1e-6 * (1.0 + abs(objective))), gap=float(gap))


def _agrees(a: float, b: float) -> bool:
    """a and b are within the gap test's tolerance of each other."""
    return _certificate_from_values(max(a, b), min(a, b)).tight


def _lanczos(apply, n: int, steps: int):
    """Lanczos recurrence with full reorthogonalization from the fixed start vector.

    Yields (basis, tri, beta) after each step: the orthonormal Krylov basis
    so far (one row per vector), the tridiagonal projection of `apply` onto
    it, and the norm of the next residual. Stops after `steps` steps, or once
    beta is 0 and the Krylov space is invariant.
    """
    basis = np.empty((steps, n))
    tri = np.zeros((steps + 1, steps + 1))
    v = _start_vector(n)
    for j in range(steps):
        basis[j] = v
        w = apply(v)
        q = basis[: j + 1]
        h = q @ w
        tri[j, j] = h[j]
        w -= q.T @ h
        w -= q.T @ (q @ w)  # a second pass keeps the basis orthonormal
        beta = float(np.linalg.norm(w))
        yield q, tri[: j + 1, : j + 1], beta
        if not beta:
            return
        tri[j, j + 1] = tri[j + 1, j] = beta
        v = w / beta


def _spectral_labels(adj, mu: float, balanced: bool) -> np.ndarray:
    """Candidate labels from the top Ritz vector of A - mu J.

    _SPECTRAL_STEPS Lanczos steps, one eigh of the tridiagonal at the end.
    Free labels are the vector's signs after two cleanup rounds
    x <- sign((A - mu J) x), where a zero keeps its label; balanced labels
    split the vector at its median.
    """
    n = adj.shape[0]
    for basis, tri, _ in _lanczos(lambda v: adj @ v - mu * v.sum(), n,
                                  min(n, _SPECTRAL_STEPS)):
        pass
    v = basis.T @ np.linalg.eigh(tri)[1][:, -1]
    if balanced:
        return _split_at_median(v)
    x = np.where(v >= 0.0, 1.0, -1.0)
    for _ in range(2):
        z = adj @ x - mu * x.sum()
        x = np.where(z > 0.0, 1.0, np.where(z < 0.0, -1.0, x))
    return x.astype(np.int8)


def _dual_certified(adj, x: np.ndarray, mu: float, tol: float) -> bool:
    """True iff lambda_min(S) >= -tol for S = diag(((A - mu J) x) * x) - A + mu J.

    A dense adjacency on at most _DENSE_DUAL_MAX nodes gets a dense Cholesky
    factorization of S + tol I, and its success is a proof that S + tol I
    is positive definite, so lambda_min(S) > -tol. Rounding perturbs S by
    the factorization's backward error, of order n^2 eps ||S|| (about 1e-9
    at n = 180), which only blurs the boundary at -tol and sits far below
    tol = _DUAL_RTOL (1 + |obj|) at a sketched subgraph's objective. Every
    other operator, dense or CSR, gets the Lanczos check, whose acceptance
    rests on a residual test: the route goes by size, where Cholesky pays,
    and by type, since a CSR cannot be subtracted from a scalar.
    """
    x = x.astype(np.float64)
    d = (adj @ x - mu * x.sum()) * x
    if isinstance(adj, np.ndarray) and x.size <= _DENSE_DUAL_MAX:
        return _cholesky_certified(adj, d, mu, tol)
    return _lanczos_certified(adj, x, d, mu, tol)


def _cholesky_certified(adj: np.ndarray, d: np.ndarray, mu: float, tol: float) -> bool:
    """True iff S + tol I = diag(d + tol) - A + mu J, A dense, has a Cholesky factor.

    S x = 0, so the eigenvalue of x becomes tol and needs no shift.
    """
    s = mu - adj
    s[np.diag_indices_from(s)] += d + tol
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return False
    return True


def _lanczos_certified(adj, x: np.ndarray, d: np.ndarray, mu: float, tol: float) -> bool:
    """Lanczos verdict on lambda_min(S) >= -tol for S = diag(d) - A + mu J.

    Lanczos on S + x x^T / n, which moves the zero eigenvalue of x to 1;
    J and S are never formed. The smallest Ritz value never undershoots
    lambda_min, so one below -tol rejects at once; acceptance needs its
    residual within tol. No convergence within _LANCZOS_STEPS means "not
    certified".
    """
    n = x.size

    def apply(v):
        return d * v - adj @ v + mu * v.sum() + x * ((x @ v) / n)

    for basis, tri, beta in _lanczos(apply, n, min(n, _LANCZOS_STEPS)):
        theta, s = np.linalg.eigh(tri)
        if theta[0] < -tol:
            return False
        if beta * abs(s[-1, 0]) <= tol or len(basis) == n:
            return True
    return False


def brute_force_mle(g: Graph, *, balanced: bool = False, lam: Optional[float] = None):
    """Exhaustive maximum-likelihood labels under one constraint mode.

    Modes: balanced (1^T x = 0), or free with a lambda penalty (maximize
    x^T A x - lam (1^T x)^2). Ties are broken by the lexicographically
    smallest vector with +1 ordered before -1. Returns (labels, objective).
    Hard-capped at n <= 22 nodes.
    """
    require_nonempty(g)
    n = g.n
    if n > _BRUTE_FORCE_CAP:
        raise CapacityError(f"brute force capped at n <= {_BRUTE_FORCE_CAP}, got {n}")
    if balanced == (lam is not None):
        raise ParameterError("pick exactly one mode: balanced or lam=value")
    if balanced and n % 2:
        raise ParameterError("balanced mode needs even n")
    if not balanced:
        require_multiplier(lam)

    masks = np.arange(1 << n, dtype=np.int64)
    diff = np.zeros(masks.size, dtype=np.int64)
    for u, v in g.edges.tolist():
        diff += (masks >> u ^ masks >> v) & 1
    quad = 2.0 * (g.m - 2 * diff)  # x^T A x

    pop = np.bitwise_count(masks).astype(np.int64)
    if balanced:
        sel = pop == n // 2
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


def _operator(g: Graph):
    """The adjacency the solve multiplies, the one choice of matrix format.

    A dense float64 array built from the edge list, leaving `g.adjacency`
    unbuilt, on at most _DENSE_DUAL_MAX nodes, and on at most
    _DENSE_OPERATOR_MAX nodes when 2m >= _DENSE_MIN_FILL n^2, where a dense
    product wins; otherwise the CSR `g.adjacency`.
    """
    n = g.n
    if n > _DENSE_DUAL_MAX and (n > _DENSE_OPERATOR_MAX or 2 * g.m < _DENSE_MIN_FILL * n * n):
        return g.adjacency
    a = np.zeros(n * n)
    u, v = g.edges[:, 0], g.edges[:, 1]
    a[u * n + v] = a[v * n + u] = 1.0
    return a.reshape(n, n)


def _round_and_certify(g: Graph, adj, y: np.ndarray, f: float, converged: bool,
                       lam: float, mu: float, balanced: bool):
    """Round a factor; tight iff converged, gap-tight and dual-certified."""
    labels = round_solution(y, balanced)
    rounded_obj = labeling_objective(g, labels, lam=lam)
    cert = _certificate_from_values(f, rounded_obj)
    tight = cert.tight and converged and _dual_certified(
        adj, labels, mu, _DUAL_RTOL * (1.0 + abs(rounded_obj)))
    return labels, rounded_obj, Certificate(tight=tight, gap=cert.gap)


def _solve(g: Graph, cfg: SdpConfig, balanced: bool) -> SdpSolution:
    require_nonempty(g)
    lam = 0.0 if balanced else cfg.lam
    # mu = lam is the Lagrangian program's own multiplier; on the balanced
    # program any mu gives a dual point, and mu = 1 is Abbe-Bandeira-Hall's
    mu = 1.0 if balanced else lam
    adj = _operator(g)

    # spectral labels that certify are optimal: x x^T is the SDP optimum and
    # no ascent runs; its Riemannian gradient at a +-1 rank-1 point is zero.
    # x is its own rounding, signed as leading_eigenvector signs it, with
    # objective f and gap 0; S is the same for x and -x
    x = _spectral_labels(adj, mu, balanced)
    f = labeling_objective(g, x, lam=lam)
    y = x[:, None].astype(np.float64)
    labels = (np.copysign(1.0, y[:, 0] @ _start_vector(g.n)) * x).astype(np.int8)
    tight = _dual_certified(adj, x, mu, _DUAL_RTOL * (1.0 + abs(f)))
    rounding = (labels, f, Certificate(tight=tight, gap=0.0))
    best = _Restart(factor=y, objective=f, iterations=0, converged=True, objectives=[])
    restart_objs = [f]
    restarts_used = total_iters = 0
    if not rounding[2].tight:
        best, restart_objs = None, []
        for k in range(cfg.restarts):
            rng = rng_for(cfg.seed, STREAM_SDP, k)
            confirm = (None if best is None or not best.converged
                       else (best.objective, rounding[0]))
            out = _ascent(adj, g.n, cfg.rank, lam, balanced, cfg.max_iters, rng, confirm)
            restart_objs.append(out.objective)
            total_iters += out.iterations
            if out.confirmed:  # the best stays
                break
            if best is None or out.objective > best.objective:
                best = out
                rounding = _round_and_certify(g, adj, out.factor, out.objective,
                                              out.converged, lam, mu, balanced)
                if rounding[2].tight:
                    break
        restarts_used = len(restart_objs)
    labels, rounded_obj, cert = rounding
    cs = best.factor.sum(axis=0)
    diag = SolveDiagnostics(
        converged=best.converged,
        iterations_total=total_iters,
        restarts_used=restarts_used,
        restart_objectives=np.asarray(restart_objs),
    )
    return SdpSolution(
        factor=best.factor,
        objective=best.objective,
        rounded=labels,
        rounded_objective=rounded_obj,
        certificate=cert,
        iterations=best.iterations,
        balance_residual=float(cs @ cs),
        diagnostics=diag,
    )


def solve_lagrangian_sdp(g: Graph, cfg: Optional[SdpConfig] = None) -> SdpSolution:
    """Maximize Tr(A Y Y^T) - lambda ||Y^T 1||^2 over unit-norm rows."""
    return _solve(g, cfg or SdpConfig(), balanced=False)


def solve_balanced_sdp(g: Graph, cfg: Optional[SdpConfig] = None) -> SdpSolution:
    """As solve_lagrangian_sdp but drives ||Y^T 1||^2 to zero by projection."""
    cfg = cfg or SdpConfig()
    if cfg.lam:
        raise ParameterError("balanced mode does not take a lambda penalty")
    if g.n % 2:
        raise ParameterError("balanced solve needs an even number of nodes")
    return _solve(g, cfg, balanced=True)
