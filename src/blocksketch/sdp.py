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
rank-one correction lambda * 1 (1^T Y). A restart converges on a relative
step gain below _STEP_TOL or on an exhausted line search; _MAX_ITERS caps it.
A factor is rounded by the signs of the exact leading eigenvector of Y Y^T,
from one eigh of the r x r Gram matrix, which also gives the rank stop.

Labels x carry a dual certificate (Abbe-Bandeira-Hall, arXiv:1405.3267)
when S = diag(((A - mu J) x) * x) - A + mu J, with mu = lambda (mu = 1 in
the balanced program), is PSD: S x = 0 by construction, so S >= 0 proves
x x^T optimal for the relaxation and x optimal for the integral program.
A solve is tight exactly when this check passed on the labels it returns:
neither the ascent's convergence nor the gap to the factor's objective is
part of the proof, and the gap is only reported. `_certify` derives the
labels' objective and the diagonal of S from one product A x.
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
steps, cleaned up by up to two rounds of x <- sign((A - mu J) x), where a
round that changes no label ends it (a median split in the balanced
program). The Ritz vector is oriented by the fixed start vector, as the
rounding's eigenvector is, so the labels do not follow the eigensolver's
arbitrary sign. Above the recovery threshold these labels are
usually exact (Abbe-Fan-Wang-Zhong, arXiv:1709.09565). If they certify, the
rank-1 factor x, its own rounding, is returned and no ascent runs. Otherwise
`_solve` runs up to _RESTARTS restarts of the ascent, each capped at _MAX_ITERS
iterations, and alone decides when they stop. The first restart whose rounded
labels certify ends the solve. Without a certificate, so does a converged
Lagrangian best restart with a rank-deficient factor: a rank-deficient
second-order critical point of the factored problem is a global SDP optimum
(Journee-Bach-Absil-Sepulchre, arXiv:0807.4423; Boumal-Voroninski-Bandeira,
arXiv:1606.04970). The stop rule is first order, so this is no proof, and
`tight` never rests on it. Balanced restarts end off the balance constraint,
where a rank stop changed partitions. They and full-rank factors wait for a
restart that confirms the best converged one: at its own converged stop, its
objective is within the agreement tolerance of the best's and it rounds to
the best's partition; the best stays. The dual certificate carries
correctness, so the rank is the constant _RANK, a performance setting chosen by
benchmark: outside the worst case a low rank suffices
(Bandeira-Boumal-Voroninski, arXiv:1602.04426). `SdpConfig` holds only the
multiplier and the seed, which each caller sets.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import CapacityError, ParameterError
from .rng import RngSeed, STREAM_SDP, rng_for, seed_sequence
from .sbm import Graph, is_complete, partitions_equal, require_nonempty

_ARMIJO = 1e-4
_STEP_TOL = 1e-10         # stop on relative objective change below this. 5e-10 cut iterations
                          # 14% on n = 300 control graphs, but of 260 (tools/replay_solver.py's
                          # 60 and 200 more) 5 needed extra restarts and 1 rounded to a worse
                          # partition; 2e-10 to 4e-10 also added restarts, and 1e-9 added them
                          # on 8 of the 200 and on TestDefaultRank's control seed 0
_MAX_HALVINGS = 30
_BRUTE_FORCE_CAP = 22
_START_SEED = 0x9E3779B9  # fixed start vectors: rounding and the dual check are pure functions
_DUAL_RTOL = 1e-9         # lambda_min(S) tolerance, relative to 1 + |rounded objective|
_LANCZOS_STEPS = 80       # Krylov dimension cap of the dual check
_LANCZOS_MARGIN = 100     # a residual-tested acceptance needs a Ritz value >= this tol. The mle
                          # labels of a 13-node graph (k1 = 6, k2 = 7, p = 0.140625, q = 0,
                          # seed 6, mu = 5.96e-8) have a smallest Ritz value of +5.8e-8 = 4 tol,
                          # residual 1.45e-8, at step 9, while lambda_min(S) is -6.0e-8.
                          # lambda_min(S + x x^T / n) of the labels of 71 tight full-graph
                          # solves (n = 400, alpha 8, 10, 30, beta 2) was 2.7e4 to 1.4e5 tol
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
_SPECTRAL_STEPS = 8       # Krylov dimension of the spectral candidate labels. Skipping solves
                          # at 4/6/8/12 steps: n = 400 sketches at 0.5 gamma* 209/230/233/233
                          # of 300, at gamma* 269/294/297/297 of 300; n = 5000 at gamma*
                          # 22/28/28/29 of 30, at 2 gamma* 26/30/30/30 of 30; n = 20000 at
                          # gamma* 5/7/7/7 of 8 (alpha 30, beta 2). On other seeds 8 and 12
                          # steps tied in all five cells. Unoriented, 8 steps gave complementary
                          # balanced candidates on the dense and CSR operators of an n = 300 graph
_MAX_ITERS = 500          # iteration cap of one restart
_RESTARTS = 5             # upper bound on the restarts of one solve
_RANK = 8                 # factor rank, a performance setting picked by benchmark; may exceed n
_RANK_TOL = 1e-6          # rank-deficient: lambda_min(Y^T Y) <= this lambda_max. Restart 0 of 200
                          # n = 300 control graphs read <= 1e-6 on 186, <= 1e-5 on 193, <= 1e-3
                          # on 196, median 3.1e-10, no natural gap; every result held at 1e-6


def require_multiplier(lam: float) -> None:
    if not (0.0 <= lam < math.inf):  # also false for nan
        raise ParameterError(f"lambda must be finite and nonnegative, got {lam}")


@dataclass(frozen=True)
class SdpConfig:
    lam: float = 0.0                # the Lagrangian multiplier; must be 0 in the balanced solve
    seed: RngSeed = 0

    def __post_init__(self):
        require_multiplier(self.lam)
        object.__setattr__(self, "lam", float(self.lam))  # a numpy float32 rounds the objective
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
    restarts_used: int               # 0: spectral labels certified; 1: restart 0 certified
                                     # or rank-deficient
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
    """The objective and the column sums 1^T Y, given A Y."""
    cs = np.einsum("ij->j", y)
    return float(np.vdot(y, ay)) - lam * float(cs @ cs), cs


def objective_and_gradient(adj, y, lam: float = 0.0):
    """Value and pre-projection gradient of Tr(A Y Y^T) - lam ||Y^T 1||^2.

    `adj` is a dense array or a scipy sparse matrix. The gradient is
    2 A Y - 2 lam 1 (1^T Y). Rows of y need not be unit-norm, so the pair
    is directly checkable by finite differences.
    """
    y = np.asarray(y, dtype=np.float64)
    ay = adj @ y
    f, cs = _value(y, ay, lam)
    return f, 2.0 * ay - (2.0 * lam) * cs


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


# numpy.linalg's eigh and cholesky check the stacking, shape and type
# of their input and enter an errstate on every call, which costs about as much
# as LAPACK itself on the solver's small matrices (eigh of a 1 x 1 took 9.6
# against 2.5 us, of an 8 x 8 24.5 against 15.4 us). The helpers call the
# gufuncs numpy.linalg calls, with the signature it passes for float64, so each
# result is its own to the bit; the solver passes only float64 square matrices.
# An eigensolver that fails to converge, which numpy.linalg raises as
# LinAlgError, returns NaNs here with a RuntimeWarning instead.
def _eigh(a: np.ndarray):
    """(eigenvalues ascending, eigenvectors as columns) of the symmetric a, read
    from its lower triangle, as np.linalg.eigh(a)."""
    return _umath_linalg.eigh_lo(a, signature="d->dd")


def _has_cholesky(a: np.ndarray) -> bool:
    """np.linalg.cholesky's verdict on a: False where it raises LinAlgError.

    The gufunc reports a failed factorization as an invalid floating-point
    operation, as numpy.linalg reads it; here it raises instead of warning.
    """
    with np.errstate(invalid="raise"):
        try:
            _umath_linalg.cholesky_lo(a, signature="d->d")
        except FloatingPointError:
            return False
    return True


class _Restart(NamedTuple):
    """One run of the ascent: its last accepted factor and objective."""
    factor: np.ndarray
    objective: float
    iterations: int
    converged: bool                  # ended on a stop rule
    objectives: list                 # accepted objective per iteration; never decreases


def _ascent(adj, lam: float, balanced: bool, rng):
    """One restart of the ascent on n x _RANK factors from a random start drawn
    from `rng`; the balanced program handles its constraint by projection and
    takes lam = 0. It converges on a step gain of at most _STEP_TOL (1 + |f|)
    or on a line search that no trial step passes; _MAX_ITERS caps it."""
    product = _product(adj, _RANK)
    y = _project(rng.standard_normal((adj.shape[0], _RANK)), balanced)
    ay = product(y)
    f, cs = _value(y, ay, lam)
    objectives = []
    step = 1.0
    y_prev = h_prev = None
    converged = False
    for iters in range(1, _MAX_ITERS + 1):
        # h, half the projected gradient, built in place in A Y, which is spent
        # once f is known. Each factor 2 of the gradient 2 h is folded into a
        # scalar instead: scaling by a power of two is exact, so every value is
        # the one the full gradient gives, to the bit
        h = ay
        h -= lam * cs
        if balanced:
            h -= h.mean(axis=0, keepdims=True)
        h -= np.einsum("ij,ij->i", h, y)[:, None] * y
        gsq = 4.0 * float(np.vdot(h, h))
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
            fc, csc = _value(cand, ayc, lam)
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
    return _Restart(y, f, iters, converged, objectives)


@functools.lru_cache(maxsize=128)
def _start_vector(n: int) -> np.ndarray:
    """The fixed unit start vector v0 of length n, drawn once per n; read-only."""
    v = np.random.default_rng(_START_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def _gram_eigh(y: np.ndarray):
    """(ev, v) of the float64 factor Y from one eigh of its Gram matrix Y^T Y:
    the Gram's eigenvalues ev, ascending, and the exact leading eigenvector
    v = Y u / ||Y u|| of Y Y^T, u the Gram's top eigenvector, signed so that
    v . v0 >= 0 for the fixed start vector v0."""
    ev, u = _eigh(y.T @ y)
    v0 = _start_vector(y.shape[0])
    v = y @ u[:, -1]
    if not v.any():  # Y = 0: every vector is a leading eigenvector
        v = v0
    return ev, np.copysign(1.0 / np.linalg.norm(v), v @ v0) * v


def leading_eigenvector(factor: np.ndarray):
    """Leading eigenvector of Y Y^T, exact, signed as _gram_eigh signs it: the
    sign a power iteration from the fixed start vector converges to.
    Returns (vector, converged, iterations), always (v, True, 0)."""
    return _gram_eigh(np.asarray(factor, dtype=np.float64))[1], True, 0


def round_solution(factor: np.ndarray, balanced: bool = False) -> np.ndarray:
    """Integral labels from a factor: sign pattern of the leading eigenvector.

    sign(0) counts as +1. In balanced mode the eigenvector is split at its
    median instead (top n/2 entries get +1, stable index tie-break), which
    keeps the output feasible for the balanced program.
    """
    return _round(leading_eigenvector(factor)[0], balanced)


def _round(v: np.ndarray, balanced: bool) -> np.ndarray:
    """round_solution's labels from the leading eigenvector v."""
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
    s = float(x.sum())
    return quad - float(lam) * s * s


def _agrees(a: float, b: float) -> bool:
    """a and b are within the agreement tolerance 1e-6 (1 + |max(a, b)|)."""
    hi, lo = max(a, b), min(a, b)
    return hi - lo <= 1e-6 * (1.0 + abs(hi))


def _lanczos(apply, n: int, steps: int):
    """Lanczos recurrence with full reorthogonalization from the fixed start vector.

    Yields (basis, tri, beta) after each step: the orthonormal Krylov basis
    so far (one row per vector), the tridiagonal projection of `apply` onto
    it, and the norm of the next residual. Stops after `steps` steps, or once
    beta is 0 and the Krylov space is invariant.
    """
    basis = np.empty((steps + 1, n))
    tri = np.zeros((steps + 1, steps + 1))
    basis[0] = _start_vector(n)
    for j in range(steps):
        w = apply(basis[j])
        q = basis[: j + 1]
        h = q @ w
        tri[j, j] = h[j]
        w -= q.T @ h
        w -= q.T @ (q @ w)  # a second pass keeps the basis orthonormal
        beta = math.sqrt(w @ w)  # np.linalg.norm(w), without its dispatch
        yield q, tri[: j + 1, : j + 1], beta
        if not beta:
            return
        tri[j, j + 1] = tri[j + 1, j] = beta
        np.divide(w, beta, out=basis[j + 1])


def _spectral_labels(adj, mu: float, balanced: bool) -> np.ndarray:
    """Candidate labels from the top Ritz vector v of A - mu J.

    _SPECTRAL_STEPS Lanczos steps, one eigh of the tridiagonal at the end.
    v is signed so that v . v0 >= 0 for the start vector v0, the first basis
    vector, as leading_eigenvector signs its vector: the sign of the
    tridiagonal's eigenvector is arbitrary, and a balanced split of -v is
    the complement of v's. Free labels are the vector's signs after up to two
    cleanup rounds x <- sign((A - mu J) x), where a zero keeps its label; a
    round that changes no label ends it, as the next would change none either.
    Balanced labels split the vector at its median.
    """
    n = adj.shape[0]
    for basis, tri, _ in _lanczos(lambda v: adj @ v - mu * v.sum(), n,
                                  min(n, _SPECTRAL_STEPS)):
        pass
    u = _eigh(tri)[1][:, -1]
    v = basis.T @ (u if u[0] >= 0.0 else -u)  # u[0] = v . v0
    if balanced:
        return _split_at_median(v)
    x = np.where(v >= 0.0, 1.0, -1.0)
    for _ in range(2):
        z = adj @ x - mu * x.sum()
        cleaned = np.where(z > 0.0, 1.0, np.where(z < 0.0, -1.0, x))
        if np.array_equal(cleaned, x):
            break
        x = cleaned
    return x.astype(np.int8)


def _certify(adj, labels: np.ndarray, lam: float, mu: float):
    """(objective, certified) of +-1 labels x, both from one product A x.

    The objective is x (A x) - lam (1^T x)^2: every partial sum of x (A x) is
    an integer, so the float is labeling_objective's to the bit. Certified
    means lambda_min(S) >= -tol for S = diag(d) - A + mu J, at
    tol = _DUAL_RTOL (1 + |objective|), with the diagonal d = ((A - mu J) x) * x
    taken from the same product.

    A dense adjacency on at most _DENSE_DUAL_MAX nodes gets a dense Cholesky
    factorization of S + tol I, and its success is a proof that S + tol I
    is positive definite, so lambda_min(S) > -tol. Rounding perturbs S by
    the factorization's backward error, of order n^2 eps ||S|| (about 1e-9
    at n = 180), which only blurs the boundary at -tol and sits far below
    tol = _DUAL_RTOL (1 + |obj|) at a sketched subgraph's objective. Every
    other operator, dense or CSR, gets the Lanczos check, whose acceptance
    rests on a residual test and a margin: the route goes by size, where
    Cholesky pays, and by type, since a CSR cannot be subtracted from a scalar.
    """
    x = labels.astype(np.float64)
    ax = adj @ x
    s = float(x.sum())
    obj = float(x @ ax) - lam * s * s
    d = (ax - mu * s) * x
    tol = _DUAL_RTOL * (1.0 + abs(obj))
    if isinstance(adj, np.ndarray) and x.size <= _DENSE_DUAL_MAX:
        return obj, _cholesky_certified(adj, d, mu, tol)
    return obj, _lanczos_certified(adj, x, d, mu, tol)


def _cholesky_certified(adj: np.ndarray, d: np.ndarray, mu: float, tol: float) -> bool:
    """True iff S + tol I = diag(d + tol) - A + mu J, A dense, has a Cholesky factor.

    S x = 0, so the eigenvalue of x becomes tol and needs no shift.
    """
    s = mu - adj
    s[np.diag_indices_from(s)] += d + tol
    return _has_cholesky(s)


def _lanczos_certified(adj, x: np.ndarray, d: np.ndarray, mu: float, tol: float) -> bool:
    """Lanczos verdict on lambda_min(S) >= -tol for S = diag(d) - A + mu J.

    Lanczos on S + x x^T / n, which moves the zero eigenvalue of x to 1;
    J and S are never formed. The smallest Ritz value never undershoots
    lambda_min, so one below -tol rejects at once, as does a NaN one, which a
    failed eigensolve of the tridiagonal returns. Acceptance needs the
    whole space, a Krylov space invariant to within tol (beta <= tol: every
    Ritz value is then within tol of an eigenvalue, and further steps would
    build on rounding noise), or a smallest Ritz value that clears
    _LANCZOS_MARGIN tol with its residual within tol: a converged Ritz value
    near 0 can sit in a cluster that hides a lower eigenvalue. No acceptance
    within _LANCZOS_STEPS means "not certified".
    """
    n = x.size

    def apply(v):
        return d * v - adj @ v + mu * v.sum() + x * ((x @ v) / n)

    for basis, tri, beta in _lanczos(apply, n, min(n, _LANCZOS_STEPS)):
        theta, s = _eigh(tri)
        if not theta[0] >= -tol:  # also true for nan
            return False
        if len(basis) == n or beta <= tol or (theta[0] >= _LANCZOS_MARGIN * tol
                                              and beta * abs(s[-1, 0]) <= tol):
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


def _solve(g: Graph, cfg: SdpConfig, balanced: bool) -> SdpSolution:
    require_nonempty(g)
    lam = 0.0 if balanced else cfg.lam
    # mu = lam is the Lagrangian program's own multiplier; on the balanced
    # program any mu gives a dual point, and mu = 1 is Abbe-Bandeira-Hall's
    mu = 1.0 if balanced else lam
    adj = _operator(g)

    # spectral labels that certify are optimal: x x^T is the SDP optimum and
    # no ascent runs; its Riemannian gradient at a +-1 rank-1 point is zero.
    # The rank-1 factor x rounds to +-x, whose objective is x's, so the gap is 0
    x = _spectral_labels(adj, mu, balanced).astype(np.float64)
    labels = round_solution(x[:, None], balanced)
    rounded_obj, tight = _certify(adj, labels, lam, mu)
    best = _Restart(factor=x[:, None], objective=rounded_obj, iterations=0,
                    converged=True, objectives=[])
    # exits: a certified rounding, the restart bound, the rank stop, a confirmation
    runs = []
    while not tight and len(runs) < _RESTARTS:
        out = _ascent(adj, lam, balanced, rng_for(cfg.seed, STREAM_SDP, len(runs)))
        runs.append(out)
        ev, v = _gram_eigh(out.factor)  # ev of the Gram Y^T Y
        out_labels = _round(v, balanced)
        if (len(runs) > 1 and best.converged and out.converged
                and _agrees(out.objective, best.objective)
                and partitions_equal(out_labels, labels)):
            break  # out confirms the best, which stays
        if len(runs) == 1 or out.objective > best.objective:
            best, labels = out, out_labels
            rounded_obj, tight = _certify(adj, labels, lam, mu)
            if out.converged and not balanced and ev[0] <= _RANK_TOL * ev[-1]:
                break
    cs = best.factor.sum(axis=0)
    diag = SolveDiagnostics(
        converged=best.converged,
        iterations_total=sum(out.iterations for out in runs),
        restarts_used=len(runs),
        restart_objectives=np.asarray([out.objective for out in runs] or [best.objective]),
    )
    return SdpSolution(
        factor=best.factor,
        objective=best.objective,
        rounded=labels,
        rounded_objective=rounded_obj,
        certificate=Certificate(tight=tight, gap=best.objective - rounded_obj),
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
