"""Two-community stochastic block model: types, sampling, and graph plumbing.

Labels use +1 / -1 for the two communities and 0 for "unassigned"; a label
vector is complete when it contains no zeros. Partitions are compared up to
a global sign flip. Probabilities use the natural log parametrization
p = alpha * log(n) / n, q = beta * log(n) / n in balanced mode.

`sample_sbm` has one exact sampler at every size: geometric skips between
successive edges of each block (Batagelj and Brandes, Phys. Rev. E
71:036113, 2005), O(edges) time and memory, each skip drawn by inversion.
A within-community block draws codes of its strict upper triangle only, the
cross block codes of its full grid. `_block_keys` turns either shape's sorted
codes into edge keys u * n + v with no division: each row's code count comes
from the code it starts at, and `np.repeat` hands every code its row's member
and column offset. The keys are int32 when n^2 < 2^31, which halves the width
of the one sort, and int64 otherwise. `_edges_from_keys` decodes sorted keys
by a floor division by the scalar n and one subtraction, in O(edges) memory;
every graph this module builds holds its edges column-major through it or,
in `induced_subgraph`, by relabelling the kept edges straight into place.
`Graph.from_edges` and `read_graph` canonicalize and validate edges through
one routine, `_canonical_graph`, which raises the caller's error type.
`Graph.adjacency` is built from sorted edge keys; the vote never needs it,
and the SDP solve only on the graphs that `sdp._operator` gives a CSR. It is
the one CSR this package builds, so scipy is imported there, at the first
build, and importing the package loads numpy and the standard library only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .errors import EmptyGraphError, GraphFormatError, ParameterError, as_int
from .rng import RngSeed, STREAM_SBM, STREAM_SUBSAMPLE, rng_for, seed_sequence

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

UNASSIGNED = 0


def log_rates(n: int, alpha: float, beta: float) -> tuple[float, float]:
    """The rates p = alpha log(n) / n and q = beta log(n) / n."""
    scale = math.log(n) / n
    return alpha * scale, beta * scale


@dataclass(frozen=True)
class SbmParams:
    """Parameters of G(n1, n2; p, q); p is the within-, q the cross-rate."""

    n1: int
    n2: int
    p: float
    q: float
    alpha: Optional[float] = None
    beta: Optional[float] = None
    balanced: bool = False

    def __post_init__(self):
        for name in ("n1", "n2"):  # stored as Python ints, so every record serializes
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.n1 < 1 or self.n2 < 1:
            raise ParameterError(f"both communities need a node, got sizes {self.n1}, {self.n2}")
        if not (0.0 <= self.q <= 1.0 and 0.0 <= self.p <= 1.0):
            raise ParameterError(f"probabilities outside [0, 1]: p={self.p}, q={self.q}")
        if self.p < self.q:
            raise ParameterError(f"need p >= q, got p={self.p} < q={self.q}")
        for name in ("p", "q", "alpha", "beta"):  # Python floats too, for the same reason
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
        if self.balanced and self.n1 != self.n2:
            raise ParameterError("balanced mode needs equal community sizes")

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @classmethod
    def from_rates(cls, n: int, alpha: float, beta: float) -> "SbmParams":
        """Balanced model with p = alpha*log(n)/n, q = beta*log(n)/n."""
        n = as_int(n, "n")
        if n < 2 or n % 2:
            raise ParameterError(f"balanced mode needs even n >= 2, got {n}")
        if not (alpha > beta >= 0.0):
            raise ParameterError(f"need alpha > beta >= 0, got alpha={alpha}, beta={beta}")
        alpha, beta = float(alpha), float(beta)  # a numpy float32 would round the rates
        p, q = log_rates(n, alpha, beta)
        return cls(n1=n // 2, n2=n // 2, p=p, q=q, alpha=alpha, beta=beta, balanced=True)

    @classmethod
    def explicit(cls, n1: int, n2: int, p: float, q: float) -> "SbmParams":
        return cls(n1=n1, n2=n2, p=p, q=q)


@dataclass(eq=False)
class Graph:
    """Simple undirected graph on nodes 0..n-1 with an optional planted truth.

    `edges` is an (m, 2) int64 array with u < v per row, sorted
    lexicographically; `truth` is a complete +-1 vector when present. The
    builders here (`from_edges`, `read_graph`, `sample_sbm`,
    `induced_subgraph`) emit column-major edges, so each endpoint column is
    contiguous; other layouts work too.
    """

    n: int
    edges: np.ndarray
    truth: Optional[np.ndarray] = None

    @classmethod
    def from_edges(cls, n: int, edges, truth=None) -> "Graph":
        """Canonical graph from (u, v) pairs in any order and orientation."""
        return _canonical_graph(n, edges, truth, ParameterError)

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @cached_property
    def adjacency(self) -> csr_matrix:
        """Symmetric float64 CSR adjacency (counts stay exact in float64), built
        from the sorted keys u*n+v of both orientations; canonical, and scipy
        narrows the index dtype as it does for a COO build. Built on first
        use: the SDP solve reads it only where `sdp._operator` picks a CSR
        and builds a dense adjacency from `edges` elsewhere, and the vote
        reads `edges`. The first build in a process imports `scipy.sparse`,
        a cost that a process building no CSR never pays."""
        from scipy.sparse import csr_matrix
        n, u, v = self.n, self.edges[:, 0], self.edges[:, 1]
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        # row r's keys are r*n + column; np.arange(0, n * n, n) fails at n=0
        cols = keys - np.repeat(np.arange(n) * n, deg)
        return csr_matrix((np.ones(keys.size), cols, indptr), shape=(n, n))


def _edges_from_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Column-major (m, 2) int64 edges (key // n, key % n) of nonnegative
    int32 or int64 keys: a floor division by the scalar n, then key - u * n
    (numpy vectorizes the division by a scalar, not `divmod`)."""
    edges = np.empty((keys.size, 2), dtype=np.int64, order="F")
    u = np.floor_divide(keys, n, out=edges[:, 0])
    np.subtract(keys, u * n, out=edges[:, 1])
    return edges


def _canonical_graph(n: int, edges, truth, error: type[Exception]) -> Graph:
    """Orient each edge u < v and sort; raise `error` on a negative n or one
    too large for int64 edge keys, endpoints of a non-integer dtype (numpy
    reads an integer past int64 as a float or an object), an out-of-range
    endpoint, a self-loop, a duplicate in either orientation, or a truth
    vector that is not a complete +-1 vector of length n. A non-integer n,
    which only `from_edges` can pass, raises ParameterError."""
    n = as_int(n, "node count")
    if n < 0:
        raise error(f"node count must be nonnegative, got n={n}")
    if n ** 2 > 2 ** 63:
        raise error(f"n={n} nodes is too many: edge keys u * n + v must fit in int64")
    e = np.asarray(edges)
    if e.size and not np.issubdtype(e.dtype, np.integer):
        raise error(f"edge endpoints must be integers, got dtype {e.dtype}")
    e = e.astype(np.int64, copy=False).reshape(-1, 2)  # uint64 past int64 wraps negative
    u, v = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    if e.size and (u.min() < 0 or v.max() >= n):
        raise error("edge endpoint out of range")
    if (u == v).any():
        raise error("self-loops are not allowed")
    keys = np.sort(u * n + v)
    if (keys[1:] == keys[:-1]).any():
        raise error("duplicate edges are not allowed")
    t = None
    if truth is not None:
        t = np.asarray(truth)  # checked as given: an int8 cast wraps 257 to 1
        if t.shape != (n,) or not is_complete(t):
            raise error("truth must be a complete +-1 vector of length n")
        t = t.astype(np.int8)
    return Graph(n=n, edges=_edges_from_keys(keys, n), truth=t)


def _bernoulli_codes(rng: np.random.Generator, n_pairs: int, prob: float) -> np.ndarray:
    """Sorted codes of range(n_pairs), each present independently with
    probability prob: geometric skips between successes (Batagelj and
    Brandes, Phys. Rev. E 71:036113, 2005), exact and O(kept codes). Each
    gap is floor(E / -log1p(-prob)) + 1 for one standard exponential E, which
    is Geometric(prob) on {1, 2, ...}; batch sizes do not change the draw."""
    if n_pairs == 0 or prob == 0.0:
        return np.empty(0, dtype=np.int64)
    if prob == 1.0:
        return np.arange(n_pairs, dtype=np.int64)
    rate = -math.log1p(-prob)
    # exact: a gap of n_pairs + 1 ends the block; keeps E / rate finite for tiny prob
    cap = (n_pairs + 1) * rate
    chunks = []
    last = -1
    while last < n_pairs:
        mean = (n_pairs - 1 - last) * prob
        e = rng.standard_exponential(size=int(mean + 4.0 * math.sqrt(mean)) + 2)
        np.minimum(e, cap, out=e)
        e /= rate
        codes = e.astype(np.int64)
        codes += 1
        codes[0] += last
        np.cumsum(codes, out=codes)
        last = int(codes[-1])
        # gaps are >= 1, so codes strictly increase
        chunks.append(codes[:np.searchsorted(codes, n_pairs)])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _block_keys(codes: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Edge keys u * n + v (u < v) of the sorted row-major codes of one block:
    the strict upper triangle of rows x rows when `cols is rows`, else the
    rows x cols grid. Row i of the triangle begins at code i(2s-i-1)/2 and
    its column is code - start + i + 1; row i of the grid begins at i*s2 and
    its column is code - start. Each edge takes its row's member and column
    offset by `np.repeat`, with no division; the keys have the members' dtype.
    On a triangle, sorted members and row < column give u < v directly."""
    s, i = rows.size, np.arange(rows.size, dtype=np.int64)
    triangle = rows is cols
    starts = i * (2 * s - i - 1) // 2 if triangle else i * cols.size
    first = np.searchsorted(codes, starts)  # each row's first code
    counts = np.empty_like(first)
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1:] = codes.size - first[-1:]  # slices: with s = 0 there is no last row
    u = np.repeat(rows, counts)
    v = cols[codes + np.repeat(i + 1 - starts if triangle else -starts, counts)]
    if not triangle:
        u, v = np.minimum(u, v), np.maximum(u, v)
    u *= n
    u += v
    return u


def sample_sbm(params: SbmParams, seed: RngSeed) -> Graph:
    """Draw a graph from the block model with a uniformly random partition.

    The community of size n1 is the first n1 entries of a random permutation
    and gets label +1. Each within-community pair receives an edge with
    probability p, each cross pair with probability q, independently. Each
    block is drawn as sorted row-major codes by geometric skips
    (`_bernoulli_codes`): a community of s nodes over the s(s-1)/2 pairs of
    its strict upper triangle, the cross block over its s1 x s2 grid.
    `_block_keys` turns codes into edge keys of the sorted member lists, so
    a within pair already has u < v.
    """
    rng = rng_for(seed, STREAM_SBM)
    n = params.n
    perm = rng.permutation(n)
    truth = np.full(n, -1, dtype=np.int8)
    truth[perm[:params.n1]] = 1
    # the largest key is below n^2: sort 32-bit keys when they fit
    key_dtype = np.int32 if n * n < 2 ** 31 else np.int64
    s1 = np.sort(perm[:params.n1]).astype(key_dtype)
    s2 = np.sort(perm[params.n1:]).astype(key_dtype)
    keys = []
    for rows, cols, prob in ((s1, s1, params.p), (s2, s2, params.p), (s1, s2, params.q)):
        s = rows.size
        n_pairs = s * (s - 1) // 2 if rows is cols else s * cols.size
        keys.append(_block_keys(_bernoulli_codes(rng, n_pairs, prob), rows, cols, n))
    keys = np.sort(np.concatenate(keys))
    return Graph(n=n, edges=_edges_from_keys(keys, n), truth=truth)


def subsample_nodes(n: int, gamma: float, seed: RngSeed) -> np.ndarray:
    """Keep each of the n nodes independently with probability gamma; returns
    the sorted int64 kept indices. gamma = 1 keeps every node without a draw:
    random() < 1 always holds, so the STREAM_SUBSAMPLE generator is not built."""
    if not (0.0 <= gamma <= 1.0):
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    if as_int(n, "n") < 0:
        raise ParameterError("n must be nonnegative")
    if gamma == 1.0:
        if not isinstance(seed, np.random.SeedSequence):
            seed_sequence(seed)  # a bad seed fails here too, as rng_for fails it
        return np.arange(n, dtype=np.int64)
    rng = rng_for(seed, STREAM_SUBSAMPLE)
    return np.flatnonzero(rng.random(n) < gamma).astype(np.int64)


def induced_subgraph(g: Graph, kept: Union[np.ndarray, Sequence[int]]):
    """Subgraph on the kept indices with contiguous relabeling.

    Returns (subgraph, index_map) where index_map[i] is the original index
    of subgraph node i; truth labels are restricted when present.
    """
    kept = np.unique(as_node_indices(kept, g.n))
    k = kept.size
    sub_truth = g.truth[kept] if g.truth is not None else None
    if k == g.n:  # every node kept: the relabeling is the identity
        sub_edges = np.array(g.edges, dtype=np.int64, order="F")
    else:
        keep = np.zeros(g.n, dtype=bool)
        keep[kept] = True
        u, v = g.edges[:, 0], g.edges[:, 1]
        inside = np.flatnonzero(keep[u] & keep[v])
        pos = np.empty(g.n, dtype=np.int64)
        pos[kept] = np.arange(k)
        # pos is increasing, so the relabelled edges keep the parent's sorted order
        sub_edges = np.empty((inside.size, 2), dtype=np.int64, order="F")
        np.take(pos, u[inside], out=sub_edges[:, 0])
        np.take(pos, v[inside], out=sub_edges[:, 1])
    return Graph(n=int(k), edges=sub_edges, truth=sub_truth), kept


def as_node_indices(kept, n: int) -> np.ndarray:
    """`kept` as an int64 array; ParameterError unless every entry is an
    integer in range(n). An empty sequence passes whatever its dtype."""
    kept = np.asarray(kept)
    if kept.size and not np.issubdtype(kept.dtype, np.integer):
        raise ParameterError("kept indices must be integers")
    kept = kept.astype(np.int64, copy=False)
    if kept.size and (kept.min() < 0 or kept.max() >= n):
        raise ParameterError("kept index out of range")
    return kept


def is_complete(labels: np.ndarray) -> bool:
    return bool((np.abs(np.asarray(labels)) == 1).all())


def partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when the complete label vectors agree up to a global sign flip.

    Any unassigned entry on either side makes the answer False.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ParameterError("label vectors differ in length")
    if not (is_complete(a) and is_complete(b)):
        return False
    return bool(np.array_equal(a, b) or np.array_equal(a, -b))


def write_graph(g: Graph, path) -> None:
    """Write the text format: 'n m', one 'u v' line per edge, optional labels."""
    text = f"{g.n} {g.m}\n" + ("%d %d\n" * g.m) % tuple(g.edges.ravel().tolist())
    if g.truth is not None:
        text += "labels " + " ".join(map(str, g.truth.tolist())) + "\n"
    Path(path).write_text(text)


def read_graph(path) -> Graph:
    """Parse the text format, rejecting malformed or duplicate entries.

    Edge lines may come in any order, but each must read 'u v' with u < v.
    """
    raw = Path(path).read_text().splitlines()
    lines = [ln for ln in raw if ln.strip()]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError("header must be two integers") from exc
    if m < 0:
        raise GraphFormatError("negative edge count in header")
    if len(lines) < 1 + m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = np.empty((0, 2), dtype=np.int64)
    if m:
        try:
            edges = np.loadtxt(lines[1:1 + m], dtype=np.int64, ndmin=2, comments=None)
        except (ValueError, OverflowError) as exc:
            raise GraphFormatError(
                f"edge lines must be integer pairs; in the edge block, {exc}") from exc
        if edges.shape[1] != 2:
            raise GraphFormatError("edge lines must read 'u v'")
        flipped = np.flatnonzero(edges[:, 0] > edges[:, 1])
        if flipped.size:  # number the file's lines, blank ones included
            line_no = [i for i, ln in enumerate(raw, 1) if ln.strip()][flipped[0] + 1]
            raise GraphFormatError(f"edge line {line_no}: endpoints must satisfy u < v")
    truth = None
    rest = lines[1 + m:]
    if rest:
        tokens = rest[0].split()
        if tokens[0] != "labels" or len(rest) > 1:
            raise GraphFormatError("unexpected trailing content")
        values = {"1": 1, "+1": 1, "-1": -1}  # other tokens become 0 and are rejected
        truth = [values.get(t, 0) for t in tokens[1:]]
    return _canonical_graph(n, edges, truth, GraphFormatError)


def require_nonempty(g: Graph) -> None:
    if g.n == 0:
        raise EmptyGraphError("operation needs at least one node")
