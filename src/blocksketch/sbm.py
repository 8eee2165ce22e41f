"""Two-community stochastic block model: types, sampling, and graph plumbing.

Labels use +1 / -1 for the two communities and 0 for "unassigned"; a label
vector is complete when it contains no zeros. Partitions are compared up to
a global sign flip. Probabilities use the natural log parametrization
p = alpha * log(n) / n, q = beta * log(n) / n in balanced mode.

`sample_sbm` has one exact sampler at every size: geometric skips between
successive edges of each block (Batagelj and Brandes, Phys. Rev. E
71:036113, 2005), O(edges) time and memory, each skip drawn by inversion.
A within-community block draws codes of its strict upper triangle only, the
cross block codes of its full grid; `_block_pairs` decodes either shape in
exact int64 arithmetic from the sorted codes and the code each row starts at.
Every graph this module builds holds its edges column-major (`_edges_from_keys`).
`Graph.from_edges` and `read_graph` canonicalize and validate edges through
one routine, `_canonical_graph`, which raises the caller's error type.
`Graph.adjacency` is built from sorted edge keys; the vote never needs it,
and the SDP solve only on graphs of more than 180 nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
from scipy.sparse import csr_matrix

from .errors import EmptyGraphError, GraphFormatError, ParameterError
from .rng import RngSeed, STREAM_SBM, STREAM_SUBSAMPLE, rng_for

UNASSIGNED = 0

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
        if self.n1 < 1 or self.n2 < 1:
            raise ParameterError(f"both communities need a node, got sizes {self.n1}, {self.n2}")
        if not (0.0 <= self.q <= 1.0 and 0.0 <= self.p <= 1.0):
            raise ParameterError(f"probabilities outside [0, 1]: p={self.p}, q={self.q}")
        if self.p < self.q:
            raise ParameterError(f"need p >= q, got p={self.p} < q={self.q}")
        if self.balanced and self.n1 != self.n2:
            raise ParameterError("balanced mode needs equal community sizes")

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @classmethod
    def from_rates(cls, n: int, alpha: float, beta: float) -> "SbmParams":
        """Balanced model with p = alpha*log(n)/n, q = beta*log(n)/n."""
        if n < 2 or n % 2:
            raise ParameterError(f"balanced mode needs even n >= 2, got {n}")
        if not (alpha > beta >= 0.0):
            raise ParameterError(f"need alpha > beta >= 0, got alpha={alpha}, beta={beta}")
        scale = math.log(n) / n
        return cls(n1=n // 2, n2=n // 2, p=alpha * scale, q=beta * scale,
                   alpha=alpha, beta=beta, balanced=True)

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
        use: the SDP solve reads it only above 180 nodes (`sdp._DENSE_DUAL_MAX`)
        and builds a dense adjacency from `edges` below, and the vote reads
        `edges`."""
        n, u, v = self.n, self.edges[:, 0], self.edges[:, 1]
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        # row r's keys are r*n + column; np.arange(0, n * n, n) fails at n=0
        cols = keys - np.repeat(np.arange(n) * n, deg)
        return csr_matrix((np.ones(keys.size), cols, indptr), shape=(n, n))


def _edges_from_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Column-major (m, 2) int64 edges (key // n, key % n) of int64 keys."""
    edges = np.empty((keys.size, 2), dtype=np.int64, order="F")
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    return edges


def _canonical_graph(n: int, edges, truth, error: type[Exception]) -> Graph:
    """Orient each edge u < v and sort; raise `error` on a negative n or one
    too large for int64 edge keys, an out-of-range endpoint, a self-loop, a
    duplicate in either orientation, or a truth vector that is not a
    complete +-1 vector of length n."""
    if n < 0:
        raise error(f"node count must be nonnegative, got n={n}")
    if int(n) ** 2 > 2 ** 63:
        raise error(f"n={n} nodes is too many: edge keys u * n + v must fit in int64")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
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


@dataclass(eq=False)
class SampleMask:
    """Result of independent node subsampling: sorted kept indices."""

    kept: np.ndarray

    @property
    def size(self) -> int:
        return int(self.kept.size)


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
        gaps = (np.minimum(e, cap) / rate).astype(np.int64) + 1
        codes = last + np.cumsum(gaps)
        last = int(codes[-1])
        chunks.append(codes[codes < n_pairs])
    return np.concatenate(chunks)


def _block_pairs(codes: np.ndarray, starts: np.ndarray, triangle: bool):
    """(row, column) of each sorted code of a block whose row i begins at
    code starts[i]: the s1 x s2 grid has starts i*s2 and columns code -
    starts[i]; the strict upper triangle of s x s has starts i(2s-i-1)/2 and
    columns code - starts[i] + i + 1. Exact int64, no division."""
    counts = np.diff(np.searchsorted(codes, starts), append=codes.size)
    row = np.repeat(np.arange(starts.size), counts)
    col = codes - starts[row]
    if triangle:
        col += row + 1
    return row, col


def sample_sbm(params: SbmParams, seed: RngSeed) -> Graph:
    """Draw a graph from the block model with a uniformly random partition.

    The community of size n1 is the first n1 entries of a random permutation
    and gets label +1. Each within-community pair receives an edge with
    probability p, each cross pair with probability q, independently. Each
    block is drawn as sorted row-major codes by geometric skips
    (`_bernoulli_codes`): a community of s nodes over the s(s-1)/2 pairs of
    its strict upper triangle, the cross block over its s1 x s2 grid.
    `_block_pairs` turns codes into (row, column) positions in the sorted
    member lists, so a within pair already has u < v.
    """
    rng = rng_for(seed, STREAM_SBM)
    n = params.n
    perm = rng.permutation(n)
    truth = np.full(n, -1, dtype=np.int8)
    truth[perm[:params.n1]] = 1
    s1 = np.sort(perm[:params.n1]).astype(np.int64)
    s2 = np.sort(perm[params.n1:]).astype(np.int64)
    keys = []
    for rows, cols, prob in ((s1, s1, params.p), (s2, s2, params.p), (s1, s2, params.q)):
        s, i, triangle = rows.size, np.arange(rows.size, dtype=np.int64), rows is cols
        starts = i * (2 * s - i - 1) // 2 if triangle else i * cols.size
        n_pairs = s * (s - 1) // 2 if triangle else s * cols.size
        row, col = _block_pairs(_bernoulli_codes(rng, n_pairs, prob), starts, triangle)
        u, v = rows[row], cols[col]
        keys.append(np.minimum(u, v) * n + np.maximum(u, v))
    keys = np.sort(np.concatenate(keys))
    return Graph(n=n, edges=_edges_from_keys(keys, n), truth=truth)


def subsample_nodes(n: int, gamma: float, seed: RngSeed) -> SampleMask:
    """Keep each of the n nodes independently with probability gamma."""
    if not (0.0 <= gamma <= 1.0):
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    if n < 0:
        raise ParameterError("n must be nonnegative")
    rng = rng_for(seed, STREAM_SUBSAMPLE)
    kept = np.flatnonzero(rng.random(n) < gamma).astype(np.int64)
    return SampleMask(kept=kept)


def induced_subgraph(g: Graph, mask: Union[SampleMask, np.ndarray, Sequence[int]]):
    """Subgraph on the kept nodes with contiguous relabeling.

    Returns (subgraph, index_map) where index_map[i] is the original index
    of subgraph node i; truth labels are restricted when present.
    """
    kept = mask.kept if isinstance(mask, SampleMask) else np.asarray(mask, dtype=np.int64)
    kept = np.unique(kept)
    if kept.size and (kept[0] < 0 or kept[-1] >= g.n):
        raise ParameterError("kept index out of range")
    k = kept.size
    sub_truth = g.truth[kept] if g.truth is not None else None
    if k == g.n:  # every node kept: the relabeling is the identity
        sub_edges = np.array(g.edges, dtype=np.int64, order="F")
    else:
        pos = np.full(g.n, -1, dtype=np.int64)
        pos[kept] = np.arange(k)
        u, v = pos[g.edges[:, 0]], pos[g.edges[:, 1]]
        inside = (u >= 0) & (v >= 0)
        # pos is increasing, so the relabelled keys keep the parent's sorted order
        sub_edges = _edges_from_keys(u[inside] * k + v[inside], k)
    return Graph(n=int(k), edges=sub_edges, truth=sub_truth), kept


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
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
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
        if flipped.size:
            raise GraphFormatError(f"edge line {flipped[0] + 2}: endpoints must satisfy u < v")
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
