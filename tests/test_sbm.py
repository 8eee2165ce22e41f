"""Generation, subsampling, partition utilities, and graph file I/O."""
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import blocksketch as bs
from blocksketch import sbm as sbm_mod
from blocksketch.errors import GraphFormatError, ParameterError
from blocksketch.rng import STREAM_SUBSAMPLE, rng_for


def two_triangles(truth=(1, 1, 1, -1, -1, -1)):
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    return bs.Graph.from_edges(6, edges, truth=np.array(truth, dtype=np.int8))


class TestSbmParams:
    def test_from_rates_derivation(self):
        params = bs.SbmParams.from_rates(200, 9.0, 1.0)
        scale = math.log(200) / 200
        assert params.p == 9.0 * scale
        assert params.q == scale
        assert params.n1 == params.n2 == 100
        assert params.balanced

    def test_from_rates_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            bs.SbmParams.from_rates(201, 9.0, 1.0)   # odd n
        with pytest.raises(ParameterError):
            bs.SbmParams.from_rates(200, 1.0, 2.0)   # alpha <= beta
        with pytest.raises(ParameterError):
            bs.SbmParams.from_rates(60, 30.0, 2.0)   # derived p > 1
        for n in (400.0, 12.9, True):  # not an integer, though 400.0 is integral
            with pytest.raises(ParameterError, match="integer"):
                bs.SbmParams.from_rates(n, 30.0, 2.0)
        params = bs.SbmParams.from_rates(np.int64(400), 30.0, 2.0)
        assert params == bs.SbmParams.from_rates(400, 30.0, 2.0)
        assert type(params.n1) is int

    def test_explicit_mode(self):
        params = bs.SbmParams.explicit(3, 5, 0.8, 0.2)
        assert params.n == 8
        assert not params.balanced
        with pytest.raises(ParameterError):
            bs.SbmParams.explicit(0, 5, 0.8, 0.2)
        with pytest.raises(ParameterError):
            bs.SbmParams.explicit(3, 3, 0.2, 0.8)    # p < q
        with pytest.raises(ParameterError):
            bs.SbmParams.explicit(3, 3, 1.2, 0.1)
        for n1, n2 in ((3.0, 3), (3, 2.5), (True, 3)):
            with pytest.raises(ParameterError, match="integer"):
                bs.SbmParams.explicit(n1, n2, 0.5, 0.1)
        assert bs.SbmParams.explicit(np.int64(3), 5, 0.8, 0.2).n == 8
        with pytest.raises(ParameterError):  # balanced needs equal sizes
            bs.SbmParams(3, 4, 0.5, 0.1, balanced=True)

    def test_explicit_allows_p_equal_q(self):
        # structureless edge case used by the K4 fixture
        params = bs.SbmParams.explicit(2, 2, 1.0, 1.0)
        assert params.p == params.q == 1.0


class TestSampleSbm:
    def test_disjoint_triangles(self):
        params = bs.SbmParams.explicit(3, 3, 1.0, 0.0)
        for seed in range(5):
            g = bs.sample_sbm(params, seed)
            assert g.n == 6 and g.m == 6
            ncomp, comp = connected_components(g.adjacency, directed=False)
            assert ncomp == 2
            # truth separates the two cliques
            comp_sign = np.where(comp == comp[0], 1, -1).astype(np.int8)
            assert bs.partitions_equal(comp_sign, g.truth)

    def test_complete_graph(self):
        g = bs.sample_sbm(bs.SbmParams.explicit(2, 2, 1.0, 1.0), 9)
        assert g.n == 4 and g.m == 6

    def test_truth_community_sizes(self):
        g = bs.sample_sbm(bs.SbmParams.explicit(3, 5, 0.9, 0.1), 4)
        assert int((g.truth == 1).sum()) == 3
        assert int((g.truth == -1).sum()) == 5

    def test_negative_seed_rejected(self):
        params = bs.SbmParams.from_rates(100, 5.0, 1.0)
        for seed in (-1, 1.5, 2.0, True):  # negative or not an integer
            with pytest.raises(ParameterError):
                bs.sample_sbm(params, seed)
        # numpy integers pass and draw what the equal Python int draws
        assert np.array_equal(bs.sample_sbm(params, np.int64(4)).edges,
                              bs.sample_sbm(params, 4).edges)
        assert bs.seed_sequence(np.uint8(4), 1).entropy == 4

    def test_determinism(self):
        params = bs.SbmParams.from_rates(100, 9.0, 1.0)
        a = bs.sample_sbm(params, 123)
        b = bs.sample_sbm(params, 123)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.truth, b.truth)
        c = bs.sample_sbm(params, 124)
        assert not (np.array_equal(a.edges, c.edges) and np.array_equal(a.truth, c.truth))

    def test_mean_edge_count(self):
        # analytic expectation: 2 C(100,2) p + 100^2 q at n=200, alpha=9, beta=1
        params = bs.SbmParams.from_rates(200, 9.0, 1.0)
        p, q = params.p, params.q
        expect = 2 * math.comb(100, 2) * p + 100 * 100 * q
        var = (2 * math.comb(100, 2) * p * (1 - p) + 100 * 100 * q * (1 - q))
        counts = [bs.sample_sbm(params, s).m for s in range(1000)]
        se_mean = math.sqrt(var / 1000)
        assert abs(np.mean(counts) - expect) <= 3 * se_mean

    def test_per_pair_frequencies(self):
        # fixed 20-node instance, 1000 seeds, 4 standard errors per pair
        params = bs.SbmParams.explicit(10, 10, 0.7, 0.2)
        trials = 1000
        freq = np.zeros((20, 20))
        truth0 = None
        for s in range(trials):
            g = bs.sample_sbm(params, s)
            if truth0 is None:
                truth0 = g.truth
            # hold the planted partition fixed by remapping nodes per draw
            order = np.argsort(-g.truth, kind="stable")
            inv = np.empty(20, dtype=np.int64)
            inv[order] = np.arange(20)
            e = inv[g.edges]
            e.sort(axis=1)
            freq[e[:, 0], e[:, 1]] += 1
        freq /= trials
        within = np.zeros((20, 20), dtype=bool)
        within[:10, :10] = True
        within[10:, 10:] = True
        iu = np.triu_indices(20, k=1)
        for prob, sel in ((0.7, within[iu]), (0.2, ~within[iu])):
            se = math.sqrt(prob * (1 - prob) / trials)
            dev = np.abs(freq[iu][sel] - prob)
            assert dev.max() <= 4 * se

    def test_first_moment_and_canonical_edges(self):
        params = bs.SbmParams.explicit(10, 10, 0.7, 0.2)
        g = bs.sample_sbm(params, 0)
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        assert len({tuple(e) for e in g.edges.tolist()}) == g.m
        counts = [bs.sample_sbm(params, s).m for s in range(400)]
        expect = 2 * math.comb(10, 2) * 0.7 + 100 * 0.2
        var = 2 * math.comb(10, 2) * 0.7 * 0.3 + 100 * 0.2 * 0.8
        assert abs(np.mean(counts) - expect) <= 4 * math.sqrt(var / 400)

    def test_large_draw_is_canonical(self):
        # 3000 nodes: about 4.5M candidate pairs
        g = bs.sample_sbm(bs.SbmParams.from_rates(3000, 2.0, 0.5), 5)
        u, v = g.edges[:, 0], g.edges[:, 1]
        assert g.m > 0 and np.all(u < v) and v.max() < g.n
        assert np.all(np.lexsort((v, u)) == np.arange(g.m))
        assert np.unique(u * g.n + v).size == g.m

    @pytest.mark.parametrize("n1, n2, p, q", [(1, 6, 0.9, 0.5), (6, 1, 1.0, 1.0),
                                              (1, 1, 1.0, 1.0), (3, 9, 0.8, 0.3)])
    def test_unequal_and_singleton_communities_are_canonical(self, n1, n2, p, q):
        for seed in range(20):
            g = bs.sample_sbm(bs.SbmParams.explicit(n1, n2, p, q), seed)
            u, v = g.edges[:, 0], g.edges[:, 1]
            assert np.all(u < v) and (g.m == 0 or v.max() < g.n)
            assert np.all(np.diff(u * g.n + v) > 0)  # sorted, no duplicates
            if p == q == 1.0:
                assert g.m == math.comb(g.n, 2)

    @pytest.mark.parametrize("half, width", [(23170, np.int32), (23171, np.int64)])
    def test_key_width_boundary(self, half, width, monkeypatch):
        # n^2 just below 2^31 (32-bit sort keys) and just above it (64-bit).
        # Past 2^31 only the few pairs near (n-2, n-1) overflow 32 bits, which a
        # sparse draw almost never holds, so the width itself is checked too.
        n = 2 * half
        widths, block_keys = [], sbm_mod._block_keys

        def recording(*args):
            keys = block_keys(*args)
            widths.append(keys.dtype)
            return keys

        monkeypatch.setattr(sbm_mod, "_block_keys", recording)
        g = bs.sample_sbm(bs.SbmParams.explicit(half, half, 2.2e-6, 1.8e-6), 7)
        assert widths == [np.dtype(width)] * 3
        u, v = g.edges[:, 0], g.edges[:, 1]
        assert 1500 < g.m < 3000 and g.edges.dtype == np.int64
        assert np.all(u >= 0) and np.all(u < v) and v.max() < n
        assert np.all(np.diff(u * n + v) > 0)  # strictly sorted int64 keys
        assert np.array_equal(bs.Graph.from_edges(n, g.edges).edges, g.edges)

    def test_balanced_partition_varies_with_seed(self):
        params = bs.SbmParams.from_rates(20, 4.0, 0.5)
        truths = {tuple(bs.sample_sbm(params, s).truth.tolist()) for s in range(30)}
        assert len(truths) > 1


class TestGoldenDraws:
    """Seeded graphs pinned to the bit: SHA-256 of `edges.tobytes()` (row
    order, whatever the layout) followed by `truth.tobytes()`. A numpy
    upgrade that changes the `Generator` streams can legitimately move these
    digests; any other change that moves one changed the sampler's output."""

    DRAWS = {
        "rates_400_seed0": (bs.SbmParams.from_rates(400, 30, 2), 0, 19186,
                            "43c00e89d8e066770f92858b41158a6fc42fc771f220833e5d95b73fcc40c6e5"),
        "rates_400_seed1": (bs.SbmParams.from_rates(400, 30, 2), 1, 19066,
                            "664108532343743106421d45e72866a86a1a79ef87bd136f67a27ffb48103c64"),
        "rates_300": (bs.SbmParams.from_rates(300, 3, 1), 2, 1705,
                      "200fac8394d72da603d50312575c4dec2d328c1090ce2e6eae8df5724045c03b"),
        "explicit_3_9": (bs.SbmParams.explicit(3, 9, 0.8, 0.3), 3, 41,
                         "8ef82132af34c378601dc6346f4a87a9877ee74128bb82aa03883f4729d301b9"),
        "explicit_1_1": (bs.SbmParams.explicit(1, 1, 1.0, 1.0), 4, 1,
                         "557368a46ebb912841412b47e0896a947f2643f78f5bcaf7605ff6f3a72f8f4e"),
        # n^2 > 2^31: the route with int64 sort keys
        "explicit_int64_keys": (bs.SbmParams.explicit(23200, 23200, 1e-7, 1e-8), 5, 71,
                                "82417e385ea79d0948073574b8160479a86ca631b2ef572750b1ddc6b3fa7b17"),
    }
    INDUCED = "beb46ac777baf200ba1bad9cd7655998b80f445e3c421c4c19d721ab14f0d1cf"

    @staticmethod
    def digest(g):
        return hashlib.sha256(g.edges.tobytes() + g.truth.tobytes()).hexdigest()

    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_sample_sbm(self, name):
        params, seed, m, want = self.DRAWS[name]
        g = bs.sample_sbm(params, seed)
        assert g.m == m and g.edges.flags.f_contiguous and g.edges.dtype == np.int64
        assert self.digest(g) == want

    def test_induced_subgraph_and_file_roundtrip(self, tmp_path):
        params, seed, _, want = self.DRAWS["rates_400_seed0"]
        g = bs.sample_sbm(params, seed)
        kept = np.random.default_rng(9).permutation(400)[:120]  # unsorted
        sub, _ = bs.induced_subgraph(g, kept)
        assert sub.m == 1667 and self.digest(sub) == self.INDUCED
        bs.write_graph(g, tmp_path / "g.txt")
        assert self.digest(bs.read_graph(tmp_path / "g.txt")) == want


class CountingRng:
    """Generator stand-in that fails past `limit` standard_exponential calls
    and, with `one_gap`, hands out a single draw per call whatever size is
    asked for."""

    def __init__(self, seed, limit=10**6, one_gap=False):
        self.rng, self.calls, self.limit, self.one_gap = \
            np.random.default_rng(seed), 0, limit, one_gap

    def standard_exponential(self, size):
        self.calls += 1
        assert self.calls <= self.limit, "sampler did not terminate"
        return self.rng.standard_exponential(size=1 if self.one_gap else size)


class TestBernoulliCodes:
    def test_probability_extremes(self):
        rng = np.random.default_rng(0)
        assert sbm_mod._bernoulli_codes(rng, 50, 0.0).size == 0
        assert sbm_mod._bernoulli_codes(rng, 50, 1.0).tolist() == list(range(50))
        assert sbm_mod._bernoulli_codes(rng, 0, 0.5).size == 0

    def test_tiny_probability_terminates(self):
        # E / -log1p(-5e-324) overflows to inf; unclipped, the int cast and cumsum overflow
        for n_pairs in (1, 50, 2 ** 40):
            rng = CountingRng(1, limit=5)
            assert sbm_mod._bernoulli_codes(rng, n_pairs, 5e-324).size == 0

    def test_batch_boundaries_do_not_change_the_draw(self):
        for prob in (0.05, 0.3, 0.9):
            for seed in range(10):
                batched = sbm_mod._bernoulli_codes(np.random.default_rng(seed), 200, prob)
                one_by_one = sbm_mod._bernoulli_codes(CountingRng(seed, one_gap=True), 200, prob)
                assert np.array_equal(batched, one_by_one)

    def test_per_code_frequencies(self):
        trials = 2000
        for prob in (0.3, 0.45, 0.9):  # 0.45 is the within-block rate at n=400
            freq = np.zeros(40)
            for s in range(trials):
                codes = sbm_mod._bernoulli_codes(np.random.default_rng(s), 40, prob)
                assert np.all(np.diff(codes) > 0)
                freq[codes] += 1
            se = math.sqrt(prob * (1 - prob) / trials)
            assert np.abs(freq / trials - prob).max() <= 4 * se


class TestBlockPairs:
    """`_block_keys` decodes a block's sorted row-major codes into edge keys."""

    @staticmethod
    def decode(keys, n):
        return np.divmod(keys.astype(np.int64), n)

    def test_triangle_matches_triu_indices(self):
        for s in range(64):
            every = np.ones(s * (s - 1) // 2, dtype=bool)
            some = np.random.default_rng(s).random(every.size) < 0.3
            iu = np.triu_indices(s, 1)
            # the identity members, and a sorted subset of 0..3s+1, in either key width
            n = 3 * s + 2
            spread = np.sort(np.random.default_rng(100 + s).choice(n, size=s, replace=False))
            for members in (np.arange(s, dtype=np.int32), spread.astype(np.int32),
                            np.arange(s, dtype=np.int64), spread.astype(np.int64)):
                for pick in (every, some, ~every):  # all, a sorted subset, none
                    codes = np.flatnonzero(pick).astype(np.int64)
                    keys = sbm_mod._block_keys(codes, members, members, n)
                    assert keys.dtype == members.dtype
                    u, v = self.decode(keys, n)
                    assert np.array_equal(u, members[iu[0][pick]])
                    assert np.array_equal(v, members[iu[1][pick]])

    @pytest.mark.parametrize("s1, s2", [(1, 1), (1, 7), (7, 1), (5, 9), (13, 4)])
    def test_grid_matches_divmod(self, s1, s2):
        n = s1 + s2
        every = np.arange(s1 * s2, dtype=np.int64)
        some = every[np.random.default_rng(s1 * s2).random(every.size) < 0.4]
        for codes in (np.empty(0, dtype=np.int64), every, some):
            row, col = np.divmod(codes, s2)
            # rows below the columns, then above them: the key orients each pair
            for shift_rows, shift_cols in ((0, s1), (s2, 0)):
                for dtype in (np.int32, np.int64):
                    rows = (np.arange(s1) + shift_rows).astype(dtype)
                    cols = (np.arange(s2) + shift_cols).astype(dtype)
                    keys = sbm_mod._block_keys(codes, rows, cols, n)
                    assert keys.dtype == dtype
                    u, v = self.decode(keys, n)
                    assert np.array_equal(u, np.minimum(rows[row], cols[col]))
                    assert np.array_equal(v, np.maximum(rows[row], cols[col]))


class TestEdgesFromKeys:
    # the largest n whose edge keys u * n + v fit in int64
    BIG = 3_037_000_499

    @pytest.mark.parametrize("n, dtype", [(1, np.int32), (7, np.int32), (46340, np.int32),
                                          (46342, np.int64), (BIG, np.int64)])
    def test_matches_divmod(self, n, dtype):
        rng = np.random.default_rng(n % 1000)
        top = n * n  # keys run over 0..n^2 - 1
        ends = [k for k in (0, 1, n - 1, n, top - n - 1, top - n, top - 2, top - 1) if 0 <= k < top]
        keys = np.unique(np.concatenate([
            np.array(ends, dtype=np.int64),
            rng.integers(0, top, size=200, dtype=np.int64)])).astype(dtype)
        assert keys.max() == top - 1
        edges = sbm_mod._edges_from_keys(keys, n)
        want = np.divmod(keys.astype(np.int64), n)
        assert edges.dtype == np.int64 and edges.flags.f_contiguous
        assert np.array_equal(edges[:, 0], want[0]) and np.array_equal(edges[:, 1], want[1])

    def test_empty(self):
        for n in (0, 5):
            edges = sbm_mod._edges_from_keys(np.empty(0, dtype=np.int64), n)
            assert edges.shape == (0, 2) and edges.dtype == np.int64


class TestEdgeLayout:
    """Builders emit column-major edges with the canonical values and order."""

    @staticmethod
    def assert_canonical_fortran(g, want):
        assert g.edges.flags.f_contiguous and g.edges.dtype == np.int64
        assert g.edges.shape == (len(want), 2)
        assert g.edges.tolist() == [list(e) for e in want]

    def test_sample_sbm(self):
        g = bs.sample_sbm(bs.SbmParams.from_rates(60, 9.0, 1.0), 3)
        order = np.lexsort((g.edges[:, 1], g.edges[:, 0]))
        self.assert_canonical_fortran(g, g.edges[order].tolist())

    def test_from_edges_and_read_graph(self, tmp_path):
        given = [(4, 1), (0, 3), (2, 0), (3, 4)]
        want = [(0, 2), (0, 3), (1, 4), (3, 4)]
        g = bs.Graph.from_edges(5, given)
        self.assert_canonical_fortran(g, want)
        path = tmp_path / "g.txt"
        path.write_text("5 4\n3 4\n1 4\n0 3\n0 2\n")
        self.assert_canonical_fortran(bs.read_graph(path), want)
        bs.write_graph(g, path)  # ravel() still writes row by row
        assert path.read_bytes() == b"5 4\n0 2\n0 3\n1 4\n3 4\n"
        self.assert_canonical_fortran(bs.Graph.from_edges(0, []), [])

    def test_induced_subgraph(self):
        g = bs.sample_sbm(bs.SbmParams.from_rates(80, 9.0, 1.0), 5)
        for gamma in (0.0, 0.3, 1.0):
            kept = bs.subsample_nodes(g.n, gamma, 7)
            sub, _ = bs.induced_subgraph(g, kept)
            # the relabelling written out edge by edge
            pos = {int(w): i for i, w in enumerate(kept)}
            want = [(pos[u], pos[v]) for u, v in g.edges.tolist() if u in pos and v in pos]
            self.assert_canonical_fortran(sub, want)

    def test_adjacency_of_either_layout(self):
        g = bs.sample_sbm(bs.SbmParams.from_rates(60, 9.0, 1.0), 8)
        c_order = bs.Graph(n=g.n, edges=np.ascontiguousarray(g.edges))
        a, b = g.adjacency, c_order.adjacency
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestSubsample:
    def test_gamma_endpoints(self):
        assert bs.subsample_nodes(10, 1.0, 0).tolist() == list(range(10))
        assert bs.subsample_nodes(10, 0.0, 0).tolist() == []
        # gamma = 1 draws nothing and keeps what the draw kept
        for n, seed in itertools.product((0, 1, 2, 400),
                                         (0, 7, 2**40, bs.seed_sequence(5, 0, 0, 0, 4, 1))):
            drawn = np.flatnonzero(rng_for(seed, STREAM_SUBSAMPLE).random(n) < 1.0)
            kept = bs.subsample_nodes(n, 1.0, seed)
            assert kept.dtype == np.int64 and np.array_equal(kept, drawn)

    def test_gamma_out_of_range(self):
        with pytest.raises(ParameterError):
            bs.subsample_nodes(10, -0.1, 0)
        with pytest.raises(ParameterError):
            bs.subsample_nodes(10, 1.1, 0)
        for n in (-1, 2.5, True):  # a negative n, or not an integer
            with pytest.raises(ParameterError):
                bs.subsample_nodes(n, 0.5, 0)
        for gamma in (0.5, 1.0):  # a bad seed fails also where no draw is made
            with pytest.raises(ParameterError):
                bs.subsample_nodes(10, gamma, -1)

    def test_mean_size(self):
        sizes = [bs.subsample_nodes(1000, 0.3, s).size for s in range(1000)]
        se_mean = math.sqrt(1000 * 0.3 * 0.7) / math.sqrt(1000)
        assert abs(np.mean(sizes) - 300) <= 3 * se_mean

    def test_deterministic_and_sorted(self):
        a = bs.subsample_nodes(50, 0.4, 7)
        b = bs.subsample_nodes(50, 0.4, 7)
        assert type(a) is np.ndarray and a.dtype == np.int64 and a.ndim == 1
        assert np.array_equal(a, b)
        assert a.size and np.all(np.diff(a) > 0)  # sorted and unique


class TestInducedSubgraph:
    def test_full_mask_identity(self):
        g = two_triangles()
        sub, idx = bs.induced_subgraph(g, np.arange(6))
        assert np.array_equal(sub.edges, g.edges)
        assert idx.tolist() == list(range(6))
        assert np.array_equal(sub.truth, g.truth)

    @pytest.mark.parametrize("make", [
        lambda: bs.sample_sbm(bs.SbmParams.from_rates(40, 9.0, 1.0), 2),
        lambda: two_triangles(),
        lambda: bs.Graph.from_edges(3, []),
        # hand-built, not canonical: C order, unsorted, flipped rows, int32
        lambda: bs.Graph(n=5, edges=np.array([[3, 1], [0, 4], [2, 3]], dtype=np.int32)),
        lambda: bs.Graph(n=4, edges=np.array([[2, 3], [0, 1]]), truth=np.int8([1, -1, -1, 1])),
    ])
    def test_full_mask_matches_the_general_path(self, make):
        # the general path on a copy with one extra isolated node, which the
        # mask drops, relabels by the identity too
        g = make()
        truth = None if g.truth is None else np.append(g.truth, np.int8(1))
        padded = bs.Graph(n=g.n + 1, edges=g.edges, truth=truth)
        want, _ = bs.induced_subgraph(padded, np.arange(g.n))
        sub, idx = bs.induced_subgraph(g, np.arange(g.n))
        assert sub.n == want.n == g.n and idx.tolist() == list(range(g.n))
        assert sub.edges.dtype == want.edges.dtype == np.int64
        assert sub.edges.flags.f_contiguous and want.edges.flags.f_contiguous
        assert np.array_equal(sub.edges, want.edges)
        assert (sub.truth is None) == (want.truth is None) == (g.truth is None)
        if g.truth is not None:
            assert np.array_equal(sub.truth, want.truth)
        # a copy: writing to the subgraph leaves the parent graph alone
        assert not np.shares_memory(sub.edges, g.edges)
        assert g.truth is None or not np.shares_memory(sub.truth, g.truth)

    def test_empty_mask(self):
        g = two_triangles()
        for kept in (np.array([], dtype=np.int64), []):  # [] is float64 to numpy
            sub, idx = bs.induced_subgraph(g, kept)
            assert sub.n == 0 and sub.m == 0 and idx.size == 0

    def test_hand_enumerated_case(self):
        g = two_triangles()
        sub, idx = bs.induced_subgraph(g, np.array([0, 1, 3]))
        assert sub.n == 3
        assert sub.edges.tolist() == [[0, 1]]
        assert idx.tolist() == [0, 1, 3]
        assert sub.truth.tolist() == [1, 1, -1]

    def test_out_of_range_mask(self):
        g = two_triangles()
        with pytest.raises(ParameterError, match="out of range"):
            bs.induced_subgraph(g, np.array([0, 6]))
        # indices that are not integers are rejected, not truncated to 0 and 1
        for kept in ([0.5, 1.7], np.array([0.0, 1.0]), [True, False]):
            with pytest.raises(ParameterError, match="integers"):
                bs.induced_subgraph(g, kept)

    def test_edges_map_back(self):
        params = bs.SbmParams.explicit(8, 8, 0.6, 0.2)
        g = bs.sample_sbm(params, 11)
        sample = bs.subsample_nodes(g.n, 0.5, 3)
        sub, idx = bs.induced_subgraph(g, sample)
        kept = set(sample.tolist())
        edge_set = set(map(tuple, g.edges.tolist()))
        for u, v in sub.edges.tolist():
            assert (idx[u], idx[v]) in edge_set
        inside = sum(1 for u, v in g.edges.tolist() if u in kept and v in kept)
        assert sub.m == inside


    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 60), data=st.data())
    def test_matches_set_reference(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=300)) \
            if pairs else []
        truth = None
        if data.draw(st.booleans()):
            truth = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=n,
                                                max_size=n)), dtype=np.int8)
        g = bs.Graph.from_edges(n, chosen, truth=truth)
        nodes = st.integers(0, n - 1) if n else st.nothing()
        # unsorted and with duplicates; also the empty and the full mask
        kept = data.draw(st.one_of(st.lists(nodes, max_size=2 * n), st.just([]),
                                   st.permutations(range(n))))
        sub, idx = bs.induced_subgraph(g, np.array(kept, dtype=np.int64))
        want_kept = sorted(set(kept))
        assert idx.dtype == np.int64 and idx.tolist() == want_kept
        pos = {w: i for i, w in enumerate(want_kept)}
        want = sorted((pos[u], pos[v]) for u, v in chosen if u in pos and v in pos)
        assert sub.n == len(want_kept)
        assert sub.edges.dtype == np.int64 and sub.edges.flags.f_contiguous
        assert sub.edges.shape == (len(want), 2)
        assert [tuple(e) for e in sub.edges.tolist()] == want
        if truth is None:
            assert sub.truth is None
        else:
            assert sub.truth.tolist() == [int(truth[w]) for w in want_kept]


class TestPartitionsEqual:
    def test_global_flip(self):
        assert bs.partitions_equal([1, 1, -1, -1], [-1, -1, 1, 1])

    def test_different_partition(self):
        assert not bs.partitions_equal([1, 1, -1, -1], [1, -1, 1, -1])

    def test_incomplete_is_false(self):
        assert not bs.partitions_equal([1, 1, -1, 0], [1, 1, -1, -1])

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            bs.partitions_equal([1, -1], [1, -1, 1])


class TestCompleteness:
    """One +-1 test behind `is_complete`, `labeling_objective` and the truth
    check of `Graph.from_edges`, for every label dtype."""

    def test_rejects_non_unit_entries_for_every_dtype(self):
        g = bs.Graph.from_edges(3, [(0, 1)])
        for dtype in (np.int8, np.int64, np.float64):
            good = np.array([1, -1, 1], dtype=dtype)
            assert bs.is_complete(good)
            assert bs.labeling_objective(g, good) == -2.0
            assert bs.Graph.from_edges(3, [], truth=good).truth.tolist() == [1, -1, 1]
            # int8 -128 is its own absolute value; an int8 cast would wrap
            # 257 to 1 and truncate 1.5 to 1, and cannot hold 300 or nan
            bad_values = [0, 2, -128] + ([257, 300] if dtype is not np.int8 else []) \
                + ([1.5, np.nan] if dtype is np.float64 else [])
            for bad in bad_values:
                labels = np.array([1, bad, -1], dtype=dtype)
                assert not bs.is_complete(labels)
                with pytest.raises(ParameterError):
                    bs.labeling_objective(g, labels)
                for truth in (labels, labels.tolist()):
                    with pytest.raises(ParameterError):
                        bs.Graph.from_edges(3, [], truth=truth)


class TestEdgeCountBetween:
    """Edges between a node and a node set, read off the adjacency row."""

    def test_complete_graph(self):
        g = bs.sample_sbm(bs.SbmParams.explicit(2, 2, 1.0, 1.0), 0)
        assert g.adjacency[0, [1, 2, 3]].sum() == 3

    def test_empty_graph(self):
        g = bs.Graph.from_edges(4, [])
        assert g.adjacency[0, [1, 2, 3]].sum() == 0

    def test_hand_case(self):
        g = two_triangles()
        assert g.adjacency[0, [1, 2, 3, 4]].sum() == 2

    def test_self_in_set_not_counted(self):
        g = two_triangles()
        assert g.adjacency[0, [0, 1, 2]].sum() == 2


class TestGraphType:
    def test_canonical_edges(self):
        g = bs.Graph.from_edges(4, [(2, 1), (0, 3)])
        assert g.edges.tolist() == [[0, 3], [1, 2]]
        assert g.m == 2
        # the largest n whose edge keys u * n + v fit in int64, and one more
        big = 3_037_000_499
        g = bs.Graph.from_edges(big, [(big - 1, big - 2), (1, 2)])
        assert g.edges.tolist() == [[1, 2], [big - 2, big - 1]]
        with pytest.raises(ParameterError):
            bs.Graph.from_edges(big + 1, [(big, big - 1)])

    def test_rejects_reversed_duplicate(self):
        with pytest.raises(ParameterError):
            bs.Graph.from_edges(4, [(2, 1), (1, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(ParameterError):
            bs.Graph.from_edges(4, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            bs.Graph.from_edges(4, [(0, 4)])

    def test_rejects_non_integer_endpoints(self):
        # floats and strings are not cast to an edge, and an endpoint past
        # int64, which numpy reads as a float or an object, is not an overflow
        for edges in ([(0, 1.5)], [(0, "1")], np.array([[0, 1.9]]), [(False, True)],
                      [(0, 2**63)], [(0, 2**64)]):
            with pytest.raises(ParameterError, match="integers"):
                bs.Graph.from_edges(3, edges)
        with pytest.raises(ParameterError, match="out of range"):
            bs.Graph.from_edges(3, np.array([[0, 2**63]], dtype=np.uint64))
        assert bs.Graph.from_edges(3, np.array([[2, 0]], dtype=np.uint8)).edges.tolist() == [[0, 2]]
        assert bs.Graph.from_edges(3, np.empty((0, 2))).m == 0

    def test_rejects_negative_n(self):
        with pytest.raises(ParameterError):
            bs.Graph.from_edges(-3, [])
        for n in (5.0, True):  # not an integer
            with pytest.raises(ParameterError, match="integer"):
                bs.Graph.from_edges(n, [(0, 1)])
        g = bs.Graph.from_edges(np.int64(5), [(0, 1)])
        assert type(g.n) is int and g.edges.tolist() == [[0, 1]]

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 10), data=st.data())
    def test_from_edges_canonicalization_property(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        chosen = [e for e, k in zip(pairs, keep) if k]
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        given_edges = data.draw(st.permutations(
            [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)]))
        g = bs.Graph.from_edges(n, given_edges)
        assert g.edges.tolist() == [list(e) for e in chosen]
        if chosen:
            u, v = data.draw(st.sampled_from(chosen))
            dup = data.draw(st.sampled_from([(u, v), (v, u)]))
            with pytest.raises(ParameterError):
                bs.Graph.from_edges(n, given_edges + [dup])
        w = data.draw(st.integers(0, n - 1))
        with pytest.raises(ParameterError):
            bs.Graph.from_edges(n, given_edges + [(w, w)])
        bad = data.draw(st.sampled_from([(w, n), (n, w), (-1, w), (w, -1)]))
        with pytest.raises(ParameterError):
            bs.Graph.from_edges(n, given_edges + [bad])

    def test_adjacency_symmetric(self):
        g = two_triangles()
        a = g.adjacency.toarray()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 12), keep=st.lists(st.booleans(), max_size=66))
    @example(n=0, keep=[])
    @example(n=1, keep=[])
    @example(n=5, keep=[])
    @example(n=6, keep=[True])  # nodes 2..5 isolated
    def test_adjacency_matches_dense_csr(self, n, keep):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = [e for e, k in zip(pairs, keep) if k]
        dense = np.zeros((n, n))
        for u, v in chosen:
            dense[u, v] = dense[v, u] = 1.0
        want = csr_matrix(dense)
        got = bs.Graph.from_edges(n, chosen).adjacency
        assert got.shape == (n, n) and got.has_canonical_format
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_neighbors_and_degree(self):
        g = two_triangles()
        a = g.adjacency
        assert a.indices[a.indptr[0]:a.indptr[1]].tolist() == [1, 2]
        assert a.indptr[4] - a.indptr[3] == 2


class TestGraphFileIO:
    def test_roundtrip_with_labels(self, tmp_path):
        g = bs.sample_sbm(bs.SbmParams.explicit(5, 5, 0.8, 0.2), 6)
        path = tmp_path / "g.txt"
        bs.write_graph(g, path)
        h = bs.read_graph(path)
        assert h.n == g.n
        assert np.array_equal(h.edges, g.edges)
        assert np.array_equal(h.truth, g.truth)
        # writer output is stable under a second write
        path2 = tmp_path / "g2.txt"
        bs.write_graph(h, path2)
        assert path.read_text() == path2.read_text()

    def test_roundtrip_without_labels(self, tmp_path):
        g = bs.Graph.from_edges(3, [(0, 2)])
        path = tmp_path / "g.txt"
        bs.write_graph(g, path)
        text = path.read_text()
        assert "labels" not in text
        h = bs.read_graph(path)
        assert h.truth is None
        assert h.edges.tolist() == [[0, 2]]

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), with_truth=st.booleans(), data=st.data())
    def test_roundtrip_property(self, tmp_path_factory, n, with_truth, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = data.draw(st.permutations([e for e, k in zip(pairs, keep) if k]))
        truth = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)) \
            if with_truth else None
        g = bs.Graph.from_edges(n, edges, truth)
        path = tmp_path_factory.mktemp("roundtrip") / "g.txt"
        bs.write_graph(g, path)
        h = bs.read_graph(path)
        assert h.n == g.n and np.array_equal(h.edges, g.edges)
        assert (h.truth is None) if truth is None else np.array_equal(h.truth, g.truth)

    @pytest.mark.parametrize("content", [
        "not a header\n",
        "3\n",                       # header missing m
        "3 1\n",                     # missing edge line
        "3 1\n1 0\n",                # u >= v
        "3 1\n1 1\n",                # self loop
        "3 1\n0 3\n",                # out of range
        "3 2\n0 1\n0 1\n",           # duplicate
        "3 1\n0 1\nextra\n",         # trailing junk
        "3 1\n0 1\nlabels 1 -1\n",   # label count mismatch
        "3 1\n0 1\nlabels 1 2 -1\n",  # bad label token
        "3 1\n0 1\nlabels 1 257 -1\n",  # a label an int8 cast would wrap to 1
        "3 1\n0 1\nlabels 1 -1 1\nlabels 1 -1 1\n",
        "3 1\n0 99999999999999999999\n",  # does not fit in int64
        "3 1\n0 1 # c\n",          # no comment syntax
        "3037000500 1\n0 1\n",     # too many nodes for int64 edge keys
        "-3 0\n",                  # negative node count
        "",                        # empty graph file
        "\n  \n",                  # only blank lines
        "a b\n",                   # header not two integers
        "3 -1\n",                  # negative edge count
        "3 1\n0 1 2\n",            # edge line with three fields
    ])
    def test_reader_rejects_malformed(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(GraphFormatError):
            bs.read_graph(path)

    def test_reader_reports_file_line_of_reversed_edge(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n\n0 1\n\n2 1\n")  # the reversed edge is on line 5
        with pytest.raises(GraphFormatError, match=r"^edge line 5: "):
            bs.read_graph(path)

    def test_writer_bytes(self, tmp_path):
        path = tmp_path / "g.txt"
        bs.write_graph(two_triangles(), path)
        assert path.read_bytes() == (b"6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
                                     b"labels 1 1 1 -1 -1 -1\n")

    def test_reader_accepts_any_edge_order(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n2 3\n\n  0 3\n0\t1\n")
        assert bs.read_graph(path).edges.tolist() == [[0, 1], [0, 3], [2, 3]]

    def test_reader_accepts_plus_prefix(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\nlabels +1 -1\n")
        g = bs.read_graph(path)
        assert g.truth.tolist() == [1, -1]
