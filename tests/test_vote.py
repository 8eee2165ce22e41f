"""Majority-vote extension and the truth-initialized oracle trial."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blocksketch as bs
from blocksketch.errors import ParameterError
from blocksketch.sbm import UNASSIGNED


def mask_of(indices, n):
    return np.asarray(sorted(indices), dtype=np.int64)


def star(center_edges, n):
    return bs.Graph.from_edges(n, center_edges)


class TestMajorityVote:
    def test_strict_majority(self):
        # node 3 sees sampled neighbors labeled +, +, -
        g = star([(0, 3), (1, 3), (2, 3)], 4)
        out = bs.majority_vote(g, mask_of([0, 1, 2], 4), np.array([1, 1, -1], dtype=np.int8))
        assert out.labels[3] == 1
        assert out.margins[3] == 1
        assert out.tie_count == 0

    def test_exact_tie_unassigned(self):
        g = star([(0, 2), (1, 2)], 3)
        out = bs.majority_vote(g, mask_of([0, 1], 3), np.array([1, -1], dtype=np.int8))
        assert out.labels[2] == UNASSIGNED
        assert out.margins[2] == 0
        assert out.tie_count == 1
        assert not bs.is_complete(out.labels)

    def test_isolated_node_is_tie(self):
        g = star([(0, 1)], 3)
        out = bs.majority_vote(g, mask_of([0, 1], 3), np.array([1, 1], dtype=np.int8))
        assert out.labels[2] == UNASSIGNED
        assert out.tie_count == 1

    def test_sampled_labels_kept_verbatim(self):
        # sampled node 0 keeps label -1 even though its sampled neighbors say +1
        g = star([(0, 1), (0, 2)], 4)
        out = bs.majority_vote(g, mask_of([0, 1, 2], 4),
                               np.array([-1, 1, 1], dtype=np.int8))
        assert out.labels[0] == -1

    def test_incomplete_sample_labels_rejected(self):
        g = star([(0, 1)], 3)
        with pytest.raises(ParameterError):
            bs.majority_vote(g, mask_of([0, 1], 3), np.array([1, 0], dtype=np.int8))
        with pytest.raises(ParameterError):
            bs.majority_vote(g, mask_of([0, 1], 3), np.array([1], dtype=np.int8))
        # values an int8 cast would wrap or truncate to +-1, or cannot hold
        g = star([(0, 1)], 5)
        for bad in ([1, 257, -1, -1], [1, 1.5, -1, -1], [1, 300, -1, -1],
                    [1.0, np.nan, -1.0, -1.0]):
            for labels in (bad, np.array(bad)):
                with pytest.raises(ParameterError):
                    bs.majority_vote(g, mask_of([0, 1, 2, 3], 5), labels)

    def test_list_of_kept_indices_matches_array(self):
        g = star([(0, 3), (1, 3), (2, 3), (2, 4)], 5)
        labels = np.array([1, 1, -1], dtype=np.int8)
        from_list = bs.majority_vote(g, [0, 1, 2], labels)
        from_array = bs.majority_vote(g, mask_of([0, 1, 2], 5), labels)
        assert np.array_equal(from_list.labels, from_array.labels)
        assert np.array_equal(from_list.margins, from_array.margins)
        assert from_list.tie_count == from_array.tie_count == 0

    def test_bad_kept_indices_rejected(self):
        g = star([(0, 1)], 3)
        labels = np.array([1, -1], dtype=np.int8)
        for kept in ([0, 3], [-1, 0], mask_of([1, 3], 3)):  # out of range
            with pytest.raises(ParameterError, match="out of range"):
                bs.majority_vote(g, kept, labels)
        for kept in ([0], [0, 1, 2], mask_of([], 3)):  # misaligned with the labels
            with pytest.raises(ParameterError, match="align"):
                bs.majority_vote(g, kept, labels)
        path = star([(0, 2), (2, 1)], 3)  # the path 0-2-1
        for kept, sample in (([0, 0], [1, -1]), ([0, 0], [1, 1]),  # conflicting, agreeing
                             ([1, 0, 1], [1, 1, 1])):
            for k in (kept, np.array(kept)):
                with pytest.raises(ParameterError, match="distinct"):
                    bs.majority_vote(path, k, np.array(sample, dtype=np.int8))

    def test_double_loop_oracle(self):
        # independent recount of e(v, R1) - e(v, R2) on 100 random instances
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            density = rng.uniform(0.2, 0.9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.uniform() < density]
            g = bs.Graph.from_edges(n, edges)
            k = int(rng.integers(1, n + 1))
            kept = rng.choice(n, size=k, replace=False)
            labels = rng.choice([-1, 1], size=k).astype(np.int8)
            out = bs.majority_vote(g, mask_of(kept, n), labels[np.argsort(kept)])
            by_node = dict(zip(sorted(kept), labels[np.argsort(kept)]))
            eset = set(map(tuple, g.edges.tolist()))
            for v in range(n):
                if v in by_node:
                    assert out.labels[v] == by_node[v]
                    continue
                plus = sum(1 for u in by_node if by_node[u] == 1
                           and (min(u, v), max(u, v)) in eset)
                minus = sum(1 for u in by_node if by_node[u] == -1
                            and (min(u, v), max(u, v)) in eset)
                assert out.margins[v] == plus - minus
                want = 1 if plus > minus else (-1 if minus > plus else UNASSIGNED)
                assert out.labels[v] == want

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), density=st.floats(0.0, 1.0),
           graph_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_permutation_equivariance(self, n, density, graph_seed, data):
        rng = np.random.default_rng(graph_seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < density]
        g = bs.Graph.from_edges(n, edges)
        kept = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        lab = np.asarray(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=kept.size,
                                            max_size=kept.size)), dtype=np.int8)
        perm = np.asarray(data.draw(st.permutations(range(n))), dtype=np.int64)
        out = bs.majority_vote(g, mask_of(kept, n), lab)
        # node i of g is node perm[i] of the relabelled graph
        g2 = bs.Graph.from_edges(n, perm[g.edges])
        order = np.argsort(perm[kept])
        out2 = bs.majority_vote(g2, mask_of(perm[kept], n), lab[order])
        assert np.array_equal(out2.labels[perm], out.labels)
        assert np.array_equal(out2.margins[perm], out.margins)
        assert out2.tie_count == out.tie_count


    def test_margin_monotone_in_added_edge(self):
        g = star([(0, 2), (1, 2)], 4)
        kept = mask_of([0, 1, 3], 4)
        labels = np.array([1, -1, 1], dtype=np.int8)
        before = bs.majority_vote(g, kept, labels)
        g2 = bs.Graph.from_edges(4, [(0, 2), (1, 2), (2, 3)])  # new edge to +1 node 3
        after = bs.majority_vote(g2, kept, labels)
        assert after.margins[2] >= before.margins[2]

    def test_vote_builds_no_full_graph_adjacency(self):
        g = bs.sample_sbm(bs.SbmParams.from_rates(400, 30.0, 2.0), 3)
        kept = bs.subsample_nodes(g.n, 0.3, 4)
        out = bs.majority_vote(g, kept, g.truth[kept])
        assert "adjacency" not in g.__dict__
        w = np.zeros(g.n)
        w[kept] = g.truth[kept]
        assert np.array_equal(out.margins, g.adjacency @ w)


class TestOracleVoteTrial:
    def test_full_sample_always_succeeds(self):
        params = bs.SbmParams.explicit(3, 3, 1.0, 0.0)
        for seed in range(20):
            g = bs.sample_sbm(params, seed)
            assert bs.oracle_vote_trial(g, 1.0, seed)

    def test_missing_truth_rejected(self):
        g = bs.Graph.from_edges(4, [(0, 1)])
        with pytest.raises(ParameterError):
            bs.oracle_vote_trial(g, 0.5, 0)

    def test_tie_forces_failure(self):
        # node 2 is isolated: any sample that omits it leaves a guaranteed tie
        g = bs.Graph.from_edges(3, [(0, 1)],
                                truth=np.array([1, -1, 1], dtype=np.int8))
        found = False
        for seed in range(200):
            kept = bs.subsample_nodes(3, 0.4, seed)
            if 2 not in set(kept.tolist()) and kept.size >= 1:
                assert not bs.oracle_vote_trial(g, 0.4, seed)
                found = True
                break
        assert found

    def test_disjoint_cliques_half_sample(self):
        params = bs.SbmParams.explicit(20, 20, 1.0, 0.0)
        wins = sum(bs.oracle_vote_trial(bs.sample_sbm(params, s), 0.5, s)
                   for s in range(200))
        assert wins / 200 >= 0.99

    def test_moderate_regime_rate(self):
        params = bs.SbmParams.from_rates(200, 16.0, 2.0)
        wins = sum(
            bs.oracle_vote_trial(bs.sample_sbm(params, bs.seed_sequence(9, t)), 0.7,
                                 bs.seed_sequence(9, t))
            for t in range(40))
        assert wins / 40 >= 0.8

    def test_deterministic(self):
        g = bs.sample_sbm(bs.SbmParams.from_rates(60, 6.0, 1.0), 3)
        assert bs.oracle_vote_trial(g, 0.6, 11) == bs.oracle_vote_trial(g, 0.6, 11)
