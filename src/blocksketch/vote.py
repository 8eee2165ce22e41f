"""Majority-vote extension of sampled labels to the whole graph.

An off-sample node v with sampled sets R1 (+1) and R2 (-1) gets the label of
the strict majority of its sampled neighbors: sign(e(v, R1) - e(v, R2)).
A zero margin is a tie and leaves v unassigned; in particular a node with no
sampled neighbor is tied. The margins come from the edge list by two
weighted `np.bincount` calls (exact in float64); no CSR adjacency is built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import RngSeed
from .sbm import UNASSIGNED, Graph, is_complete, partitions_equal, subsample_nodes


@dataclass(eq=False)
class VoteOutcome:
    """Vote result.

    labels: full-length vector; sampled nodes keep their input labels
    verbatim, off-sample nodes carry the vote result (0 = tie).
    margins: e(v, R1) - e(v, R2) for every node; only off-sample entries
    determine labels.
    tie_count: number of off-sample nodes with zero margin.
    """

    labels: np.ndarray
    margins: np.ndarray
    tie_count: int


def majority_vote(g: Graph, kept, sample_labels) -> VoteOutcome:
    """Extend the labels given on the kept indices to all nodes by strict
    majority; the kept indices must be distinct and in range."""
    kept = np.asarray(kept, dtype=np.int64)
    lab = np.asarray(sample_labels)
    if lab.shape != (kept.size,):
        raise ParameterError("sample_labels must align with the kept indices")
    if kept.size and (kept.min() < 0 or kept.max() >= g.n):
        raise ParameterError("kept index out of range")
    if not is_complete(lab):
        raise ParameterError("sample labels must be complete (+-1)")
    off = np.ones(g.n, dtype=bool)
    off[kept] = False
    if np.count_nonzero(off) != g.n - kept.size:
        raise ParameterError("kept indices must be distinct")

    w = np.zeros(g.n, dtype=np.float64)
    w[kept] = lab
    u, v = g.edges[:, 0], g.edges[:, 1]
    margins = (np.bincount(u, w[v], g.n) + np.bincount(v, w[u], g.n)).astype(np.int64)

    labels = np.full(g.n, UNASSIGNED, dtype=np.int8)
    labels[kept] = lab
    labels[off] = np.sign(margins[off]).astype(np.int8)
    tie_count = int((margins[off] == 0).sum())
    return VoteOutcome(labels=labels, margins=margins, tie_count=tie_count)


def oracle_vote_trial(g: Graph, gamma: float, seed: RngSeed) -> bool:
    """One oracle-initialized trial: subsample, reveal true labels, vote.

    Success means the voted labels are complete and match the planted
    partition; any tie counts as failure.
    """
    if g.truth is None:
        raise ParameterError("oracle_vote_trial needs a graph with planted truth")
    kept = subsample_nodes(g.n, gamma, seed)
    if kept.size == 0:
        return False
    outcome = majority_vote(g, kept, g.truth[kept])
    return partitions_equal(outcome.labels, g.truth)
