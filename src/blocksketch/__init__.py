"""Sketched semidefinite community detection for two-community block models.

The package covers the full pipeline: block-model sampling, node
subsampling, a low-rank SDP solver with an integrality certificate,
majority-vote extension back to the full vertex set, Monte Carlo sweeps,
and the closed-form threshold and tail-bound calculators used to place
experiments relative to the recovery phase transition.
"""
from .analytics import (ABOVE, BELOW, BOUNDARY, BoundParams,
                        binom_diff_tail_exact, chernoff_grid_min,
                        exact_recovery_possible, gamma_star, lambda_star,
                        lemma2_bound, lemma2_exponent)
from .errors import (BlocksketchError, CapacityError, DomainError,
                     EmptyGraphError, GraphFormatError, ParameterError)
from .pipeline import (CSV_HEADER, CellStats, SketchConfig, SketchResult,
                       SweepTable, TrialRecord, parse_sweep_csv, run_sweep,
                       run_trial, sketch_and_recover)
from .rng import rng_for, seed_fingerprint, seed_sequence
from .sbm import (Graph, SampleMask, SbmParams, induced_subgraph,
                  is_complete, partitions_equal, read_graph, sample_sbm,
                  subsample_nodes, write_graph)
from .sdp import (Certificate, SdpConfig, SdpSolution, SolveDiagnostics,
                  brute_force_mle, certificate_check, labeling_objective,
                  leading_eigenvector, round_solution, solve_balanced_sdp,
                  solve_lagrangian_sdp)
from .vote import VoteOutcome, majority_vote, oracle_vote_trial

__version__ = "0.1.0"

__all__ = [
    "ABOVE", "BELOW", "BOUNDARY", "BlocksketchError", "BoundParams",
    "CSV_HEADER", "CapacityError", "CellStats", "Certificate",
    "DomainError", "EmptyGraphError", "Graph", "GraphFormatError",
    "ParameterError", "SampleMask", "SbmParams", "SdpConfig",
    "SdpSolution", "SketchConfig", "SketchResult", "SolveDiagnostics",
    "SweepTable", "TrialRecord", "VoteOutcome",
    "binom_diff_tail_exact", "brute_force_mle", "certificate_check",
    "chernoff_grid_min", "exact_recovery_possible", "gamma_star",
    "induced_subgraph", "is_complete", "labeling_objective",
    "lambda_star", "leading_eigenvector", "lemma2_bound",
    "lemma2_exponent", "majority_vote", "oracle_vote_trial",
    "parse_sweep_csv", "partitions_equal", "read_graph", "rng_for",
    "round_solution", "run_sweep", "run_trial", "sample_sbm",
    "seed_fingerprint", "seed_sequence", "sketch_and_recover",
    "solve_balanced_sdp", "solve_lagrangian_sdp", "subsample_nodes",
    "write_graph",
]
