"""Low-rank solver, rounding, certificate, and the exhaustive oracle."""
import dataclasses
import itertools
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix

import blocksketch as bs
from blocksketch import sdp
from blocksketch.errors import CapacityError, EmptyGraphError, ParameterError
from blocksketch.rng import STREAM_SDP, rng_for
from blocksketch.sdp import objective_and_gradient

LAM_STAR = bs.lambda_star(0.9, 0.1)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def two_cliques(k, p=1.0, q=0.0, seed=0):
    return bs.sample_sbm(bs.SbmParams.explicit(k, k, p, q), seed)


def relaxation_gap_graph():
    """A 10-node two-clique graph (p=0.9, q=0.1) whose Lagrangian SDP at
    LAM_STAR has a genuine relaxation gap, kept as a literal edge list."""
    edges = [(0, 3), (0, 4), (0, 5), (0, 7), (0, 8), (1, 4), (1, 8), (1, 9), (2, 4),
             (2, 8), (2, 9), (3, 5), (3, 6), (3, 8), (4, 6), (4, 8), (4, 9), (5, 6),
             (5, 7), (5, 8), (6, 7), (8, 9)]
    return bs.Graph.from_edges(10, edges, truth=[-1, 1, 1, -1, 1, -1, -1, -1, 1, 1])


class CountingCSR(csr_matrix):
    """A csr_matrix that counts its `@` products."""

    calls = 0

    def __matmul__(self, other):
        self.calls += 1
        return super().__matmul__(other)


def sketched_graph(i):
    """(graph, seed) of tools/replay_solver.py's sketched battery: subgraph i of
    the paper's full n = 400 model (alpha 30, beta 2) at half the threshold rate."""
    full = bs.SbmParams.from_rates(400, 30.0, 2.0)
    seed = bs.seed_sequence(20261020, 0, i)
    kept = bs.subsample_nodes(full.n, 0.5 * bs.gamma_star(30.0, 2.0), seed)
    return bs.induced_subgraph(bs.sample_sbm(full, seed), kept)[0], seed


def random_graph(n, density, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.uniform() < density]
    return bs.Graph.from_edges(n, edges)


def enumerate_optima(g, mode, lam=None):
    """Independent exhaustive reference; returns (objective, set of labelings)."""
    a = g.adjacency.toarray()
    best_obj = None
    best = set()
    for bits in itertools.product((1, -1), repeat=g.n):
        x = np.array(bits, dtype=np.float64)
        s = float(x.sum())
        if mode == "balanced" and s != 0:
            continue
        obj = float(x @ a @ x)
        if mode == "lam":
            obj -= lam * s * s
        if best_obj is None or obj > best_obj + 1e-9:
            best_obj, best = obj, {bits}
        elif obj >= best_obj - 1e-9:
            best.add(bits)
    return best_obj, best


def dual_verdicts(g, x, mu, tol):
    """(dense, Lanczos) verdicts of the dual check, each branch called directly."""
    adj = g.adjacency
    xf = np.asarray(x, dtype=np.float64)
    d = (adj @ xf - mu * xf.sum()) * xf
    return (sdp._cholesky_certified(adj.toarray(), d, mu, tol),
            sdp._lanczos_certified(adj, xf, d, mu, tol))


def dense_lambda_min(g, x, mu):
    """lambda_min(S) of the dual matrix, from a dense eigvalsh."""
    a = g.adjacency.toarray()
    xf = np.asarray(x, dtype=np.float64)
    return np.linalg.eigvalsh(np.diag((a @ xf - mu * xf.sum()) * xf) - a + mu)[0]


class TestDefaultRank:
    def test_fixed_default(self):
        # a performance constant, the same at every n; no n-dependent rule is left
        assert sdp._RANK == 8 and not hasattr(bs.SdpConfig(), "rank")
        assert not hasattr(bs, "default_rank") and not hasattr(sdp, "default_rank")

    def test_control_partitions_match_old_default(self, monkeypatch):
        # below the threshold no certificate holds and the default rank must
        # land where rank 25, the old sqrt(2n) rule at n = 300, does
        params = bs.SbmParams.from_rates(300, 3.0, 1.0)
        lam = bs.lambda_star(params.p, params.q)
        for seed in range(5):
            g = bs.sample_sbm(params, seed)
            cfg = bs.SdpConfig(lam=lam, seed=seed)
            sol = bs.solve_lagrangian_sdp(g, cfg)
            with monkeypatch.context() as m:
                m.setattr(sdp, "_RANK", 25)
                ref = bs.solve_lagrangian_sdp(g, cfg)
            assert ref.factor.shape == (300, 25)
            assert sol.factor.shape == (300, 8)
            assert bs.partitions_equal(sol.rounded, ref.rounded)
            assert sol.diagnostics.restarts_used == 1  # restart 0 is rank-deficient
            assert not sol.certificate.tight


class TestStopTolerance:
    def test_tighter_tolerance_changes_no_result(self, monkeypatch):
        # the stop tolerance is tight enough where uncertified ascents decide the
        # result: 1e-11, ten times below the default, returns the same partitions,
        # verdicts and objectives with no fewer restarts, at more iterations. On
        # 25 cases this catches 1e-9 and 1e-8 but not 5e-10, which changed one
        # partition in 200 control graphs (see _STEP_TOL); tools/replay_solver.py
        # is the wider check. Cases, seeds fixed in advance: TestDefaultRank's
        # control graphs, and the first 20 sketched n = 400 subgraphs at half the
        # threshold rate whose spectral labels do not certify
        def solve(g, lam, seed):
            return bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=lam, seed=seed))

        def samples():
            full = bs.SbmParams.from_rates(400, 30.0, 2.0)
            lam, gamma = bs.lambda_star(full.p, full.q), 0.5 * bs.gamma_star(30.0, 2.0)
            for i in itertools.count():
                seed = bs.seed_sequence(2210, i)
                kept = bs.subsample_nodes(full.n, gamma, seed)
                if kept.size >= 2:
                    yield bs.induced_subgraph(bs.sample_sbm(full, seed), kept)[0], lam, seed

        control = bs.SbmParams.from_rates(300, 3.0, 1.0)
        lam = bs.lambda_star(control.p, control.q)
        cases = [(bs.sample_sbm(control, seed), lam, seed) for seed in range(5)]
        default = [solve(*case) for case in cases]
        for case in samples():
            if len(cases) == 25:
                break
            sol = solve(*case)
            if sol.diagnostics.restarts_used:
                cases.append(case)
                default.append(sol)
        monkeypatch.setattr(sdp, "_STEP_TOL", 1e-11)
        tighter = [solve(*case) for case in cases]
        for sol, ref in zip(default, tighter):
            assert bs.partitions_equal(sol.rounded, ref.rounded)
            assert sol.certificate.tight == ref.certificate.tight
            assert sol.diagnostics.restarts_used <= ref.diagnostics.restarts_used
            # within the agreement tolerance, which restarts need to agree
            assert ref.objective - sol.objective <= 1e-6 * (1.0 + abs(ref.objective))
        assert (sum(s.diagnostics.iterations_total for s in default)
                < sum(s.diagnostics.iterations_total for s in tighter))


def rank_ratio(factor):
    """lambda_min / lambda_max of the Gram matrix Y^T Y."""
    ev = np.linalg.eigvalsh(factor.T @ factor)
    return ev[0] / ev[-1]


def rank_test_fires(monkeypatch, fires: bool):
    """Make the solve's rank test pass every converged best restart, or none."""
    monkeypatch.setattr(sdp, "_RANK_TOL", math.inf if fires else -math.inf)


class TestRankStop:
    CONTROL = bs.SbmParams.from_rates(300, 3.0, 1.0)
    LAM = bs.lambda_star(CONTROL.p, CONTROL.q)

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_deficient_restart_ends_the_solve(self, seed, monkeypatch):
        # TestDefaultRank's control graphs below the threshold: restart 0
        # converges uncertified on a rank-deficient factor and ends the solve
        g = bs.sample_sbm(self.CONTROL, seed)
        cfg = bs.SdpConfig(lam=self.LAM, seed=seed)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        d = sol.diagnostics
        assert d.restarts_used == 1 == len(d.restart_objectives) and d.converged
        assert d.iterations_total == sol.iterations
        assert rank_ratio(sol.factor) <= sdp._RANK_TOL
        assert not sol.certificate.tight
        # the partition, verdict and returned restart of a solve whose
        # restarts run on until one confirms restart 0
        rank_test_fires(monkeypatch, False)
        ref = bs.solve_lagrangian_sdp(g, cfg)
        assert ref.diagnostics.restarts_used == 2
        assert bs.partitions_equal(sol.rounded, ref.rounded)
        assert sol.certificate == ref.certificate
        assert sol.objective == ref.objective and np.array_equal(sol.factor, ref.factor)

    def test_full_rank_restart_waits_for_confirmation(self):
        # graph 12 of 200 control graphs seeded seed_sequence(555000, i): restart
        # 0 converges on a full-rank factor, and restart 1 confirms it: it
        # converges, agrees with restart 0 and rounds to restart 0's partition
        seed = bs.seed_sequence(555000, 12)
        g = bs.sample_sbm(self.CONTROL, seed)
        cfg = bs.SdpConfig(lam=self.LAM, seed=seed)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        d = sol.diagnostics
        adj = sdp._operator(g)
        first, second = (sdp._ascent(adj, self.LAM, False, rng_for(seed, STREAM_SDP, k))
                         for k in range(2))
        assert first.converged and rank_ratio(first.factor) > sdp._RANK_TOL
        assert second.converged and sdp._agrees(second.objective, first.objective)
        assert bs.partitions_equal(bs.round_solution(second.factor),
                                   bs.round_solution(first.factor))
        assert d.restarts_used == 2 and d.converged
        assert d.iterations_total == first.iterations + second.iterations
        assert sol.objective == d.restart_objectives[0] == first.objective
        assert d.restart_objectives[1] == second.objective
        assert np.array_equal(sol.factor, first.factor)


class TestConfirmation:
    """Restart confirmation, checked only at a converged stop, and the balanced
    program's exemption from the rank stop."""

    def test_balanced_solve_is_unchanged(self, monkeypatch):
        # the rank test never stops a balanced solve: its restarts end off the
        # balance constraint. The same solve results whether the test would
        # pass every converged restart or none
        g = bs.sample_sbm(TestRankStop.CONTROL, 0)
        cfg = bs.SdpConfig(seed=0)
        sol = bs.solve_balanced_sdp(g, cfg)
        d = sol.diagnostics
        assert d.restarts_used > 1 and d.converged
        for fires in (True, False):
            with monkeypatch.context() as mp:
                rank_test_fires(mp, fires)
                ref = bs.solve_balanced_sdp(g, cfg)
            assert ref.diagnostics.iterations_total == d.iterations_total
            assert np.array_equal(ref.diagnostics.restart_objectives, d.restart_objectives)
            assert np.array_equal(ref.rounded, sol.rounded)

    def test_confirming_restart_above_the_best_keeps_the_best(self):
        # graph 66 of tools/replay_solver.py's sketched battery, a balanced
        # solve on 24 nodes: both restarts converge uncertified, and restart 1
        # ends above restart 0 by less than the agreement tolerance, on the
        # same partition. It confirms restart 0, which is returned
        g, seed = sketched_graph(66)
        assert g.n == 24
        cfg = bs.SdpConfig(seed=seed)
        sol = bs.solve_balanced_sdp(g, cfg)
        d = sol.diagnostics
        adj = sdp._operator(g)
        first, second = (sdp._ascent(adj, 0.0, True, rng_for(seed, STREAM_SDP, k))
                         for k in range(2))
        assert first.converged and second.converged
        assert first.objective < second.objective and sdp._agrees(first.objective,
                                                                  second.objective)
        assert d.restarts_used == 2 and d.converged
        assert d.iterations_total == first.iterations + second.iterations
        assert sol.objective == d.restart_objectives[0] == first.objective
        assert d.restart_objectives[1] == second.objective
        assert sol.iterations == first.iterations
        # the partition and verdict restart 1 would have given
        labels = bs.round_solution(second.factor, balanced=True)
        assert bs.partitions_equal(sol.rounded, labels)
        assert not sol.certificate.tight and not sdp._certify(adj, labels, 0.0, 1.0)[1]

    def test_capped_restarts_neither_confirm_nor_are_confirmed(self, monkeypatch):
        # TestRankStop's graph 12, where restart 1 confirms restart 0. Reported
        # capped, restart 0 cannot be confirmed and restart 1 cannot confirm:
        # either way the solve runs on until two converged restarts agree
        seed = bs.seed_sequence(555000, 12)
        g = bs.sample_sbm(TestRankStop.CONTROL, seed)
        cfg = bs.SdpConfig(lam=TestRankStop.LAM, seed=seed)
        ascent = sdp._ascent
        for capped, restarts in ((0, 3), (1, 4)):
            runs = []

            def capping(*args):
                runs.append(ascent(*args))
                out = runs[-1]
                return out._replace(converged=False) if len(runs) - 1 == capped else out

            monkeypatch.setattr(sdp, "_ascent", capping)
            assert bs.solve_lagrangian_sdp(g, cfg).diagnostics.restarts_used == restarts

    def test_uncertified_spectral_labels_are_not_a_restart(self, monkeypatch):
        # with the dual check failing everywhere, restart 0 on two cliques ends
        # on the spectral labels' partition and objective; it must become the
        # best, not confirm the spectral candidate
        monkeypatch.setattr(sdp, "_cholesky_certified", lambda *args: False)
        monkeypatch.setattr(sdp, "_lanczos_certified", lambda *args: False)
        g = two_cliques(4)
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM_STAR, seed=1))
        assert bs.partitions_equal(sol.rounded, g.truth) and not sol.certificate.tight
        assert sol.diagnostics.restarts_used == 1
        assert sol.factor.shape == (g.n, sdp._RANK) and sol.iterations > 0


class TestSdpConfig:
    def test_multiplier_and_seed_are_the_only_settings(self):
        # the iteration cap, the restart bound and the rank are module
        # constants; the callers set the multiplier and the seed
        assert [f.name for f in dataclasses.fields(bs.SdpConfig)] == ["lam", "seed"]
        with pytest.raises(TypeError, match="rank"):
            bs.SdpConfig(rank=8)
        assert (sdp._MAX_ITERS, sdp._RESTARTS, sdp._RANK) == (500, 5, 8)

    def test_numpy_float_multiplier(self):
        # lam is stored as a Python float: a float32 multiplier solves as the
        # Python float of the same value does, to the bit
        params = bs.SbmParams.from_rates(400, 3, 1)
        g = bs.sample_sbm(params, 0)
        v = np.float32(bs.lambda_star(params.p, params.q))
        cfg = bs.SdpConfig(lam=v, seed=1)
        assert type(cfg.lam) is float and cfg == bs.SdpConfig(lam=float(v), seed=1)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        ref = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=float(v), seed=1))
        values = (sol.objective, sol.rounded_objective, sol.certificate.gap)
        assert all(type(value) is float for value in values)
        assert values == (ref.objective, ref.rounded_objective, ref.certificate.gap)
        assert np.array_equal(sol.factor, ref.factor)

    def test_validation(self):
        with pytest.raises(ParameterError):
            bs.SdpConfig(lam=-0.5)
        with pytest.raises(ParameterError):
            bs.SdpConfig(lam=float("nan"))
        with pytest.raises(ParameterError):
            bs.SdpConfig(lam=math.inf)
        with pytest.raises(ParameterError):
            bs.SdpConfig(seed=-4)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(123)
        h = 1e-6
        for trial in range(20):
            g = random_graph(8, rng.uniform(0.3, 0.8), rng)
            lam = float(rng.uniform(0.0, 1.0))
            y = rng.standard_normal((8, 3))
            f, grad = objective_and_gradient(g.adjacency, y, lam)
            fd = np.zeros_like(y)
            for i in range(8):
                for j in range(3):
                    yp = y.copy()
                    yp[i, j] += h
                    ym = y.copy()
                    ym[i, j] -= h
                    fp, _ = objective_and_gradient(g.adjacency, yp, lam)
                    fm, _ = objective_and_gradient(g.adjacency, ym, lam)
                    fd[i, j] = (fp - fm) / (2 * h)
            scale = max(1.0, float(np.abs(grad).max()))
            assert np.abs(fd - grad).max() / scale <= 1e-5

    def test_value_matches_quadratic_form(self):
        rng = np.random.default_rng(4)
        g = random_graph(7, 0.5, rng)
        y = rng.standard_normal((7, 4))
        lam = 0.3
        f, _ = objective_and_gradient(g.adjacency, y, lam)
        x = y @ y.T
        a = g.adjacency.toarray()
        want = float(np.trace(a @ x)) - lam * float(np.ones(7) @ x @ np.ones(7))
        assert f == pytest.approx(want, rel=1e-12)


class TestSolver:
    def test_single_edge(self):
        g = bs.Graph.from_edges(2, [(0, 1)])
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(seed=0))
        assert sol.objective == pytest.approx(2.0, rel=1e-6)
        assert bs.partitions_equal(sol.rounded, [1, 1])
        assert sol.certificate.tight

    def test_disjoint_four_cliques_lambda_zero(self):
        # optimum value 24; the optimal labeling set contains merged variants,
        # so only the value and tightness are pinned here
        g = two_cliques(4)
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(seed=1))
        assert sol.objective == pytest.approx(24.0, rel=1e-6)
        assert sol.rounded_objective == 24.0
        assert sol.certificate.tight

    def test_disjoint_four_cliques_with_multiplier(self):
        g = two_cliques(4)
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM_STAR, seed=1))
        assert bs.partitions_equal(sol.rounded, g.truth)
        assert sol.certificate.tight

    def test_unit_rows_and_feasibility_trace(self, watch_retractions):
        g = relaxation_gap_graph()  # no spectral skip: the returned factor is the ascent's
        with watch_retractions() as deviations:
            sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM_STAR, seed=3))
        assert np.abs(np.linalg.norm(sol.factor, axis=1) - 1.0).max() <= 1e-9
        # every restart retracts its start and at least one trial point per iteration
        d = sol.diagnostics
        assert len(deviations) >= d.iterations_total + d.restarts_used
        assert np.max(deviations) <= 1e-9

    def test_monotone_ascent(self):
        # both retractions: the balanced one centres columns before normalizing.
        # The full solvers certify this graph spectrally, so the ascent is run directly
        g = two_cliques(6, p=0.8, q=0.2, seed=5)
        for lam, balanced in ((0.2, False), (0.0, True)):
            out = sdp._ascent(g.adjacency, lam, balanced, rng_for(0, STREAM_SDP, 0))
            trace = out.objectives
            assert len(trace) >= 1
            assert np.all(np.diff(trace) >= -1e-12)

    @settings(max_examples=60, deadline=None)
    @given(k1=st.integers(1, 4), k2=st.integers(1, 4),
           pq=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
           graph_seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 1.5),
           balanced=st.booleans(), restart=st.integers(0, 1000))
    def test_ascent_invariants_at_default_rank(self, k1, k2, pq, graph_seed, lam,
                                               balanced, restart, watch_retractions):
        # n <= 8, so the default rank reaches or exceeds n
        q, p = pq
        if balanced:
            k2, lam = k1, 0.0
        g = bs.sample_sbm(bs.SbmParams.explicit(k1, k2, p, q), graph_seed)
        with watch_retractions() as deviations:
            out = sdp._ascent(g.adjacency, lam, balanced,
                              rng_for(graph_seed, STREAM_SDP, restart))
        y, f = out.factor, out.objective
        assert np.all(np.diff(out.objectives) >= 0.0)
        assert len(deviations) >= out.iterations + 1
        assert np.max(deviations) <= 1e-12
        assert np.abs(np.linalg.norm(y, axis=1) - 1.0).max() <= 1e-12
        assert f == pytest.approx(objective_and_gradient(g.adjacency, y, lam)[0],
                                  rel=1e-12, abs=0)
        # and against a dense evaluation that shares no code with the solver
        a, cs = g.adjacency.toarray(), y.sum(axis=0)
        dense = float(np.trace(y.T @ a @ y)) - lam * float(cs @ cs)
        assert f == pytest.approx(dense, rel=1e-12, abs=1e-12 * (2 * g.m + lam * g.n ** 2))

    def test_relaxation_dominates_integral(self):
        rng = np.random.default_rng(31)
        for n in (6, 9, 12):
            g = random_graph(n, 0.5, rng)
            for lam in (0.0, 0.1, 0.5):
                sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=lam, seed=n))
                _, mobj = bs.brute_force_mle(g, lam=lam)
                assert sol.objective >= mobj - 1e-6

    def test_rounded_never_beats_relaxation(self):
        rng = np.random.default_rng(77)
        for seed in range(10):
            g = random_graph(10, 0.4, rng)
            sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=0.3, seed=seed))
            tol = 1e-6 * (1.0 + abs(sol.objective))
            assert sol.rounded_objective <= sol.objective + tol

    def test_tight_implies_exhaustive_optimum(self):
        # n=10, p=0.9, q=0.1, seeds 0..9: agreement is only promised when the
        # certificate is tight (seed 4 has a genuine relaxation gap)
        tight = 0
        for seed in range(10):
            g = two_cliques(5, p=0.9, q=0.1, seed=seed)
            sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM_STAR, seed=seed))
            if sol.certificate.tight:
                tight += 1
                mle, _ = bs.brute_force_mle(g, lam=LAM_STAR)
                assert bs.partitions_equal(sol.rounded, mle)
        assert tight >= 6  # the conditional must not hold vacuously

    def test_determinism_bitwise(self):
        g = two_cliques(6, p=0.85, q=0.15, seed=9)
        cfg = bs.SdpConfig(lam=0.25, seed=4)
        a = bs.solve_lagrangian_sdp(g, cfg)
        b = bs.solve_lagrangian_sdp(g, cfg)
        assert np.array_equal(a.factor, b.factor)
        assert a.objective == b.objective
        assert np.array_equal(a.rounded, b.rounded)
        assert a.certificate == b.certificate

    def test_matmult_budget(self, monkeypatch):
        # below the recovery threshold the spectral candidate and the best
        # restart's labels each cost one product and fail the dual check within
        # a few Lanczos steps, so nearly every product is the ascent's. Those
        # bypass the CSR's `@` and are counted at sdp._product
        params = bs.SbmParams.from_rates(300, 3, 1)
        g = bs.sample_sbm(params, 0)
        g.adjacency = CountingCSR(g.adjacency)
        ascent_products, make_product = [], sdp._product

        def counting_product(adj, r):
            product = make_product(adj, r)
            return lambda y: ascent_products.append(1) or product(y)

        monkeypatch.setattr(sdp, "_product", counting_product)
        sol = bs.solve_lagrangian_sdp(
            g, bs.SdpConfig(lam=bs.lambda_star(params.p, params.q)))
        diag = sol.diagnostics
        assert not sol.certificate.tight
        # one product per accepted step and one at each restart's start, at least
        assert len(ascent_products) >= diag.iterations_total + diag.restarts_used
        assert (len(ascent_products) + g.adjacency.calls
                <= 1.5 * diag.iterations_total + diag.restarts_used)

    def test_matmult_budget_spectral_skip(self, monkeypatch):
        # full sample above the threshold, too sparse for a dense operator: the
        # spectral labels certify, and the solve costs the Krylov steps, one
        # cleanup round, which changes no label here and so ends the cleanup,
        # one product for the labels' objective and the dual check's diagonal,
        # and the Lanczos dual check's steps, all on the CSR
        params = bs.SbmParams.from_rates(400, 10, 1)
        g = bs.sample_sbm(params, 0)
        assert g.n > sdp._DENSE_DUAL_MAX and 2 * g.m < sdp._DENSE_MIN_FILL * g.n ** 2
        g.adjacency = CountingCSR(g.adjacency)
        steps, lanczos = [], sdp._lanczos

        def counting_lanczos(apply, n, max_steps):
            steps.append(0)
            for item in lanczos(apply, n, max_steps):  # one product per step taken
                steps[-1] += 1
                yield item

        monkeypatch.setattr(sdp, "_lanczos", counting_lanczos)
        sol = bs.solve_lagrangian_sdp(
            g, bs.SdpConfig(lam=bs.lambda_star(params.p, params.q)))
        assert sol.certificate.tight
        assert sol.diagnostics.iterations_total == 0
        spectral, dual = steps
        assert spectral == sdp._SPECTRAL_STEPS and 0 < dual <= sdp._LANCZOS_STEPS
        assert g.adjacency.calls == sdp._SPECTRAL_STEPS + 1 + 1 + dual

    def test_dense_full_graph_builds_no_csr_and_takes_lanczos(self, monkeypatch):
        # the paper's full n = 400 graph is dense enough for the dense operator,
        # and the proof is routed by size: above _DENSE_DUAL_MAX nodes a dense
        # operator gets the Lanczos check, never the Cholesky one
        def cholesky(*args):
            raise AssertionError("Cholesky check above _DENSE_DUAL_MAX nodes")

        monkeypatch.setattr(sdp, "_cholesky_certified", cholesky)
        params = bs.SbmParams.from_rates(400, 30, 2)
        g = bs.sample_sbm(params, 0)
        assert g.n > sdp._DENSE_DUAL_MAX and isinstance(sdp._operator(g), np.ndarray)
        sol = bs.solve_lagrangian_sdp(
            g, bs.SdpConfig(lam=bs.lambda_star(params.p, params.q)))
        assert sol.certificate.tight
        assert sol.diagnostics.iterations_total == 0
        assert "adjacency" not in g.__dict__

    def test_matmult_budget_dense_check(self):
        # a sketched-size subgraph: the Krylov steps, the cleanup rounds and
        # the dual check all multiply the solve's own dense adjacency, built
        # from the edge list, so the CSR counts no products
        rates = bs.SbmParams.from_rates(400, 30, 2)
        g = bs.sample_sbm(bs.SbmParams.explicit(50, 50, rates.p, rates.q), 0)
        g.adjacency = CountingCSR(g.adjacency)
        sol = bs.solve_lagrangian_sdp(
            g, bs.SdpConfig(lam=bs.lambda_star(rates.p, rates.q)))
        assert sol.certificate.tight
        assert sol.diagnostics.iterations_total == 0
        assert g.adjacency.calls == 0

    @pytest.mark.parametrize("balanced", [False, True])
    @pytest.mark.parametrize("alpha, beta", [(30.0, 2.0), (3.0, 1.0)])
    def test_small_solves_build_no_csr(self, alpha, beta, balanced):
        # at the largest dense size, with the spectral skip (above the
        # recovery threshold) and with ascent restarts (below it)
        rates = bs.SbmParams.from_rates(sdp._DENSE_DUAL_MAX, alpha, beta)
        g = bs.sample_sbm(bs.SbmParams.explicit(90, 90, rates.p, rates.q), 0)
        if balanced:
            solve, cfg = bs.solve_balanced_sdp, bs.SdpConfig(seed=3)
        else:
            solve = bs.solve_lagrangian_sdp
            cfg = bs.SdpConfig(lam=bs.lambda_star(rates.p, rates.q), seed=3)
        sol = solve(g, cfg)
        assert (sol.diagnostics.restarts_used == 0) == (alpha == 30.0)
        assert "adjacency" not in g.__dict__  # the cached CSR was never built
        g.adjacency = CountingCSR(g.adjacency)
        again = solve(g, cfg)
        assert g.adjacency.calls == 0
        assert np.array_equal(again.rounded, sol.rounded)
        assert again.objective == sol.objective

    def test_capped_solve_reports_unconverged(self, monkeypatch):
        # no spectral skip: the capped ascent is returned. The graph has a
        # relaxation gap, so no labels certify and the solve is not tight
        g = relaxation_gap_graph()
        monkeypatch.setattr(sdp, "_MAX_ITERS", 1)
        monkeypatch.setattr(sdp, "_RESTARTS", 1)
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM_STAR, seed=0))
        assert not sol.diagnostics.converged
        assert not sol.certificate.tight

    def test_empty_graph_rejected(self):
        g = bs.Graph(n=0, edges=np.empty((0, 2), dtype=np.int64))
        with pytest.raises(EmptyGraphError):
            bs.solve_lagrangian_sdp(g, bs.SdpConfig())

    def test_single_node(self):
        g = bs.Graph.from_edges(1, [])
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(seed=0))
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert sol.rounded.shape == (1,)

    def test_mode_routing_enforced(self):
        g = two_cliques(3)
        with pytest.raises(ParameterError):
            bs.solve_balanced_sdp(g, bs.SdpConfig(lam=0.1))


class TestBalancedSolver:
    def test_disjoint_four_cliques(self):
        g = two_cliques(4)
        sol = bs.solve_balanced_sdp(g, bs.SdpConfig(seed=2))
        assert bs.partitions_equal(sol.rounded, g.truth)
        assert sol.rounded.sum() == 0
        assert sol.balance_residual <= 1e-3 * g.n
        assert sol.certificate.tight

    def test_structureless_k4(self):
        # every balanced labeling of K4 attains -4; enumeration confirms.
        # Imbalance strictly pays here (Tr(AX) = ||Y^T 1||^2 - 4), so the
        # projected iterate drifts off the balanced manifold and the
        # certificate must honestly report the resulting gap, which equals
        # the residual exactly.
        g = bs.sample_sbm(bs.SbmParams.explicit(2, 2, 1.0, 1.0), 0)
        best_obj, best_set = enumerate_optima(g, "balanced")
        assert best_obj == -4.0
        assert len(best_set) == 6
        sol = bs.solve_balanced_sdp(g, bs.SdpConfig(seed=0))
        assert int(np.sum(sol.rounded)) == 0
        assert sol.rounded_objective == -4.0
        assert sol.objective == pytest.approx(-4.0 + sol.balance_residual, abs=1e-9)
        assert sol.certificate.gap == pytest.approx(sol.balance_residual, abs=1e-9)

    def test_spec_instance_balanced(self):
        # n=12, p=0.9, q=0.05, seed 3: tight implies balanced-oracle agreement
        g = two_cliques(6, p=0.9, q=0.05, seed=3)
        sol = bs.solve_balanced_sdp(g, bs.SdpConfig(seed=3))
        mle, _ = bs.brute_force_mle(g, balanced=True)
        assert sol.certificate.tight
        assert bs.partitions_equal(sol.rounded, mle)

    def test_odd_n_rejected(self):
        g = bs.Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ParameterError):
            bs.solve_balanced_sdp(g, bs.SdpConfig())
        with pytest.raises(ParameterError, match="even"):
            bs.round_solution(np.ones((3, 2)), balanced=True)

    def test_rounded_always_balanced(self):
        rng = np.random.default_rng(13)
        for seed in range(8):
            g = random_graph(10, float(rng.uniform(0.2, 0.8)), rng)
            sol = bs.solve_balanced_sdp(g, bs.SdpConfig(seed=seed))
            assert int(np.sum(sol.rounded)) == 0


class TestRounding:
    def test_rank_one_identity(self):
        x = np.array([1, 1, -1, -1, 1], dtype=np.float64)
        labels = bs.round_solution(x[:, None])
        assert bs.partitions_equal(labels, x.astype(np.int8))

    def test_equal_rows_one_side(self):
        y = np.tile(np.array([0.6, 0.8]), (5, 1))
        labels = bs.round_solution(y)
        assert np.all(labels == labels[0])
        # a zero factor has every vector as a leading eigenvector: no nan, no warning
        assert bs.is_complete(bs.round_solution(np.zeros((5, 2))))

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            y = rng.standard_normal((6, 3))
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            vals, vecs = np.linalg.eigh(y @ y.T)
            lead = vecs[:, -1]
            if np.abs(lead).min() < 1e-8 or vals[-1] - vals[-2] < 1e-6:
                continue  # sign pattern not well defined
            want = np.where(lead >= 0, 1, -1).astype(np.int8)
            assert bs.partitions_equal(bs.round_solution(y), want)

    def test_slow_spectrum_is_exact(self):
        # eigenvalue ratio 0.999, which a power iteration would crawl through
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        y = q @ np.diag(np.sqrt([1.0, 0.999, 0.1]))
        v, ok, _ = bs.leading_eigenvector(y)
        assert ok
        lead = np.linalg.eigh(y @ y.T)[1][:, -1]
        assert np.abs(v - np.copysign(1.0, v @ lead) * lead).max() < 1e-10

    def test_rank_one_factor_is_signed_by_the_start_vector(self):
        x = np.array([1.0, -1.0, 1.0])
        v, ok, iters = bs.leading_eigenvector(x[:, None])
        assert ok
        assert np.abs(np.abs(v) - 1 / math.sqrt(3)).max() < 1e-6
        # the sign a power iteration from the fixed start vector converges to
        assert v @ sdp._start_vector(3) >= 0

    def test_start_vector_is_shared_and_read_only(self):
        v0 = sdp._start_vector(7)
        assert sdp._start_vector(7) is v0
        want = np.random.default_rng(sdp._START_SEED).standard_normal(7)
        assert np.array_equal(v0, want / np.linalg.norm(want))
        with pytest.raises(ValueError):
            v0[0] = 0.0
        with pytest.raises(ValueError):
            v0 *= 2.0
        assert np.array_equal(sdp._start_vector(7), want / np.linalg.norm(want))


class TestBruteForce:
    def test_two_triangles_balanced(self):
        g = two_cliques(3)
        labels, obj = bs.brute_force_mle(g, balanced=True)
        assert obj == 12.0
        assert bs.partitions_equal(labels, g.truth)

    def test_path_graph_balanced(self):
        g = bs.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        labels, obj = bs.brute_force_mle(g, balanced=True)
        assert obj == 2.0
        assert labels.tolist() == [1, 1, -1, -1]

    def test_tie_break_prefers_leading_plus_ones(self):
        g = bs.Graph.from_edges(4, [])
        labels, obj = bs.brute_force_mle(g, balanced=True)
        assert obj == 0.0
        assert labels.tolist() == [1, 1, -1, -1]
        labels2, _ = bs.brute_force_mle(bs.Graph.from_edges(2, []), lam=0.0)
        assert labels2.tolist() == [1, 1]

    def test_matches_enumeration_all_modes(self):
        rng = np.random.default_rng(55)
        for trial in range(25):
            n = int(rng.integers(3, 9))
            g = random_graph(n, float(rng.uniform(0.2, 0.9)), rng)
            mode = ("balanced", "lam")[trial % 2]
            if mode == "balanced":
                if n % 2:
                    n += 1
                    g = random_graph(n, 0.5, rng)
                labels, obj = bs.brute_force_mle(g, balanced=True)
                want_obj, want_set = enumerate_optima(g, "balanced")
            else:
                lam = float(rng.uniform(0.0, 1.0))
                labels, obj = bs.brute_force_mle(g, lam=lam)
                want_obj, want_set = enumerate_optima(g, "lam", lam)
            assert obj == pytest.approx(want_obj, rel=1e-12, abs=1e-12)
            assert tuple(int(v) for v in labels) in want_set

    def test_capacity_cap(self):
        g = bs.Graph.from_edges(23, [(0, 1)])
        with pytest.raises(CapacityError):
            bs.brute_force_mle(g, balanced=False, lam=0.0)

    def test_mode_selection_errors(self):
        g = two_cliques(3)
        with pytest.raises(ParameterError):
            bs.brute_force_mle(g)
        with pytest.raises(ParameterError):
            bs.brute_force_mle(g, balanced=True, lam=0.1)
        with pytest.raises(ParameterError):
            bs.brute_force_mle(bs.Graph.from_edges(3, []), balanced=True)
        with pytest.raises(TypeError):  # the exact-size mode is gone
            bs.brute_force_mle(g, size=3)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_rejects_bad_multiplier(self, lam):
        # the multipliers the solvers reject
        with pytest.raises(ParameterError, match="lambda"):
            bs.brute_force_mle(two_cliques(3), lam=lam)


class TestCertificate:
    """The restarts' agreement test and the certificate's printed form; whether
    a certificate is tight is the dual check's verdict alone."""

    def test_arithmetic_example(self):
        assert not sdp._agrees(24.0, 23.5) and not sdp._agrees(23.5, 24.0)
        assert str(bs.Certificate(tight=False, gap=0.5)) == "not-tight(0.5)"

    def test_zero_gap_tight(self):
        assert sdp._agrees(24.0, 24.0)
        assert str(bs.Certificate(tight=True, gap=0.0)) == "tight"
        # a tight certificate prints the same whatever gap it reports
        assert str(bs.Certificate(tight=True, gap=0.5)) == "tight"

    def test_agreement_tolerance_scales(self):
        # the tolerance is 1e-6 (1 + |larger value|): 1.001e-3 at 1000
        assert sdp._agrees(1000.0, 1000.0 - 9e-4)
        assert not sdp._agrees(1000.0, 1000.0 - 2e-3)
        assert sdp._agrees(0.0, -9e-7)
        assert not sdp._agrees(0.0, -2e-6)


class TestDualCertificate:
    @settings(max_examples=150, deadline=None)
    @given(k1=st.integers(1, 7), k2=st.integers(1, 7),
           pq=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
           graph_seed=st.integers(0, 2**32 - 1), mu=st.floats(0.0, 1.5),
           pick=st.sampled_from(["truth", "mle", "random"]),
           label_seed=st.integers(0, 2**32 - 1))
    @example(k1=6, k2=7, pq=[0.0, 0.140625], graph_seed=6, mu=5.960464477539063e-08,
             pick="mle", label_seed=0)
    def test_lanczos_verdict_matches_dense_and_oracle(self, k1, k2, pq, graph_seed, mu,
                                                      pick, label_seed):
        # both branches on every example: the dense Cholesky one that these
        # sizes' dense operator routes to, and the Lanczos one of a CSR. The
        # pinned example's mle labels have lambda_min(S) = -4 tol, hidden by a
        # cluster of 5 eigenvalues: at step 9 the smallest Ritz value is +4 tol
        # with its residual within tol, which the Lanczos check must not accept
        q, p = pq
        g = bs.sample_sbm(bs.SbmParams.explicit(k1, k2, p, q), graph_seed)
        if pick == "truth":
            x = g.truth
        elif pick == "mle":
            x, _ = bs.brute_force_mle(g, lam=mu)
        else:
            x = np.random.default_rng(label_seed).choice([-1, 1], g.n).astype(np.int8)
        obj = bs.labeling_objective(g, x, lam=mu)
        tol = sdp._DUAL_RTOL * (1.0 + abs(obj))
        lmin = dense_lambda_min(g, x, mu)
        verdicts = dual_verdicts(g, x, mu, tol)
        # the solve's own check: its objective and its routed verdict
        assert sdp._certify(sdp._operator(g), x, mu, mu) == (obj, verdicts[0])
        for certified in verdicts:
            if not -2.0 * tol <= lmin <= -0.5 * tol:  # verdicts compared clear of tol only
                assert certified == (lmin >= -tol)
            if certified:
                # S >= -tol I bounds the relaxation, hence every labeling, by obj + n tol
                slack = g.n * tol
                assert obj == pytest.approx(bs.brute_force_mle(g, lam=mu)[1], rel=0, abs=slack)
                if x.sum() == 0:  # any mu certifies a balanced x for the balanced program
                    assert bs.labeling_objective(g, x) == pytest.approx(
                        bs.brute_force_mle(g, balanced=True)[1], rel=0, abs=slack)

    @pytest.mark.parametrize("n, edges", [(1, []), (2, []), (2, [(0, 1)]), (6, []),
                                          (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])])
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_dense_check_on_tiny_and_edgeless_graphs(self, n, edges, mu):
        g = bs.Graph.from_edges(n, edges)
        for x in map(np.array, itertools.product((1, -1), repeat=g.n)):
            obj = bs.labeling_objective(g, x, lam=mu)
            tol = sdp._DUAL_RTOL * (1.0 + abs(obj))
            dense, lanczos = dual_verdicts(g, x, mu, tol)
            assert dense == lanczos == (dense_lambda_min(g, x, mu) >= -tol)
            if dense:
                assert obj == bs.brute_force_mle(g, lam=mu)[1]

    def test_branches_agree_at_the_crossover(self):
        # explicit graphs on either side of the constant, above and below the
        # recovery threshold: both branches and the routed check agree
        verdicts = []
        for n in (sdp._DENSE_DUAL_MAX, sdp._DENSE_DUAL_MAX + 1):
            for alpha, beta in ((30.0, 2.0), (3.0, 1.0)):
                rates = bs.SbmParams.from_rates(sdp._DENSE_DUAL_MAX, alpha, beta)
                mu = bs.lambda_star(rates.p, rates.q)
                for seed in range(3):
                    g = bs.sample_sbm(bs.SbmParams.explicit(n // 2, n - n // 2, rates.p,
                                                            rates.q), seed)
                    for x in (g.truth, sdp._spectral_labels(g.adjacency, mu, False)):
                        tol = sdp._DUAL_RTOL * (1.0 + abs(bs.labeling_objective(g, x, lam=mu)))
                        dense, lanczos = dual_verdicts(g, x, mu, tol)
                        _, routed = sdp._certify(sdp._operator(g), x, mu, mu)
                        assert dense == lanczos == routed
                        lmin = dense_lambda_min(g, x, mu)
                        if not -2.0 * tol <= lmin <= -0.5 * tol:
                            assert dense == (lmin >= -tol)
                        verdicts.append(dense)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur

    def test_certified_spectral_labels_skip_the_ascent(self):
        g = two_cliques(4)
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM_STAR, seed=1))
        d = sol.diagnostics
        assert sol.certificate.tight and sol.certificate.gap == 0.0
        assert bs.partitions_equal(sol.rounded, g.truth)
        assert sol.objective == sol.rounded_objective
        assert sol.iterations == d.iterations_total == d.restarts_used == 0
        assert d.converged
        assert d.restart_objectives.tolist() == [sol.objective]
        # the returned factor is the rank-1 labeling, a stationary point
        assert sol.factor.shape == (g.n, 1)
        assert bs.partitions_equal(sol.rounded, sol.factor[:, 0].astype(np.int8))
        _, grad = objective_and_gradient(g.adjacency, sol.factor, LAM_STAR)
        assert not np.any(grad - np.sum(grad * sol.factor, axis=1, keepdims=True) * sol.factor)

    def test_certified_restart_stops_the_solve(self, monkeypatch):
        # all-ones labels are not optimal here, so they fail the dual check
        monkeypatch.setattr(sdp, "_spectral_labels",
                            lambda adj, mu, balanced: np.ones(adj.shape[0], dtype=np.int8))
        g = two_cliques(4)
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM_STAR, seed=1))
        assert sol.certificate.tight
        assert sol.diagnostics.restarts_used == 1 == len(sol.diagnostics.restart_objectives)

    @settings(max_examples=80, deadline=None)
    @given(k1=st.integers(1, 7), k2=st.integers(1, 7),
           pq=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
           graph_seed=st.integers(0, 2**32 - 1), mu=st.floats(0.0, 1.5),
           balanced=st.booleans())
    def test_spectral_skip_attains_the_exhaustive_optimum(self, k1, k2, pq, graph_seed,
                                                          mu, balanced):
        q, p = pq
        if balanced:
            k2 = k1
        g = bs.sample_sbm(bs.SbmParams.explicit(k1, k2, p, q), graph_seed)
        if balanced:
            sol = bs.solve_balanced_sdp(g, bs.SdpConfig())
            mu, best = 0.0, bs.brute_force_mle(g, balanced=True)[1]
        else:
            sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=mu))
            best = bs.brute_force_mle(g, lam=mu)[1]
        if sol.diagnostics.restarts_used == 0:
            obj = bs.labeling_objective(g, sol.rounded, lam=mu)
            assert sol.certificate.tight and sol.diagnostics.iterations_total == 0
            # the labels are the rounding of the returned factor, sign included
            assert np.array_equal(sol.rounded, bs.round_solution(sol.factor, balanced))
            assert sol.certificate.gap == 0.0 and sol.rounded_objective == obj
            assert obj == pytest.approx(best, rel=0, abs=g.n * sdp._DUAL_RTOL * (1.0 + abs(obj)))

    def test_unconverged_restart_certifies(self, monkeypatch):
        # TestGoldenSolve's certified_restart graph: the spectral labels fail
        # the dual check and restart 0's labels pass it. Reported capped,
        # restart 0 still ends the solve tight on the same labels: the proof is
        # the dual check on the labels alone, whatever the ascent reports
        g, seed = sketched_graph(341)
        full = bs.SbmParams.from_rates(400, 30.0, 2.0)
        cfg = bs.SdpConfig(lam=bs.lambda_star(full.p, full.q), seed=seed)
        ref = bs.solve_lagrangian_sdp(g, cfg)
        assert ref.certificate.tight and ref.diagnostics.restarts_used == 1
        ascent = sdp._ascent
        monkeypatch.setattr(sdp, "_ascent",
                            lambda *args: ascent(*args)._replace(converged=False))
        sol = bs.solve_lagrangian_sdp(g, cfg)
        assert sol.certificate.tight and not sol.diagnostics.converged
        assert sol.diagnostics.restarts_used == 1
        assert np.array_equal(sol.rounded, ref.rounded)
        assert sol.certificate == ref.certificate

    def test_uncertified_solve_stops_on_a_rank_deficient_restart(self):
        g = relaxation_gap_graph()
        cfg = bs.SdpConfig(lam=LAM_STAR, seed=6)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        assert not sol.certificate.tight
        # restart 0's factor is rank-deficient, which ends the solve
        assert sol.diagnostics.restarts_used == 1 == len(sol.diagnostics.restart_objectives)
        # it returns the partition that running every restart would
        outs = [sdp._ascent(g.adjacency, LAM_STAR, False, rng_for(cfg.seed, STREAM_SDP, k))
                for k in range(sdp._RESTARTS)]
        best = max(outs, key=lambda out: out.objective)
        assert bs.partitions_equal(sol.rounded, bs.round_solution(best.factor))

    def test_unconverged_restarts_never_agree(self, monkeypatch):
        g = relaxation_gap_graph()
        cfg = bs.SdpConfig(lam=LAM_STAR, seed=6)
        with monkeypatch.context() as m:
            m.setattr(sdp, "_MAX_ITERS", 1)
            sol = bs.solve_lagrangian_sdp(g, cfg)
        assert not sol.diagnostics.converged
        assert sol.diagnostics.restarts_used == sdp._RESTARTS
        # restarts that agree on objective and partition but report the cap
        ascent = sdp._ascent

        def capped(*args):
            return ascent(*args)._replace(converged=False)

        monkeypatch.setattr(sdp, "_ascent", capped)
        assert bs.solve_lagrangian_sdp(g, cfg).diagnostics.restarts_used == sdp._RESTARTS

    def test_lanczos_nonconvergence_is_not_tight(self, monkeypatch):
        g = two_cliques(sdp._DENSE_DUAL_MAX // 2 + 1)  # above the dense check's size
        assert g.n > sdp._DENSE_DUAL_MAX
        cfg = bs.SdpConfig(lam=LAM_STAR, seed=1)
        assert bs.solve_lagrangian_sdp(g, cfg).certificate.tight
        monkeypatch.setattr(sdp, "_LANCZOS_STEPS", 1)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        assert sol.certificate.gap <= 1e-6 * (1.0 + abs(sol.objective))
        assert not sol.certificate.tight
        assert sol.diagnostics.restarts_used == 1  # restart 0 is rank-deficient

    def test_nan_eigensolves_neither_certify_nor_stop(self, monkeypatch):
        # an eigensolver that fails to converge returns NaNs from sdp._eigh.
        # Labels all +1 on an edgeless 200-node CSR at mu = 0.5 have
        # S = 0.5 J - 100 I, and their Krylov space is invariant at step 2: a
        # NaN smallest Ritz value must reject there, not reach the acceptance
        def nan_eigh(a):
            return np.full(a.shape[0], np.nan), np.full(a.shape, np.nan)

        edgeless, x = bs.Graph.from_edges(200, []), np.ones(200, dtype=np.int8)
        assert dense_lambda_min(edgeless, x, 0.5) == pytest.approx(-100.0)
        # TestRankStop's control graph 0: restart 0 is rank-deficient and ends
        # the solve. With NaN Gram eigenvalues the rank stop must not fire, and
        # with NaN Ritz values no dual check may certify, so the solve runs on
        # until restart 1 confirms restart 0
        g = bs.sample_sbm(TestRankStop.CONTROL, 0)
        cfg = bs.SdpConfig(lam=TestRankStop.LAM, seed=0)
        assert bs.solve_lagrangian_sdp(g, cfg).diagnostics.restarts_used == 1
        monkeypatch.setattr(sdp, "_eigh", nan_eigh)
        assert sdp._certify(edgeless.adjacency, x, 0.0, 0.5) == (0.0, False)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        assert not sol.certificate.tight and sol.diagnostics.restarts_used == 2
        first = sdp._ascent(sdp._operator(g), TestRankStop.LAM, False,
                            rng_for(0, STREAM_SDP, 0))
        assert sol.objective == first.objective

    def test_import_loads_no_scipy_eigensolvers(self, src_env):
        # importing the package loads neither scipy nor a process pool; a
        # threshold-shaped sweep solves every graph, the full n = 400 ones
        # included, on a dense operator and loads no scipy either, and at
        # jobs=2 it forks its worker without multiprocessing or
        # concurrent.futures; the first CSR, of a graph above the dense size
        # too sparse for a dense operator, imports scipy.sparse
        gammas = [c * bs.gamma_star(30.0, 2.0) for c in (0.5, 1, 2, 3)] + [1.0]
        code = "\n".join([
            "import sys, blocksketch as bs",
            "def loaded(prefixes=('scipy', 'multiprocessing', 'concurrent.futures')):",
            "    return sorted(m for m in sys.modules if m.startswith(prefixes))",
            "print(loaded())",
            f"t = bs.run_sweep([400], [30.0], [2.0], {gammas!r}, trials=2, master_seed=0)",
            f"t2 = bs.run_sweep([400], [30.0], [2.0], {gammas!r}, trials=2, master_seed=0, jobs=2)",
            "print(loaded(), t.cells[-1].gamma, t.cells[-1].successes,",
            "      [c.successes for c in t2.cells] == [c.successes for c in t.cells])",
            "params = bs.SbmParams.from_rates(400, 10.0, 1.0)",
            "g = bs.sample_sbm(params, 0)",
            "lam = bs.lambda_star(params.p, params.q)",
            "sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=lam, seed=1))",
            "print('scipy.sparse' in sys.modules)",
            "from scipy.sparse import csr_matrix",
            "print(isinstance(g.adjacency, csr_matrix), type(sol).__name__,",
            "      bs.partitions_equal(sol.rounded, g.truth))",
        ])
        out = subprocess.run([sys.executable, "-c", code], env=src_env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["[]", "[] 1.0 2 True", "True",
                                           "True SdpSolution True"]


def full(model, seed):
    """(graph, lambda_star) of a full SBM sample of the model (n, alpha, beta)."""
    params = bs.SbmParams.from_rates(*model)
    return bs.sample_sbm(params, seed), bs.lambda_star(params.p, params.q)


def two_round_spectral_labels(adj, mu, balanced):
    """sdp._spectral_labels with both cleanup rounds always run, through
    numpy.linalg's own eigh: the reference for the cleanup's early end."""
    n = adj.shape[0]
    for basis, tri, _ in sdp._lanczos(lambda v: adj @ v - mu * v.sum(), n,
                                      min(n, sdp._SPECTRAL_STEPS)):
        pass
    u = np.linalg.eigh(tri)[1][:, -1]
    v = basis.T @ (u if u[0] >= 0.0 else -u)
    if balanced:
        return sdp._split_at_median(v)
    x = np.where(v >= 0.0, 1.0, -1.0)
    for _ in range(2):
        z = adj @ x - mu * x.sum()
        x = np.where(z > 0.0, 1.0, np.where(z < 0.0, -1.0, x))
    return x.astype(np.int8)


def dense_and_sparse_cases():
    """(graph, mu): SBM graphs of at most 40 nodes, edgeless graphs, the
    crossover graphs of test_branches_agree_at_the_crossover, and two full
    graphs above it: the paper's dense n = 400 one (alpha 30, beta 2) and a
    sparse n = 300 one (alpha 3, beta 1)."""
    small = st.builds(
        lambda k1, k2, pq, seed, mu: (bs.sample_sbm(bs.SbmParams.explicit(
            k1, k2, pq[1], pq[0]), seed), mu),
        st.integers(1, 20), st.integers(1, 20),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        st.integers(0, 2**32 - 1), st.floats(0.0, 1.5))
    edgeless = st.builds(lambda n, mu: (bs.Graph.from_edges(n, []), mu),
                         st.integers(1, 40), st.floats(0.0, 1.5))

    def crossover(n, rates, seed):
        rates = bs.SbmParams.from_rates(sdp._DENSE_DUAL_MAX, *rates)
        g = bs.sample_sbm(bs.SbmParams.explicit(n // 2, n - n // 2, rates.p, rates.q), seed)
        return g, bs.lambda_star(rates.p, rates.q)

    large = st.one_of(
        st.builds(crossover, st.sampled_from([sdp._DENSE_DUAL_MAX, sdp._DENSE_DUAL_MAX + 1]),
                  st.sampled_from([(30.0, 2.0), (3.0, 1.0)]), st.integers(0, 2)),
        st.builds(full, st.sampled_from([(400, 30.0, 2.0), (300, 3.0, 1.0)]), st.integers(0, 2)))
    return st.one_of(small, edgeless, large)


class TestDenseOperator:
    @settings(max_examples=60, deadline=None)
    @given(case=dense_and_sparse_cases(), balanced=st.booleans(), seed=st.integers(0, 99))
    # a balanced candidate whose Ritz vector, unsigned, split into complements
    # under the two operators; an edgeless graph; the paper's dense full graph
    @example(case=full((300, 3.0, 1.0), 1), balanced=True, seed=0)
    @example(case=(bs.Graph.from_edges(12, []), 0.5), balanced=False, seed=0)
    @example(case=full((400, 30.0, 2.0), 0), balanced=False, seed=0)
    def test_dense_and_sparse_operators_agree(self, case, balanced, seed):
        g, mu = case
        op = sdp._operator(g)
        csr = g.adjacency
        dense = csr.toarray()
        if g.n <= sdp._DENSE_DUAL_MAX or (g.n <= sdp._DENSE_OPERATOR_MAX
                                          and 2 * g.m >= sdp._DENSE_MIN_FILL * g.n ** 2):
            assert isinstance(op, np.ndarray) and np.array_equal(op, dense)
        else:
            assert op is csr
        lam, mu = (0.0, 1.0) if balanced else (mu, mu)  # as in sdp._solve
        labels = [sdp._spectral_labels(a, mu, balanced) for a in (dense, csr)]
        for a, x in zip((dense, csr), labels):
            assert np.array_equal(x, two_round_spectral_labels(a, mu, balanced))
        if g.n > 40 or not g.m:
            assert np.array_equal(*labels)
        # else not always: on small graphs with tied or vanishing eigenvector
        # entries (twin or isolated nodes) those entries' signs are rounding
        # noise under either operator, and the summation order differs
        for x in labels:
            # the solve's objective through either operator is labeling_objective's
            # float, at lambda = 0 and at the case's multiplier. At the solve's own
            # lambda, one of the two, up to _DENSE_DUAL_MAX nodes the dense
            # operator's Cholesky verdict and the CSR's Lanczos verdict, above it
            # both operators' Lanczos, match the dense lambda_min
            tol = sdp._DUAL_RTOL * (1.0 + abs(bs.labeling_objective(g, x, lam=lam)))
            lmin = dense_lambda_min(g, x, mu)
            for a, lam_x in itertools.product((dense, csr), (0.0, case[1])):
                obj, certified = sdp._certify(a, x, lam_x, mu)
                assert obj == bs.labeling_objective(g, x, lam=lam_x)
                if lam_x == lam and not -2.0 * tol <= lmin <= -0.5 * tol:
                    assert certified == (lmin >= -tol)
        # the same ascent, up to the summation order of the products
        outs = [sdp._ascent(a, lam, balanced, np.random.default_rng(seed))
                for a in (dense, csr)]
        assert outs[0].iterations == outs[1].iterations
        assert outs[0].converged == outs[1].converged
        np.testing.assert_allclose(outs[0].objectives, outs[1].objectives, rtol=1e-12, atol=0)


class TestAscentKernels:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), density=st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
           r=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_csr_product_equals_scipy_matmul(self, n, density, r, seed):
        # the ascent calls scipy's private CSR kernel itself; a scipy release
        # that moves or changes it must fail here. Sparse draws leave isolated
        # nodes, density 0 has no edge, and r > n on small graphs
        rng = np.random.default_rng(seed)
        g = random_graph(n, density, rng)
        csr = g.adjacency
        y = rng.standard_normal((n, r))
        ay = sdp._product(csr, r)(y)
        want = csr @ y
        assert ay.shape == want.shape and ay.dtype == want.dtype
        assert np.array_equal(ay, want)
        dense = csr.toarray()
        assert np.array_equal(sdp._product(dense, r)(y), dense @ y)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_lapack_helpers_equal_numpy_linalg(self, n, seed):
        # the solver calls numpy.linalg's LAPACK gufuncs itself; a numpy release
        # that moves or changes them must fail here. Eigenproblems: a symmetric
        # matrix, a leading block of a tridiagonal, a strided view as _lanczos
        # yields it, and a 1 x 1; Cholesky: positive definite, indefinite, and
        # a NaN on the diagonal. None may warn
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        sym = a + a.T
        tri = np.zeros((n + 1, n + 1))
        i = np.arange(n)
        tri[i, i] = rng.standard_normal(n)
        tri[i[1:], i[:-1]] = tri[i[:-1], i[1:]] = rng.random(n - 1)
        pd = a @ a.T + np.eye(n)
        indefinite = pd - (np.linalg.eigvalsh(pd)[0] + 1.0) * np.eye(n)  # lambda_min -1
        nan_diagonal = pd.copy()
        nan_diagonal[(k := rng.integers(n)), k] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (sym, tri[:n, :n], sym[:1, :1]):
                w, v = sdp._eigh(m)
                want_w, want_v = np.linalg.eigh(m)
                assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
            verdicts = []
            for m in (pd, indefinite, nan_diagonal):
                try:
                    np.linalg.cholesky(m)
                except np.linalg.LinAlgError:
                    verdicts.append(False)
                else:
                    verdicts.append(True)
                assert sdp._has_cholesky(m) == verdicts[-1]
            assert verdicts[:2] == [True, False]


class TestGoldenAscent:
    """Seeded ascents pinned to the bit: SHA-256 of the factor's bytes, then the
    accepted objectives and the final one as float64, then (iterations,
    converged) as int64. One n = 400 graph (alpha 10, beta 2, a CSR under
    `_operator`) is multiplied as a CSR and as a dense array, on both programs;
    a control graph below the threshold runs to its stop rule and to a short
    iteration cap. The ascents run in a fresh interpreter on one BLAS thread, as
    perfbench runs them, since the dense products' sums follow the thread
    count. The digests were recorded before the ascent's per-iteration
    arithmetic was regrouped, which must keep every bit. A numpy or BLAS change
    that reorders a sum can legitimately move them; any other change that moves
    one changed the ascent's arithmetic."""

    ASCENTS = {  # model, dense, balanced, max_iters, iterations, converged, digest
        "csr_lagrangian": ((400, 10, 2), False, False, 500, 27, True,
                           "38feeab9d62a3ef7fcdc5abbf8ce477674d0b72da56522c364727fbfaa219fd4"),
        "csr_balanced": ((400, 10, 2), False, True, 500, 25, True,
                         "f38414f1451b1de7e8b224a75aa48707a325a933b392359e78dae8ba200ce4d1"),
        "dense_lagrangian": ((400, 10, 2), True, False, 500, 27, True,
                             "b2597f521776389892f2429856f10e639e977ba22c71309a3be75ea2c23b0c2c"),
        "dense_balanced": ((400, 10, 2), True, True, 500, 25, True,
                           "36b3457f1770177feaed4e079fa986044f92b543815866a4a302a02dec1cd22a"),
        "control_lagrangian": ((300, 3, 1), False, False, 500, 123, True,
                               "e323671fc6ea7d88654bd9f0a7ce953a4580b0dfc23fa56a54f506c44efce5ea"),
        "control_capped": ((300, 3, 1), False, False, 40, 40, False,
                           "cf536ac7a708f06870a52ddbc6573f2c7be2712d7ffcdb0a356388e290c77873"),
    }

    RUN = """
import hashlib, json, sys
import numpy as np
import blocksketch as bs
from blocksketch import sdp
from blocksketch.rng import STREAM_SDP, rng_for
result = {}
for name, (model, dense, balanced, max_iters, *_) in json.loads(sys.argv[1]).items():
    params = bs.SbmParams.from_rates(*model)
    g = bs.sample_sbm(params, 0)
    adj = g.adjacency.toarray() if dense else g.adjacency
    lam = 0.0 if balanced else bs.lambda_star(params.p, params.q)
    sdp._MAX_ITERS = max_iters
    out = sdp._ascent(adj, lam, balanced, rng_for(7, STREAM_SDP, 0))
    h = hashlib.sha256(out.factor.tobytes())
    h.update(np.asarray(out.objectives + [out.objective], dtype=np.float64).tobytes())
    h.update(np.array([out.iterations, out.converged], dtype=np.int64).tobytes())
    result[name] = [out.iterations, out.converged, h.hexdigest()]
print(json.dumps(result))
"""

    @pytest.fixture(scope="class")
    def ascents(self, src_env):
        """{name: [iterations, converged, digest]} of every pinned ascent."""
        env = dict(src_env, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
        out = subprocess.run([sys.executable, "-c", self.RUN, json.dumps(self.ASCENTS)],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    @pytest.mark.parametrize("name", sorted(ASCENTS))
    def test_ascent(self, name, ascents):
        *_, iterations, converged, want = self.ASCENTS[name]
        assert ascents[name] == [iterations, converged, want]


class TestGoldenSolve:
    """Seeded solves pinned to the bit, one for each way a solve ends: SHA-256
    of the factor's bytes and the labels, then the objective, the rounded
    objective, the gap and the restart objectives as float64, then
    (iterations_total, restarts_used, converged, tight, iterations) as int64.
    The graphs: the paper's full n = 400 graph (alpha 30, beta 2), whose
    spectral labels certify; sketched subgraphs of it at half the threshold
    rate, seeded as tools/replay_solver.py seeds them, where graph 341's
    restart 0 certifies and graph 66's balanced restart 1 confirms restart 0;
    and control graphs below the threshold (n = 300, alpha 3, beta 1), where
    graph 0's Lagrangian restart 0 is rank-deficient, the full-rank restart 0
    of seed_sequence(555000, 12) is confirmed by restart 1, and the balanced
    restarts of graph 0 of tools/replay_solver.py's control cell run to the
    restart bound: restart 1 rounds to restart 0's partition but its objective
    does not agree. The solves run in a fresh interpreter on one BLAS thread,
    as TestGoldenAscent's do. The digests were recorded before the restart
    loop was restructured, which must keep every bit."""

    SOLVES = {  # name: restarts_used, tight, digest
        "spectral_skip": [0, True,
            "4e9b35c8f3b735ec2d32e270fed308f3dc9803e50ae43a5d4e384040f19c22c6"],
        "certified_restart": [1, True,
            "118f51da55bbeb24e780e3abd036f7d4b4aeab56c4fcf7df924bd24ebff63a2d"],
        "rank_stop": [1, False,
            "83600ec2ec2636f8a89595977027cb2767ab1f182322bf350759b31b3cbb5e67"],
        "lagrangian_confirmation": [2, False,
            "3279750132c92a0f8ffa77abb2924da7256c7b3c4cad06d08cf02a66b4ae9403"],
        "balanced_confirmation": [2, False,
            "707766f797027631f68a8468eee939d0ba4a777c1167127ffed68f4675293175"],
        "restart_bound": [5, False,
            "a78868bca0b168b65384caa38814e902989356cecb4f221095b79321fc7a0a68"],
    }

    RUN = """
import hashlib, json
import numpy as np
import blocksketch as bs
FULL = bs.SbmParams.from_rates(400, 30.0, 2.0)
CONTROL = bs.SbmParams.from_rates(300, 3.0, 1.0)

def sketched(i):
    seed = bs.seed_sequence(20261020, 0, i)
    kept = bs.subsample_nodes(FULL.n, 0.5 * bs.gamma_star(30.0, 2.0), seed)
    return bs.induced_subgraph(bs.sample_sbm(FULL, seed), kept)[0], seed

def control(seed):
    return bs.sample_sbm(CONTROL, seed), seed

def lagrangian(params, g, seed):
    lam = bs.lambda_star(params.p, params.q)
    return bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=lam, seed=seed))

def balanced(g, seed):
    return bs.solve_balanced_sdp(g, bs.SdpConfig(seed=seed))

SOLVES = {
    "spectral_skip": lambda: lagrangian(FULL, bs.sample_sbm(FULL, 0), 0),
    "certified_restart": lambda: lagrangian(FULL, *sketched(341)),
    "rank_stop": lambda: lagrangian(CONTROL, *control(0)),
    "lagrangian_confirmation": lambda: lagrangian(CONTROL,
                                                  *control(bs.seed_sequence(555000, 12))),
    "balanced_confirmation": lambda: balanced(*sketched(66)),
    "restart_bound": lambda: balanced(*control(bs.seed_sequence(20261020, 2, 0))),
}
result = {}
for name, solve in SOLVES.items():
    sol = solve()
    d, cert = sol.diagnostics, sol.certificate
    h = hashlib.sha256(sol.factor.tobytes())
    h.update(sol.rounded.tobytes())
    h.update(np.array([sol.objective, sol.rounded_objective, cert.gap]).tobytes())
    h.update(d.restart_objectives.astype(np.float64).tobytes())
    h.update(np.array([d.iterations_total, d.restarts_used, d.converged, cert.tight,
                       sol.iterations], dtype=np.int64).tobytes())
    result[name] = [d.restarts_used, cert.tight, h.hexdigest()]
print(json.dumps(result))
"""

    @pytest.fixture(scope="class")
    def solves(self, src_env):
        """{name: [restarts_used, tight, digest]} of every pinned solve."""
        env = dict(src_env, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
        out = subprocess.run([sys.executable, "-c", self.RUN], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_solve(self, name, solves):
        assert solves[name] == self.SOLVES[name]


class TestLabelingObjective:
    def test_quadratic_form_with_penalty(self):
        g = two_cliques(3)
        x = g.truth
        a = g.adjacency.toarray()
        want = float(x @ a @ x)
        assert bs.labeling_objective(g, x) == want
        lam = 0.37
        x2 = np.ones(6, dtype=np.int8)
        want2 = float(x2 @ a @ x2) - lam * 36.0
        assert bs.labeling_objective(g, x2, lam=lam) == pytest.approx(want2, rel=1e-14)

    def test_numpy_float_multiplier(self):
        # a float32 multiplier gives the bits of the Python float of its value
        g, x, lam = two_cliques(3), np.ones(6, dtype=np.int8), np.float32(0.37)
        got = bs.labeling_objective(g, x, lam=lam)
        assert type(got) is float and got == bs.labeling_objective(g, x, lam=float(lam))

    def test_rejects_incomplete(self):
        g = two_cliques(3)
        with pytest.raises(ParameterError):
            bs.labeling_objective(g, [1, 1, 1, -1, -1, 0])
