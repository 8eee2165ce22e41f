"""Low-rank solver, rounding, certificate, and the exhaustive oracle."""
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
        # a performance setting, the same at every n; no n-dependent rule is left
        assert bs.SdpConfig().rank == 8
        assert not hasattr(bs, "default_rank") and not hasattr(sdp, "default_rank")

    def test_control_partitions_match_old_default(self):
        # below the threshold no certificate holds and the default rank must
        # land where rank 25, the old sqrt(2n) rule at n = 300, does
        params = bs.SbmParams.from_rates(300, 3.0, 1.0)
        lam = bs.lambda_star(params.p, params.q)
        for seed in range(5):
            g = bs.sample_sbm(params, seed)
            sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=lam, seed=seed))
            ref = bs.solve_lagrangian_sdp(g, bs.SdpConfig(rank=25, lam=lam, seed=seed))
            assert sol.factor.shape == (300, 8)
            assert bs.partitions_equal(sol.rounded, ref.rounded)
            assert sol.diagnostics.restarts_used == 2
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
            # within the gap test's tolerance, which restarts need to agree
            assert ref.objective - sol.objective <= 1e-6 * (1.0 + abs(ref.objective))
        assert (sum(s.diagnostics.iterations_total for s in default)
                < sum(s.diagnostics.iterations_total for s in tighter))


class TestEarlyConfirmation:
    CONTROL = bs.SbmParams.from_rates(300, 3.0, 1.0)
    LAM = bs.lambda_star(CONTROL.p, CONTROL.q)

    @staticmethod
    def to_stop_rule(monkeypatch):
        """Make every restart run to its own stop rule, as before the early
        confirmation: the ascent never receives a target, and a converged
        restart is checked against it afterwards."""
        ascent = sdp._ascent

        def at_stop(*args):
            out, balanced, confirm = ascent(*args[:7]), args[4], args[7]
            return out._replace(confirmed=bool(
                confirm and out.converged and sdp._agrees(out.objective, confirm[0])
                and bs.partitions_equal(bs.round_solution(out.factor, balanced), confirm[1])))

        monkeypatch.setattr(sdp, "_ascent", at_stop)

    @pytest.mark.parametrize("seed", range(3))
    def test_confirming_restart_stops_once_it_matches(self, seed, monkeypatch):
        # control graphs below the threshold, seeds fixed in advance: restart 0
        # converges uncertified, restart 1 confirms it before its stop rule
        g = bs.sample_sbm(self.CONTROL, seed)
        cfg = bs.SdpConfig(lam=self.LAM, seed=seed)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        d = sol.diagnostics
        first, second = (sdp._ascent(sdp._operator(g), g.n, cfg.rank, self.LAM, False,
                                     cfg.max_iters, rng_for(seed, STREAM_SDP, k))
                         for k in range(2))
        assert first.converged and second.converged
        assert d.restarts_used == 2 and d.converged
        assert first.iterations < d.iterations_total < first.iterations + second.iterations
        # the converged restart stays the best, and the confirming one reached
        # its objective to within the gap test's tolerance
        assert sol.objective == d.restart_objectives[0] == first.objective
        assert sol.iterations == first.iterations
        f0 = d.restart_objectives[0]
        assert d.restart_objectives[1] >= f0 - 1e-6 * (1.0 + abs(f0))
        self.to_stop_rule(monkeypatch)
        ref = bs.solve_lagrangian_sdp(g, cfg)
        assert ref.diagnostics.iterations_total == first.iterations + second.iterations
        assert bs.partitions_equal(sol.rounded, ref.rounded)
        assert sol.diagnostics.restarts_used == ref.diagnostics.restarts_used
        assert sol.certificate.tight == ref.certificate.tight

    def test_confirmed_restart_and_mismatch(self):
        g = bs.sample_sbm(self.CONTROL, 0)
        adj = sdp._operator(g)

        def ascent(confirm=None):
            return sdp._ascent(adj, g.n, 8, self.LAM, False, 500,
                               rng_for(0, STREAM_SDP, 1), confirm)

        full = ascent()
        labels = bs.round_solution(full.factor)
        out = ascent((full.objective, -labels))  # the same partition, other sign
        assert out.confirmed and not out.converged
        assert out.iterations < full.iterations
        assert out.objectives == full.objectives[:out.iterations]
        # another partition is rounded once, then the stop rule decides: the
        # same run to the bit
        other = ascent((full.objective, np.ones_like(labels)))
        assert not other.confirmed and other.converged
        assert np.array_equal(other.factor, full.factor)
        assert other.objectives == full.objectives
        # an objective the restart never reaches leaves it unconfirmed too
        assert not ascent((full.objective + 1.0, labels)).confirmed

    def test_balanced_solve_is_unchanged(self, monkeypatch):
        g = bs.sample_sbm(self.CONTROL, 0)
        ascent, calls = sdp._ascent, []

        def watched(*args):
            calls.append((args, ascent(*args)))
            return calls[-1][1]

        with monkeypatch.context() as mp:
            mp.setattr(sdp, "_ascent", watched)
            sol = bs.solve_balanced_sdp(g, bs.SdpConfig(seed=0))
        assert len(calls) == sol.diagnostics.restarts_used > 1
        assert any(args[7] is not None for args, _ in calls)
        # a target never cuts a balanced ascent short: each restart runs as
        # it does without one
        for k, (args, out) in enumerate(calls):
            ref = ascent(*args[:6], rng_for(0, STREAM_SDP, k), None)
            assert out.objectives == ref.objectives and out.converged == ref.converged
        self.to_stop_rule(monkeypatch)
        ref = bs.solve_balanced_sdp(g, bs.SdpConfig(seed=0))
        assert sol.diagnostics.iterations_total == ref.diagnostics.iterations_total
        assert np.array_equal(sol.diagnostics.restart_objectives,
                              ref.diagnostics.restart_objectives)
        assert np.array_equal(sol.rounded, ref.rounded)

    def test_confirming_restart_above_the_best_keeps_the_best(self):
        # graph 66 of tools/replay_solver.py's sketched battery, a balanced
        # solve on 24 nodes: both restarts converge uncertified, and restart 1
        # ends above restart 0 by less than the gap test's tolerance, on the
        # same partition. It confirms restart 0, which is returned
        full = bs.SbmParams.from_rates(400, 30.0, 2.0)
        seed = bs.seed_sequence(20261020, 0, 66)
        kept = bs.subsample_nodes(full.n, 0.5 * bs.gamma_star(30.0, 2.0), seed)
        g = bs.induced_subgraph(bs.sample_sbm(full, seed), kept)[0]
        assert g.n == 24
        cfg = bs.SdpConfig(seed=seed)
        sol = bs.solve_balanced_sdp(g, cfg)
        d = sol.diagnostics
        adj = sdp._operator(g)
        first, second = (sdp._ascent(adj, g.n, cfg.rank, 0.0, True, cfg.max_iters,
                                     rng_for(seed, STREAM_SDP, k)) for k in range(2))
        assert first.converged and second.converged
        assert first.objective < second.objective and sdp._agrees(first.objective,
                                                                  second.objective)
        assert d.restarts_used == 2 and d.converged
        assert d.iterations_total == first.iterations + second.iterations
        assert sol.objective == d.restart_objectives[0] == first.objective
        assert d.restart_objectives[1] == second.objective
        assert sol.iterations == first.iterations
        # the partition and verdict restart 1 would have given
        labels, _, cert = sdp._round_and_certify(g, adj, second.factor, second.objective,
                                                 True, 0.0, 1.0, True)
        assert bs.partitions_equal(sol.rounded, labels)
        assert not sol.certificate.tight and not cert.tight


class TestSdpConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            bs.SdpConfig(rank=1)
        with pytest.raises(ParameterError):
            bs.SdpConfig(max_iters=0)
        with pytest.raises(ParameterError):
            bs.SdpConfig(restarts=0)
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
            out = sdp._ascent(g.adjacency, g.n, bs.SdpConfig().rank, lam, balanced,
                              500, rng_for(0, STREAM_SDP, 0))
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
            out = sdp._ascent(g.adjacency, g.n, bs.SdpConfig().rank, lam, balanced, 500,
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
        # below the recovery threshold no restart passes the gap test and the
        # spectral candidate fails the dual check within a few Lanczos steps,
        # so nearly every product is the ascent's. Those bypass the CSR's `@`
        # and are counted at sdp._product
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

    def test_matmult_budget_spectral_skip(self):
        # full sample above the threshold, too sparse for a dense operator: the
        # spectral labels certify, and the solve costs the Krylov steps, two
        # cleanup rounds and the Lanczos dual check, all on the CSR
        params = bs.SbmParams.from_rates(400, 10, 1)
        g = bs.sample_sbm(params, 0)
        assert g.n > sdp._DENSE_DUAL_MAX and 2 * g.m < sdp._DENSE_MIN_FILL * g.n ** 2
        g.adjacency = CountingCSR(g.adjacency)
        sol = bs.solve_lagrangian_sdp(
            g, bs.SdpConfig(lam=bs.lambda_star(params.p, params.q)))
        assert sol.certificate.tight
        assert sol.diagnostics.iterations_total == 0
        assert sdp._SPECTRAL_STEPS + 2 < g.adjacency.calls
        assert g.adjacency.calls <= sdp._SPECTRAL_STEPS + 2 + sdp._LANCZOS_STEPS + 1

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

    def test_nonconvergence_blocks_certificate(self):
        g = relaxation_gap_graph()  # no spectral skip: the capped ascent is returned
        sol = bs.solve_lagrangian_sdp(
            g, bs.SdpConfig(lam=LAM_STAR, max_iters=1, restarts=1, seed=0))
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

    def test_power_iteration_converges_on_clean_gap(self):
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
    def test_arithmetic_example(self):
        cert = sdp._certificate_from_values(24.0, 23.5)
        assert not cert.tight
        assert cert.gap == 0.5
        assert str(cert) == "not-tight(0.5)"
        assert str(bs.Certificate(tight=False, gap=0.5)) == "not-tight(0.5)"

    def test_zero_gap_tight(self):
        cert = sdp._certificate_from_values(24.0, 24.0)
        assert cert.tight and cert.gap == 0.0
        assert str(cert) == "tight"
        assert str(bs.Certificate(tight=True, gap=0.0)) == "tight"

    def test_default_tolerance_scales(self):
        # the tolerance is 1e-6 (1 + |objective|): 1.001e-3 at objective 1000
        assert sdp._certificate_from_values(1000.0, 1000.0 - 9e-4).tight
        assert not sdp._certificate_from_values(1000.0, 1000.0 - 2e-3).tight
        assert sdp._certificate_from_values(0.0, -9e-7).tight
        assert not sdp._certificate_from_values(0.0, -2e-6).tight


class TestDualCertificate:
    @settings(max_examples=150, deadline=None)
    @given(k1=st.integers(1, 7), k2=st.integers(1, 7),
           pq=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
           graph_seed=st.integers(0, 2**32 - 1), mu=st.floats(0.0, 1.5),
           pick=st.sampled_from(["truth", "mle", "random"]),
           label_seed=st.integers(0, 2**32 - 1))
    def test_lanczos_verdict_matches_dense_and_oracle(self, k1, k2, pq, graph_seed, mu,
                                                      pick, label_seed):
        # both branches on every example: the dense Cholesky one that these
        # sizes' dense operator routes to, and the Lanczos one of a CSR
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
        assert sdp._dual_certified(sdp._operator(g), x, mu, tol) == verdicts[0]
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
                        routed = sdp._dual_certified(sdp._operator(g), x, mu, tol)
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

    def test_uncertified_solve_stops_when_restarts_agree(self):
        g = relaxation_gap_graph()
        cfg = bs.SdpConfig(lam=LAM_STAR, seed=6)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        assert not sol.certificate.tight
        assert sol.diagnostics.restarts_used == 2 == len(sol.diagnostics.restart_objectives)
        # the early stop returns the partition that running every restart would
        outs = [sdp._ascent(g.adjacency, g.n, cfg.rank, LAM_STAR, False, cfg.max_iters,
                            rng_for(cfg.seed, STREAM_SDP, k)) for k in range(cfg.restarts)]
        best = max(outs, key=lambda out: out.objective)
        assert bs.partitions_equal(sol.rounded, bs.round_solution(best.factor))

    def test_unconverged_restarts_never_agree(self, monkeypatch):
        g = relaxation_gap_graph()
        cfg = bs.SdpConfig(lam=LAM_STAR, seed=6, max_iters=1)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        assert not sol.diagnostics.converged
        assert sol.diagnostics.restarts_used == cfg.restarts
        # restarts that agree on objective and partition but report the cap
        ascent = sdp._ascent

        def capped(*args):
            return ascent(*args)._replace(converged=False)

        monkeypatch.setattr(sdp, "_ascent", capped)
        cfg = bs.SdpConfig(lam=LAM_STAR, seed=6)
        assert bs.solve_lagrangian_sdp(g, cfg).diagnostics.restarts_used == cfg.restarts

    def test_lanczos_nonconvergence_is_not_tight(self, monkeypatch):
        g = two_cliques(sdp._DENSE_DUAL_MAX // 2 + 1)  # above the dense check's size
        assert g.n > sdp._DENSE_DUAL_MAX
        cfg = bs.SdpConfig(lam=LAM_STAR, seed=1)
        assert bs.solve_lagrangian_sdp(g, cfg).certificate.tight
        monkeypatch.setattr(sdp, "_LANCZOS_STEPS", 1)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        assert sol.certificate.gap <= 1e-6 * (1.0 + abs(sol.objective))
        assert not sol.certificate.tight
        assert sol.diagnostics.restarts_used == 2

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

    def full(model, seed):
        params = bs.SbmParams.from_rates(*model)
        return bs.sample_sbm(params, seed), bs.lambda_star(params.p, params.q)

    large = st.one_of(
        st.builds(crossover, st.sampled_from([sdp._DENSE_DUAL_MAX, sdp._DENSE_DUAL_MAX + 1]),
                  st.sampled_from([(30.0, 2.0), (3.0, 1.0)]), st.integers(0, 2)),
        st.builds(full, st.sampled_from([(400, 30.0, 2.0), (300, 3.0, 1.0)]), st.integers(0, 2)))
    return st.one_of(small, edgeless, large)


class TestDenseOperator:
    @settings(max_examples=60, deadline=None)
    @given(case=dense_and_sparse_cases(), balanced=st.booleans(), seed=st.integers(0, 99))
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
        if g.n > 40 or not g.m:
            assert np.array_equal(*labels)
        # else not always: on small graphs with tied or vanishing eigenvector
        # entries (twin or isolated nodes) those entries' signs are rounding
        # noise under either operator, and the summation order differs
        for x in labels:
            # up to _DENSE_DUAL_MAX nodes the dense operator's Cholesky verdict
            # and the CSR's Lanczos verdict, above it both operators' Lanczos
            tol = sdp._DUAL_RTOL * (1.0 + abs(bs.labeling_objective(g, x, lam=lam)))
            lmin = dense_lambda_min(g, x, mu)
            if not -2.0 * tol <= lmin <= -0.5 * tol:
                assert (sdp._dual_certified(dense, x, mu, tol)
                        == sdp._dual_certified(csr, x, mu, tol) == (lmin >= -tol))
        # the same ascent, up to the summation order of the products
        outs = [sdp._ascent(a, g.n, bs.SdpConfig().rank, lam, balanced, 500,
                            np.random.default_rng(seed)) for a in (dense, csr)]
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
    out = sdp._ascent(adj, g.n, 8, lam, balanced, max_iters, rng_for(7, STREAM_SDP, 0))
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

    def test_rejects_incomplete(self):
        g = two_cliques(3)
        with pytest.raises(ParameterError):
            bs.labeling_objective(g, [1, 1, 1, -1, -1, 0])
