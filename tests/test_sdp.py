"""Low-rank solver, rounding, certificate, and the exhaustive oracle."""
import itertools
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blocksketch as bs
from blocksketch import sdp
from blocksketch.errors import CapacityError, EmptyGraphError, ParameterError
from blocksketch.sdp import objective_and_gradient

LAM_STAR = bs.lambda_star(0.9, 0.1)


def two_cliques(k, p=1.0, q=0.0, seed=0):
    return bs.sample_sbm(bs.SbmParams.explicit(k, k, p, q), seed)


def random_graph(n, density, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.uniform() < density]
    return bs.Graph.from_edges(n, edges)


def enumerate_optima(g, mode, value=None):
    """Independent exhaustive reference; returns (objective, set of labelings)."""
    a = g.adjacency.toarray()
    best_obj = None
    best = set()
    for bits in itertools.product((1, -1), repeat=g.n):
        x = np.array(bits, dtype=np.float64)
        s = float(x.sum())
        if mode == "balanced" and s != 0:
            continue
        if mode == "size" and int((x == 1).sum()) != value:
            continue
        obj = float(x @ a @ x)
        if mode == "lam":
            obj -= value * s * s
        if best_obj is None or obj > best_obj + 1e-9:
            best_obj, best = obj, {bits}
        elif obj >= best_obj - 1e-9:
            best.add(bits)
    return best_obj, best


class TestDefaultRank:
    def test_values(self):
        assert bs.default_rank(1) == 2
        assert bs.default_rank(2) == 2
        assert bs.default_rank(8) == 4
        assert bs.default_rank(12) == 5
        assert bs.default_rank(400) == 29
        assert bs.default_rank(10000) == 32

    def test_ceiling_of_sqrt_2n(self):
        for n in range(1, 600):
            assert bs.default_rank(n) == min(32, max(2, math.ceil(math.sqrt(2 * n))))


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
            bs.SdpConfig(step_tol=0.0)


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

    def test_unit_rows_and_feasibility_trace(self):
        g = two_cliques(5, p=0.9, q=0.1, seed=2)
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM_STAR, seed=3))
        assert np.abs(np.linalg.norm(sol.factor, axis=1) - 1.0).max() <= 1e-9
        assert sol.diagnostics.row_norm_dev_trace.max() <= 1e-9

    def test_monotone_ascent(self):
        g = two_cliques(6, p=0.8, q=0.2, seed=5)
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=0.2, seed=0))
        trace = sol.diagnostics.objective_trace
        assert len(trace) >= 1
        assert np.all(np.diff(trace) >= -1e-12)

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
        # certificate is tight (seeds 6 and 7 have a genuine relaxation gap)
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

    def test_nonconvergence_blocks_certificate(self):
        g = two_cliques(15, p=0.7, q=0.2, seed=3)
        sol = bs.solve_lagrangian_sdp(
            g, bs.SdpConfig(max_iters=1, restarts=1, seed=0))
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
            bs.solve_lagrangian_sdp(g, bs.SdpConfig(balanced_mode=True))
        with pytest.raises(ParameterError):
            bs.solve_balanced_sdp(g, bs.SdpConfig(balanced_mode=False))
        with pytest.raises(ParameterError):
            bs.solve_balanced_sdp(g, bs.SdpConfig(balanced_mode=True, lam=0.1))


class TestBalancedSolver:
    def test_disjoint_four_cliques(self):
        g = two_cliques(4)
        sol = bs.solve_balanced_sdp(g, bs.SdpConfig(balanced_mode=True, seed=2))
        assert bs.partitions_equal(sol.rounded, g.truth)
        assert sol.diagnostics.rounded_balance == 0
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
        sol = bs.solve_balanced_sdp(g, bs.SdpConfig(balanced_mode=True, seed=0))
        assert int(np.sum(sol.rounded)) == 0
        assert sol.rounded_objective == -4.0
        assert sol.objective == pytest.approx(-4.0 + sol.balance_residual, abs=1e-9)
        assert sol.certificate.gap == pytest.approx(sol.balance_residual, abs=1e-9)

    def test_spec_instance_balanced(self):
        # n=12, p=0.9, q=0.05, seed 3: tight implies balanced-oracle agreement
        g = two_cliques(6, p=0.9, q=0.05, seed=3)
        sol = bs.solve_balanced_sdp(g, bs.SdpConfig(balanced_mode=True, seed=3))
        mle, _ = bs.brute_force_mle(g, balanced=True)
        assert sol.certificate.tight
        assert bs.partitions_equal(sol.rounded, mle)

    def test_odd_n_rejected(self):
        g = bs.Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ParameterError):
            bs.solve_balanced_sdp(g, bs.SdpConfig(balanced_mode=True))

    def test_rounded_always_balanced(self):
        rng = np.random.default_rng(13)
        for seed in range(8):
            g = random_graph(10, float(rng.uniform(0.2, 0.8)), rng)
            sol = bs.solve_balanced_sdp(g, bs.SdpConfig(balanced_mode=True, seed=seed))
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

    def test_power_iteration_flags_slow_spectrum(self):
        # eigenvalue ratio 0.999 keeps the iterate moving past the budget
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        y = q @ np.diag(np.sqrt([1.0, 0.999, 0.1]))
        v, ok, iters = bs.leading_eigenvector(y)
        assert not ok
        assert iters == 2000

    def test_power_iteration_converges_on_clean_gap(self):
        x = np.array([1.0, -1.0, 1.0])
        v, ok, iters = bs.leading_eigenvector(x[:, None])
        assert ok
        assert np.abs(np.abs(v) - 1 / math.sqrt(3)).max() < 1e-6


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

    def test_triangle_size_one(self):
        g = bs.Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        labels, obj = bs.brute_force_mle(g, size=1)
        assert obj == -2.0
        assert labels.tolist() == [1, -1, -1]

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
            mode = ("balanced", "size", "lam")[trial % 3]
            if mode == "balanced":
                if n % 2:
                    n += 1
                    g = random_graph(n, 0.5, rng)
                labels, obj = bs.brute_force_mle(g, balanced=True)
                want_obj, want_set = enumerate_optima(g, "balanced")
            elif mode == "size":
                k = int(rng.integers(0, n + 1))
                labels, obj = bs.brute_force_mle(g, size=k)
                want_obj, want_set = enumerate_optima(g, "size", k)
            else:
                lam = float(rng.uniform(0.0, 1.0))
                labels, obj = bs.brute_force_mle(g, lam=lam)
                want_obj, want_set = enumerate_optima(g, "lam", lam)
            assert obj == pytest.approx(want_obj, rel=1e-12, abs=1e-12)
            assert tuple(int(v) for v in labels) in want_set

    def test_capacity_cap(self):
        g = bs.Graph.from_edges(23, [(0, 1)])
        with pytest.raises(CapacityError):
            bs.brute_force_mle(g, balanced=False, lam=0.0, size=None)

    def test_mode_selection_errors(self):
        g = two_cliques(3)
        with pytest.raises(ParameterError):
            bs.brute_force_mle(g)
        with pytest.raises(ParameterError):
            bs.brute_force_mle(g, balanced=True, lam=0.1)
        with pytest.raises(ParameterError):
            bs.brute_force_mle(bs.Graph.from_edges(3, []), balanced=True)
        with pytest.raises(ParameterError):
            bs.brute_force_mle(g, size=7)


class TestCertificate:
    def test_arithmetic_example(self):
        sol = SimpleNamespace(objective=24.0, rounded_objective=23.5)
        cert = bs.certificate_check(sol, gap_tol=0.1)
        assert not cert.tight
        assert cert.gap == 0.5
        assert str(cert) == "not-tight(0.5)"

    def test_zero_gap_tight(self):
        sol = SimpleNamespace(objective=24.0, rounded_objective=24.0)
        cert = bs.certificate_check(sol)
        assert cert.tight
        assert str(cert) == "tight"

    def test_default_tolerance_scales(self):
        sol = SimpleNamespace(objective=1000.0, rounded_objective=1000.0 - 9e-4)
        assert bs.certificate_check(sol).tight
        sol2 = SimpleNamespace(objective=1000.0, rounded_objective=1000.0 - 2e-3)
        assert not bs.certificate_check(sol2).tight


class TestDualCertificate:
    @settings(max_examples=150, deadline=None)
    @given(k1=st.integers(1, 6), k2=st.integers(1, 6),
           pq=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
           graph_seed=st.integers(0, 2**32 - 1), mu=st.floats(0.0, 1.5),
           pick=st.sampled_from(["truth", "mle", "random"]),
           label_seed=st.integers(0, 2**32 - 1))
    def test_lanczos_verdict_matches_dense_and_oracle(self, k1, k2, pq, graph_seed, mu,
                                                      pick, label_seed):
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
        a = g.adjacency.toarray()
        xf = x.astype(np.float64)
        s_mat = np.diag((a @ xf - mu * xf.sum()) * xf) - a + mu
        lmin = np.linalg.eigvalsh(s_mat)[0]
        certified = sdp._dual_certified(g.adjacency, x, mu, tol)
        if not -2.0 * tol <= lmin <= -0.5 * tol:  # verdicts compared clear of tol only
            assert certified == (lmin >= -tol)
        if certified:
            # S >= -tol I bounds the relaxation, hence every labeling, by obj + n tol
            slack = g.n * tol
            assert obj == pytest.approx(bs.brute_force_mle(g, lam=mu)[1], rel=0, abs=slack)
            if xf.sum() == 0:  # any mu certifies a balanced x for the balanced program
                assert bs.labeling_objective(g, x) == pytest.approx(
                    bs.brute_force_mle(g, balanced=True)[1], rel=0, abs=slack)

    def test_certified_restart_stops_the_solve(self):
        g = two_cliques(4)
        sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM_STAR, seed=1))
        assert sol.certificate.tight
        assert sol.diagnostics.restarts_used == 1 == len(sol.diagnostics.restart_objectives)

    def test_uncertified_solve_runs_every_restart(self):
        # seed 6 has a genuine relaxation gap (see test_tight_implies_exhaustive_optimum)
        g = two_cliques(5, p=0.9, q=0.1, seed=6)
        cfg = bs.SdpConfig(lam=LAM_STAR, seed=6)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        assert not sol.certificate.tight
        assert sol.diagnostics.restarts_used == cfg.restarts
        assert len(sol.diagnostics.restart_objectives) == cfg.restarts

    def test_lanczos_nonconvergence_is_not_tight(self, monkeypatch):
        g = two_cliques(4)
        cfg = bs.SdpConfig(lam=LAM_STAR, seed=1)
        assert bs.solve_lagrangian_sdp(g, cfg).certificate.tight
        monkeypatch.setattr(sdp, "_LANCZOS_STEPS", 1)
        sol = bs.solve_lagrangian_sdp(g, cfg)
        assert sol.certificate.gap <= 1e-6 * (1.0 + abs(sol.objective))
        assert not sol.certificate.tight
        assert sol.diagnostics.restarts_used == cfg.restarts

    def test_import_loads_no_scipy_eigensolvers(self):
        code = ("import sys, blocksketch; print(sorted(m for m in sys.modules"
                " if m.startswith(('scipy.sparse.linalg', 'scipy.linalg'))))")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"


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
