"""Sketch pipeline wiring, trial records, and the sweep harness."""
import dataclasses
import json
import math
import os
import pickle
import time

import numpy as np
import pytest

import blocksketch as bs
from blocksketch import pipeline
from blocksketch.errors import ParameterError
from blocksketch.pipeline import (CSV_HEADER, SketchConfig, TrialRecord,
                                  parse_sweep_csv, run_sweep, run_trial,
                                  sketch_and_recover)
from blocksketch.rng import seed_fingerprint, seed_sequence


def cliques_plus_isolate():
    """Two 4-cliques on 0-3 / 4-7 and an isolated node 8."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
    return bs.Graph.from_edges(9, edges)


class TestSketchConfig:
    def test_gamma_range(self):
        with pytest.raises(ParameterError):
            SketchConfig(gamma=0.0)
        with pytest.raises(ParameterError):
            SketchConfig(gamma=1.2)
        SketchConfig(gamma=1.0)

    def test_lambda_rules(self):
        for lam in (-1.0, float("nan"), math.inf, -math.inf):
            with pytest.raises(ParameterError):
                SketchConfig(gamma=0.5, lam=lam)
        assert SketchConfig(gamma=0.5).lam is None  # None -> lambda_star(p, q)
        assert SketchConfig(gamma=0.5, lam=0.3).lam == 0.3
        assert SketchConfig(gamma=0.5, lam=0.0).lam == 0.0

    def test_tie_mode_and_solver_mode(self):
        with pytest.raises(ParameterError):
            SketchConfig(gamma=0.5, tie_mode="drop")
        with pytest.raises(ParameterError):
            SketchConfig(gamma=0.5, sdp=bs.SdpConfig(lam=0.3))  # the pipeline sets it


class TestSketchAndRecover:
    def test_full_sample_recovers_planted(self):
        g = bs.sample_sbm(bs.SbmParams.explicit(5, 5, 0.9, 0.1), 11)
        res = sketch_and_recover(g, 0.9, 0.1, SketchConfig(gamma=1.0), 11)
        assert res.solution is not None
        assert res.kept.size == 10
        assert res.lambda_used == bs.lambda_star(0.9, 0.1)
        assert res.vote.tie_count == 0
        assert bs.partitions_equal(res.labels, g.truth)

    def test_fixed_multiplier_passed_through(self):
        g = bs.sample_sbm(bs.SbmParams.explicit(5, 5, 1.0, 0.0), 2)
        cfg = SketchConfig(gamma=1.0, lam=0.25)
        res = sketch_and_recover(g, 1.0, 0.0, cfg, 2)
        assert res.lambda_used == 0.25
        assert bs.partitions_equal(res.labels, g.truth)

    def test_auto_mode_needs_positive_q(self):
        g = bs.sample_sbm(bs.SbmParams.explicit(3, 3, 1.0, 0.0), 0)
        with pytest.raises(ParameterError):
            sketch_and_recover(g, 1.0, 0.0, SketchConfig(gamma=1.0), 0)

    def test_rate_ordering_enforced(self):
        g = bs.sample_sbm(bs.SbmParams.explicit(3, 3, 0.9, 0.1), 0)
        cfg = SketchConfig(gamma=1.0)
        for p, q in ((0.5, 0.5), (0.1, 0.9), (1.1, 0.1), (0.9, -0.1)):
            with pytest.raises(ParameterError):
                sketch_and_recover(g, p, q, cfg, 0)

    def test_degenerate_sample(self):
        # seed 0 drops every node at n=4, gamma=0.1
        g = bs.sample_sbm(bs.SbmParams.explicit(2, 2, 0.9, 0.1), 1)
        res = sketch_and_recover(g, 0.9, 0.1, SketchConfig(gamma=0.1), 0)
        assert res.kept.size <= 1
        assert np.all(res.labels == 0)
        assert res.solution is None and res.vote is None
        assert res.lambda_used is None

    def test_sampled_nodes_keep_solver_labels(self):
        g = bs.sample_sbm(bs.SbmParams.explicit(6, 6, 0.9, 0.05), 4)
        res = sketch_and_recover(g, 0.9, 0.05, SketchConfig(gamma=0.7), 4)
        assert res.solution is not None
        assert np.array_equal(res.labels[res.kept], res.solution.rounded)

    def test_strict_ties_stay_unassigned(self):
        # seed 14 samples nodes 0..6, leaving the isolated node 8 with no votes
        g = cliques_plus_isolate()
        cfg = SketchConfig(gamma=0.85, lam=0.3)
        res = sketch_and_recover(g, 0.9, 0.1, cfg, 14)
        assert 8 not in res.kept
        assert res.vote.tie_count == 1
        assert res.labels[8] == 0
        assert res.tie_flips == 0

    def test_coin_ties_get_resolved(self):
        g = cliques_plus_isolate()
        strict = SketchConfig(gamma=0.85, lam=0.3)
        coin = SketchConfig(gamma=0.85, lam=0.3, tie_mode="coin")
        rs = sketch_and_recover(g, 0.9, 0.1, strict, 14)
        rc = sketch_and_recover(g, 0.9, 0.1, coin, 14)
        assert rc.tie_flips == rs.vote.tie_count == 1
        assert rc.labels[8] in (-1, 1)
        keep = np.arange(9) != 8
        assert np.array_equal(rc.labels[keep], rs.labels[keep])
        rc2 = sketch_and_recover(g, 0.9, 0.1, coin, 14)
        assert np.array_equal(rc.labels, rc2.labels)


class TestRunTrial:
    def test_success_record(self):
        params = bs.SbmParams.explicit(5, 5, 0.9, 0.1)
        rec = run_trial(params, SketchConfig(gamma=1.0), 11)
        assert rec.overall_success and rec.subgraph_success
        assert rec.sample_size == 10
        assert rec.vote_ties == 0
        assert rec.error is None
        assert rec.sdp_certificate is not None
        assert rec.wall_time > 0

    def test_degenerate_record(self):
        params = bs.SbmParams.explicit(2, 2, 0.9, 0.1)
        rec = run_trial(params, SketchConfig(gamma=0.1), 0)
        assert not rec.overall_success and not rec.subgraph_success
        assert rec.error == "degenerate-sample"
        assert rec.sample_size <= 1
        assert rec.sdp_certificate is None

    def test_canonical_dict_excludes_wall_time(self):
        params = bs.SbmParams.explicit(4, 4, 0.9, 0.1)
        a = run_trial(params, SketchConfig(gamma=0.8), 5)
        b = run_trial(params, SketchConfig(gamma=0.8), 5)
        assert a.canonical_dict() == b.canonical_dict()
        ja = json.dumps(a.canonical_dict(), sort_keys=True)
        jb = json.dumps(b.canonical_dict(), sort_keys=True)
        assert ja == jb
        assert "wall_time" not in a.canonical_dict()
        assert "wall_time" in a.json_dict()

    def test_canonical_dict_schema_pinned(self):
        """The trial-log schema: a dropped, renamed or leaked field fails here."""
        solved = TrialRecord(
            params=bs.SbmParams.explicit(3, 5, 0.75, 0.25), gamma=0.5,
            seed=seed_fingerprint(seed_sequence(7, 1, 2)), sample_size=4,
            sdp_certificate=bs.Certificate(tight=True, gap=0.125),
            subgraph_success=True, vote_ties=1, overall_success=False,
            wall_time=0.5, restarts_used=2, iterations_total=37)
        assert json.dumps(solved.canonical_dict(), sort_keys=True) == (
            '{"error": null, "gamma": 0.5, "iterations_total": 37, '
            '"overall_success": false, "params": {"alpha": null, "balanced": false, '
            '"beta": null, "n1": 3, "n2": 5, "p": 0.75, "q": 0.25}, '
            '"restarts_used": 2, "sample_size": 4, '
            '"sdp_certificate": {"gap": 0.125, "tight": true}, '
            '"seed": ["7", "(1, 2)"], "subgraph_success": true, "vote_ties": 1}')
        params = bs.SbmParams(n1=5, n2=5, p=0.5, q=0.125, alpha=4.0, beta=1.0,
                              balanced=True)
        failed = pipeline._failed_trial(params, SketchConfig(gamma=0.25), 9, 0.5,
                                        ValueError("boom"))
        assert json.dumps(failed.canonical_dict(), sort_keys=True) == (
            '{"error": "ValueError: boom", "gamma": 0.25, "iterations_total": null, '
            '"overall_success": false, "params": {"alpha": 4.0, "balanced": true, '
            '"beta": 1.0, "n1": 5, "n2": 5, "p": 0.5, "q": 0.125}, '
            '"restarts_used": null, "sample_size": 0, "sdp_certificate": null, '
            '"seed": ["9", "()"], "subgraph_success": false, "vote_ties": 0}')
        for rec in (solved, failed):
            assert rec.json_dict() == {**rec.canonical_dict(), "wall_time": 0.5}

    def test_overall_implies_subgraph_and_no_ties(self):
        params = bs.SbmParams.from_rates(60, 9.0, 1.0)
        cfg = SketchConfig(gamma=0.5)
        hits = 0
        for seed in range(25):
            rec = run_trial(params, cfg, seed)
            if rec.overall_success:
                hits += 1
                assert rec.subgraph_success
                assert rec.vote_ties == 0
        assert hits >= 1


class TestTracedComposition:
    """The layer calls composed by hand give run_sweep's trial outcome."""

    @pytest.mark.parametrize("ig, gamma", enumerate([0.5 * bs.gamma_star(30.0, 2.0),
                                                     bs.gamma_star(30.0, 2.0), 1.0]))
    def test_layer_calls_match_sweep_trial(self, ig, gamma):
        params = bs.SbmParams.from_rates(400, 30.0, 2.0)
        cfg = SketchConfig(gamma=gamma)
        for t in range(3):
            # trial t of cell (0, 0, 0, ig); at 0.5 gamma* these include
            # successes, failures and vote ties
            seed = seed_sequence(16, 0, 0, 0, ig, t)
            g = bs.sample_sbm(params, seed)
            kept = bs.subsample_nodes(g.n, cfg.gamma, seed)
            sub, _ = bs.induced_subgraph(g, kept)
            sdp_cfg = dataclasses.replace(cfg.sdp, lam=bs.lambda_star(params.p, params.q),
                                          seed=seed)
            sol = bs.solve_lagrangian_sdp(sub, sdp_cfg)
            labels = bs.majority_vote(g, kept, sol.rounded).labels
            ref = sketch_and_recover(g, params.p, params.q, cfg, seed)
            assert np.array_equal(labels, ref.labels)
            assert (bs.partitions_equal(labels, g.truth)
                    == run_trial(params, cfg, seed).overall_success)


class TestRunSweep:
    def test_axis_and_count_validation(self, tmp_path):
        with pytest.raises(ParameterError):
            run_sweep([], [9.0], [1.0], [0.5], trials=1, master_seed=0)
        with pytest.raises(ParameterError):
            run_sweep([60], [9.0], [1.0], [], trials=1, master_seed=0)
        with pytest.raises(ParameterError):
            run_sweep([60], [9.0], [1.0], [0.5], trials=0, master_seed=0)
        with pytest.raises(ParameterError):
            run_sweep([60], [9.0], [1.0], [0.5], trials=1, master_seed=0, jobs=0)
        # a negative master seed fails before the trial log is opened
        log = tmp_path / "trials.jsonl"
        with pytest.raises(ParameterError):
            run_sweep([60], [9.0], [1.0], [0.5], trials=1, master_seed=-2, trial_log=log)
        assert not log.exists()

    def test_rate_improves_with_sampling_budget(self):
        tab = run_sweep([120], [16.0], [2.0], [0.2, 0.6, 1.0],
                        trials=10, master_seed=7)
        by_gamma = {c.gamma: c for c in tab.cells}
        assert by_gamma[0.2].success_rate <= 0.9
        assert by_gamma[0.6].success_rate >= 0.8
        assert by_gamma[1.0].success_rate >= 0.9
        assert by_gamma[1.0].success_rate >= by_gamma[0.2].success_rate
        sizes = [by_gamma[g].mean_sample_size for g in (0.2, 0.6, 1.0)]
        assert sizes[0] < sizes[1] < sizes[2]
        assert sizes[2] == 120.0

    def test_worker_count_invisible(self):
        kw = dict(trials=5, master_seed=3)
        t1 = run_sweep([60], [9.0], [1.0], [0.5, 1.0], jobs=1, **kw)
        t4 = run_sweep([60], [9.0], [1.0], [0.5, 1.0], jobs=4, **kw)

        def mask_wall(csv):
            rows = []
            for i, ln in enumerate(csv.splitlines()):
                if i == 0:
                    rows.append(ln)
                    continue
                parts = ln.split(",")
                parts[10] = "X"
                rows.append(",".join(parts))
            return "\n".join(rows)

        assert mask_wall(t1.to_csv()) == mask_wall(t4.to_csv())

    def test_single_cell_matches_direct_trial(self):
        tab = run_sweep([60], [9.0], [1.0], [0.7], trials=1, master_seed=42)
        cell = tab.cells[0]
        rec = run_trial(bs.SbmParams.from_rates(60, 9.0, 1.0),
                        SketchConfig(gamma=0.7),
                        seed_sequence(42, 0, 0, 0, 0, 0))
        assert cell.trials == 1
        assert cell.successes == int(rec.overall_success)
        assert cell.mean_sample_size == float(rec.sample_size)
        assert cell.mean_tie_count == float(rec.vote_ties)
        assert cell.subgraph_success_rate == float(rec.subgraph_success)

    def test_cells_in_product_order(self):
        tab = run_sweep([12, 10], [2.0], [0.5], [1.0, 0.5],
                        trials=1, master_seed=1)
        got = [(c.n, c.gamma) for c in tab.cells]
        assert got == [(12, 1.0), (12, 0.5), (10, 1.0), (10, 0.5)]

    def test_trial_log_jsonl(self, tmp_path):
        log = tmp_path / "trials.jsonl"
        run_sweep([12], [2.0], [0.5], [1.0, 0.5], trials=3, master_seed=5,
                  trial_log=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 6
        recs = [json.loads(ln) for ln in lines]
        for d in recs:
            assert "wall_time" in d and "overall_success" in d
            assert "restarts_used" in d and "iterations_total" in d
            if d["sample_size"] >= 2:  # a solve ran: its counters are logged
                assert d["restarts_used"] >= 0 and d["iterations_total"] >= 0
                if d["restarts_used"] == 0:  # certified spectrally: no ascent ran
                    assert d["iterations_total"] == 0 and d["sdp_certificate"]["tight"]
            else:
                assert d["restarts_used"] is None and d["iterations_total"] is None
        log2 = tmp_path / "trials2.jsonl"
        run_sweep([12], [2.0], [0.5], [1.0, 0.5], trials=3, master_seed=5,
                  jobs=2, trial_log=log2)
        strip = lambda ds: [{k: v for k, v in d.items() if k != "wall_time"}
                            for d in ds]
        recs2 = [json.loads(ln) for ln in log2.read_text().splitlines()]
        assert strip(recs) == strip(recs2)

    def test_worker_crash_is_recorded_as_failed_trials(self, monkeypatch, tmp_path):
        ref_log = tmp_path / "ref.jsonl"
        run_sweep([12], [2.0], [0.5], [1.0, 0.5], trials=3, master_seed=5, trial_log=ref_log)
        ref = [json.loads(ln) for ln in ref_log.read_text().splitlines()]

        parent = os.getpid()

        def crashing_trial(params, cfg, seed):
            if cfg.gamma == 0.5 and os.getpid() != parent:
                os._exit(1)  # kills the forked worker, which inherits this patch
            return run_trial(params, cfg, seed)

        monkeypatch.setattr(pipeline, "run_trial", crashing_trial)
        log = tmp_path / "trials.jsonl"
        tab = run_sweep([12], [2.0], [0.5], [1.0, 0.5], trials=3, master_seed=5,
                        jobs=2, trial_log=log)
        recs = [json.loads(ln) for ln in log.read_text().splitlines()]
        assert [r["seed"] for r in recs] == [r["seed"] for r in ref]  # (cell, t) order
        lost = [r["error"] is not None for r in recs]
        assert lost[3:] == [True] * 3 and lost == sorted(lost)  # lost trials are a suffix
        for r, want in zip(recs, ref):
            if r["error"] is None:
                assert {**r, "wall_time": 0} == {**want, "wall_time": 0}
            else:
                assert r["error"].startswith("BrokenProcessPool: ")
                assert not r["overall_success"] and r["restarts_used"] is None
        assert [c.trials for c in tab.cells] == [3, 3]
        assert tab.cells[1].successes == 0

    def test_non_package_error_is_a_failed_trial(self, monkeypatch, tmp_path):
        calls = []

        def flaky_trial(params, cfg, seed):
            calls.append(seed)
            if len(calls) == 2:
                raise ValueError("injected fault")
            return run_trial(params, cfg, seed)

        monkeypatch.setattr(pipeline, "run_trial", flaky_trial)
        log = tmp_path / "trials.jsonl"
        tab = run_sweep([12], [2.0], [0.5], [1.0], trials=3, master_seed=5,
                        trial_log=log)
        assert len(calls) == 3
        assert tab.cells[0].trials == 3
        recs = [json.loads(ln) for ln in log.read_text().splitlines()]
        assert [r["error"] for r in recs] == [None, "ValueError: injected fault", None]
        assert not recs[1]["overall_success"] and not recs[1]["subgraph_success"]

    def test_trial_log_is_written_as_trials_finish(self, monkeypatch, tmp_path):
        calls = []

        def interrupted_trial(params, cfg, seed):
            calls.append(seed)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return run_trial(params, cfg, seed)

        monkeypatch.setattr(pipeline, "run_trial", interrupted_trial)
        log = tmp_path / "trials.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_sweep([12], [2.0], [0.5], [1.0], trials=4, master_seed=5, trial_log=log)
        recs = [json.loads(ln) for ln in log.read_text().splitlines()]
        assert [r["seed"] for r in recs] == [
            list(map(repr, bs.seed_fingerprint(seed_sequence(5, 0, 0, 0, 0, t))))
            for t in range(2)]

    def test_gamma_override_per_cell(self):
        template = SketchConfig(gamma=0.123, lam=0.3)
        tab = run_sweep([12], [2.0], [0.5], [1.0], trials=2, master_seed=9,
                        config=template)
        assert tab.cells[0].mean_sample_size == 12.0


def masked_log(path):
    return [{**json.loads(ln), "wall_time": 0} for ln in path.read_text().splitlines()]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    """run_sweep at jobs > 1: forked workers, the caller as worker 0."""

    SWEEP = dict(n_values=[12], alpha_values=[2.0], beta_values=[0.5],
                 gamma_values=[1.0, 0.5], trials=3, master_seed=5)

    def test_children_reaped_on_return_crash_and_raise(self, monkeypatch, tmp_path):
        ref_log = tmp_path / "ref.jsonl"
        run_sweep(**self.SWEEP, jobs=3, trial_log=ref_log)
        assert_no_children()

        parent = os.getpid()

        def crashing_trial(params, cfg, seed):
            if os.getpid() != parent:
                os._exit(1)  # every child dies at its first trial
            return run_trial(params, cfg, seed)

        monkeypatch.setattr(pipeline, "run_trial", crashing_trial)
        crash_log = tmp_path / "crash.jsonl"
        run_sweep(**self.SWEEP, jobs=2, trial_log=crash_log)
        assert_no_children()
        recs = masked_log(crash_log)
        assert recs[0] == masked_log(ref_log)[0]  # only task 0 ran; 1 to 5 are lost
        assert all(r["error"].startswith("BrokenProcessPool: ") for r in recs[1:])

        calls = []  # each process appends to its own copy

        def interrupted_trial(params, cfg, seed):
            calls.append(seed)
            if os.getpid() == parent and len(calls) == 2:  # task 2, the caller's share
                raise KeyboardInterrupt
            if os.getpid() != parent and len(calls) == 2:  # task 3: the child stalls
                time.sleep(60)
            return run_trial(params, cfg, seed)

        monkeypatch.setattr(pipeline, "run_trial", interrupted_trial)
        log = tmp_path / "trials.jsonl"
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(**self.SWEEP, jobs=2, trial_log=log)
        assert time.monotonic() - t0 < 30  # the stalled child was killed, not awaited
        assert_no_children()
        assert masked_log(log) == masked_log(ref_log)[:2]

    def test_more_jobs_than_tasks(self, tmp_path):
        logs = {}
        for jobs in (1, 8):
            logs[jobs] = tmp_path / f"trials-{jobs}.jsonl"
            run_sweep(**self.SWEEP, jobs=jobs, trial_log=logs[jobs])
        assert masked_log(logs[1]) == masked_log(logs[8])

    def test_records_beyond_the_pipe_buffer(self, tmp_path):
        # at jobs=2 the child sends 200 records of more than 400 bytes each,
        # past a 64 KiB pipe buffer, so it blocks until the caller reads
        sweep = dict(n_values=[12], alpha_values=[4.0], beta_values=[0.5],
                     gamma_values=[1.0, 0.05], trials=200, master_seed=5)
        params = bs.SbmParams.from_rates(12, 4.0, 0.5)
        for gamma in sweep["gamma_values"]:
            task = (params, SketchConfig(gamma=gamma), 5, (0, 0, 0, 0), 0)
            assert 200 * len(pickle.dumps(pipeline._trial_task(task))) > 65536
        logs, csvs = {}, {}
        for jobs in (1, 2, 3):
            logs[jobs] = tmp_path / f"trials-{jobs}.jsonl"
            tab = run_sweep(**sweep, jobs=jobs, trial_log=logs[jobs])
            csvs[jobs] = [ln.split(",")[:10] for ln in tab.to_csv().splitlines()]
        assert len(masked_log(logs[1])) == 400
        assert masked_log(logs[1]) == masked_log(logs[2]) == masked_log(logs[3])
        assert csvs[1] == csvs[2] == csvs[3]

    @pytest.mark.parametrize("kept_bytes", [lambda size: 1, lambda size: size // 2,
                                            lambda size: size - 1],
                             ids=["first-byte", "half", "all-but-last-byte"])
    def test_truncated_record_is_a_broken_worker(self, monkeypatch, tmp_path, kept_bytes):
        ref_log = tmp_path / "ref.jsonl"
        run_sweep(**self.SWEEP, trial_log=ref_log)
        parent = os.getpid()
        dump = pickle.dump
        sent = []

        def truncating_dump(obj, out):
            if os.getpid() == parent:
                return dump(obj, out)
            sent.append(obj)
            if len(sent) < 2:
                return dump(obj, out)
            data = pickle.dumps(obj)  # the child's second record: task 3
            out.write(data[:kept_bytes(len(data))])
            out.flush()
            os._exit(1)

        monkeypatch.setattr(pickle, "dump", truncating_dump)
        log = tmp_path / "trials.jsonl"
        run_sweep(**self.SWEEP, jobs=2, trial_log=log)
        ref, recs = masked_log(ref_log), masked_log(log)
        assert recs[:3] == ref[:3]
        assert [r["seed"] for r in recs] == [r["seed"] for r in ref]
        for r in recs[3:]:
            assert r["error"].startswith("BrokenProcessPool: worker 1 ended before returning task 3")
        assert_no_children()

    def test_jobs_above_one_needs_fork(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(pipeline, "run_trial", lambda *args: calls.append(args))
        monkeypatch.delattr(os, "fork")
        log = tmp_path / "trials.jsonl"
        with pytest.raises(ParameterError, match="fork"):
            run_sweep(**self.SWEEP, jobs=2, trial_log=log)
        assert calls == [] and not log.exists()


class TestSweepCsv:
    def test_header_pinned(self):
        assert CSV_HEADER == ("n,alpha,beta,gamma,trials,successes,success_rate,"
                              "subgraph_success_rate,mean_sample_size,"
                              "mean_tie_count,mean_wall_ms,master_seed")

    def test_round_trip_bytes(self):
        tab = run_sweep([12, 10], [2.0], [0.5, 0.25], [1.0, 0.5],
                        trials=2, master_seed=31)
        csv = tab.to_csv()
        back = parse_sweep_csv(csv)
        assert back.to_csv() == csv
        assert back.master_seed == 31
        assert back.trials_per_cell == 2
        assert back.n_values == (12, 10)
        assert back.gamma_values == (1.0, 0.5)

    def test_rejects_malformed(self):
        tab = run_sweep([10], [2.0], [0.5], [1.0], trials=1, master_seed=0)
        csv = tab.to_csv()
        with pytest.raises(ParameterError):
            parse_sweep_csv("nope\n" + csv.split("\n", 1)[1])
        lines = csv.splitlines()
        with pytest.raises(ParameterError):
            parse_sweep_csv("\n".join([lines[0], lines[1] + ",9"]) + "\n")
        with pytest.raises(ParameterError):
            parse_sweep_csv("\n".join([lines[0], lines[1],
                                       lines[1][:-1] + "9"]) + "\n")
        row = lines[1].split(",")
        # a non-number, a fraction in the int n column, a negative master_seed,
        # then values run_sweep never writes: n, rates, gamma, counts, means
        for col, bad in ((1, "x"), (0, "12.5"), (11, "-1"),
                         (0, "-5"), (0, "9"), (1, "nan"), (2, "inf"), (1, "0.5"),
                         (3, "2.5"), (3, "0"), (4, "0"), (5, "7"), (5, "-1"),
                         (6, "1.5"), (7, "-0.1"), (8, "11"), (8, "nan"),
                         (9, "inf"), (10, "-1")):
            cells = row[:col] + [bad] + row[col + 1:]
            with pytest.raises(ParameterError, match="row 1"):
                parse_sweep_csv("\n".join([lines[0], ",".join(cells)]) + "\n")
        with pytest.raises(ParameterError, match="row 1"):
            parse_sweep_csv(CSV_HEADER + "\n-5,nan,inf,2.5,0,7,1.5,-1,0,0,0,3\n")

    def test_axis_values_round_trip_losslessly(self):
        # .6g alone writes alpha=2.0000001 and beta=2 both as 2, which no model allows
        tab = run_sweep([10], [2.0000001], [2.0], [1 / 3], trials=1, master_seed=0)
        csv = tab.to_csv()
        assert csv.splitlines()[1].startswith("10,2.0000001,2,0.3333333333333333,")
        back = parse_sweep_csv(csv)
        assert (back.alpha_values, back.beta_values, back.gamma_values) == \
            ((2.0000001,), (2.0,), (1 / 3,))
        assert back.to_csv() == csv

    def test_accepts_rounded_mean_at_large_n(self):
        # .6g writes a full sample of n=1234568 as 1.23457e+06, above n
        cell = bs.CellStats(n=1234568, alpha=2.0, beta=0.5, gamma=1.0, trials=1,
                            successes=1, success_rate=1.0, subgraph_success_rate=1.0,
                            mean_sample_size=1234568.0, mean_tie_count=0.0,
                            mean_wall_ms=1.0)
        tab = pipeline.SweepTable((1234568,), (2.0,), (0.5,), (1.0,), 1, 0, [cell])
        assert parse_sweep_csv(tab.to_csv()).to_csv() == tab.to_csv()
