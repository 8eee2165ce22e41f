"""blocksketch benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload threshold-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
./src. --trace 0 reports the end-to-end metrics, measured untraced;
--trace 1 reports the per-layer metrics of a traced run plus the tracing
overhead. End-to-end times except set-up are scaled to a reference host
speed measured beside each unit (hostspeed.py), so that the shared host's
slow stretches cancel. The last line of stdout is the JSON result; the
lines before it repeat each metric with its unit and record the
environment. Exit code 0
means every output check passed, 1 that a check failed, 2 a usage error
or a tree without the package sources. See README.md beside this file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PASSES = 2  # times an untraced run times each unit; the median over them counts
# cold start of a user process: interpreter start and package import
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import blocksketch"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("threshold-sweep", "control-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "blocksketch").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "src_sha256": source_digest(),
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
    }


def measure_setup(repeats: int) -> list:
    """Wall times of `repeats` fresh interpreters running SETUP_CODE."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls at up to 50 ms and quantizes the time
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
        times.append(time.perf_counter() - t0)
    return times


def trial_ms_over_passes(passes, scaled: bool) -> list:
    """Per trial, the median of its times over the passes; unit by unit, trial order."""
    return [statistics.median(ms) for units in zip(*passes)
            for ms in zip(*([t * (u.scale if scaled else 1) for t in u.trial_ms]
                            for u in units))]


def unit_trials_per_s(passes, scaled: bool) -> float:
    """Trials over the summed wall time of each unit, its median over the passes."""
    wall = [statistics.median(u.wall_s * (u.scale if scaled else 1) for u in units)
            for units in zip(*passes)]
    return sum(u.trials for u in passes[0]) / sum(wall)


def compare_units(a, b, what: str, errors: list) -> int:
    """Mark units of b whose deterministic output differs from a's; return trials failed."""
    ref = {u.index: u for u in a}
    failed = 0
    for u in b:
        r = ref.get(u.index)
        if r is None:
            continue
        same = r.outcomes == u.outcomes and (
            r.fingerprint is None or u.fingerprint is None or r.fingerprint == u.fingerprint)
        if not same:
            errors.append(f"unit {u.index}: {what} outputs differ")
            failed += u.trials
    return failed


def distinct_outcomes(*passes) -> dict:
    """Outcomes summed over distinct units: each unit index counts once."""
    units = {}
    for ps in passes:
        for u in ps:
            units.setdefault(u.index, u)
    out = {}
    for u in units.values():
        for g, (s, t) in u.outcomes.items():
            acc = out.setdefault(g, [0, 0])
            acc[0] += s
            acc[1] += t
    return out


def run_untraced(wl, args, tmp: Path, errors: list):
    """PASSES passes over the same units at jobs=1 and at jobs=2, interleaved
    (jobs=1, jobs=2, jobs=1, ...) so that each unit's repeats are spread over
    the whole run. The first pass of each is a closed loop that fixes its
    unit count; each later pass reruns those units."""
    budget = args.seconds / PASSES
    setup = measure_setup(3)
    j1, j2 = [], []
    for p in range(PASSES):
        if p == 0:
            j1.append(wl.closed_loop(args.seed, 1, budget * 2 / 3, tmp))
            j2.append(wl.closed_loop(args.seed, 2, budget / 3, tmp))
        else:
            j1.append(wl.rerun(args.seed, j1[0], 1, tmp))
            j2.append(wl.rerun(args.seed, j2[0], 2, tmp))
        # cold starts spread over the run see the host's drift as the passes do
        setup += measure_setup(3)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # excludes workers

    runs = [u for ps in j1 + j2 for u in ps]
    failed = sum(u.failed for u in runs)
    for ps in j1[1:]:
        failed += compare_units(j1[0], ps, "repeated jobs=1", errors)
    for ps in j2[1:]:
        failed += compare_units(j2[0], ps, "repeated jobs=2", errors)
    failed += compare_units(j1[0], j2[0], "jobs=1 and jobs=2", errors)
    errors.extend(wl.check(distinct_outcomes(j1[0], j2[0])))
    attempted = sum(u.trials for u in runs)

    def tail(ms):
        return statistics.quantiles(ms, n=100, method="inclusive")[wl.tail_pct - 1]

    trial_ms = trial_ms_over_passes(j1, True)
    raw_ms = trial_ms_over_passes(j1, False)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (1e3 * len(trial_ms) / sum(trial_ms), "1/s"),
        "trials_per_s_jobs2": (unit_trials_per_s(j2, True), "1/s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "trial_ms_tail": (tail(trial_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_ok_frac": (1 - failed / attempted, "fraction"),
    }
    from hostspeed import REF_MS  # numpy is loaded by now; see run_traced
    speed = statistics.median(1 / u.scale for ps in j1 + j2 for u in ps)
    each = f"each its median over {PASSES} passes"
    notes = {"setup_s": f"median of {len(setup)} cold starts, not scaled",
             "trial_ms_tail": f"p{wl.tail_pct} of {len(trial_ms)} trials, {each}; "
                              f"raw {tail(raw_ms):.4g} ms",
             "trial_ms_p50": f"{len(trial_ms)} trials, {each}; "
                             f"raw {statistics.median(raw_ms):.4g} ms",
             "trials_per_s": f"{len(trial_ms)} trials, {each}; "
                             f"raw {1e3 * len(raw_ms) / sum(raw_ms):.4g} /s",
             "trials_per_s_jobs2": f"{sum(u.trials for u in j2[0])} trials in {len(j2[0])} "
                                   f"units, {each}; "
                                   f"raw {unit_trials_per_s(j2, False):.4g} /s",
             "host_speed": f"times are scaled to reference host speed: the reference "
                           f"kernel took {speed:.3f} x {REF_MS} ms here (median over units)"}
    return metrics, notes, attempted, failed, None


def run_traced(wl, args, tmp: Path, errors: list):
    # imported here, not at the top: numpy may load only after main() pins BLAS threads
    from tracing import Tracer
    from workloads import closed_loop
    tr = Tracer()
    variants = (
        lambda i: wl.traced_unit(args.seed, i, tr, tmp, i == 0),
        lambda i: wl.run_unit(args.seed, i, 1, tmp),
        lambda i: wl.run_unit(args.seed, i, 2, tmp),
    )

    def step(i):
        # the three runs of unit i back to back, in an order that rotates
        # with i, so that host drift cancels out of their ratios
        out = [None] * 3
        for k in range(3):
            v = (i + k) % 3
            out[v] = variants[v](i)
        return out

    units = closed_loop(step, args.seconds)
    traced, j1, j2 = (list(us) for us in zip(*units))
    failed = sum(u.failed for u in traced + j1 + j2)
    failed += compare_units(j1, traced, "traced and untraced", errors)
    failed += compare_units(j1, j2, "jobs=1 and jobs=2", errors)
    errors.extend(wl.check(distinct_outcomes(j1)))
    attempted = sum(u.trials for u in traced + j1 + j2)

    trials = sum(u.trials for u in traced)
    traced_s = sum(u.wall_s for u in traced)
    plain_s = sum(sum(u.trial_ms) for u in j1) / 1e3
    self_s = tr.self_times()
    c = tr.counts
    solves = len(c["sdp.iterations"])

    def per_trial_ms(name):
        return 1e3 * self_s[name] / trials

    def per_file_ms(name):
        return 1e3 * self_s[name] / tr.count(name)

    def mean(name):
        return statistics.fmean(c[name])

    metrics = {
        "sbm.sample_ms": (per_trial_ms("sbm.sample"), "ms"),
        "sbm.induce_ms": (per_trial_ms("sbm.induce"), "ms"),
        "sbm.adjacency_build_ms": (per_trial_ms("sbm.adjacency_build"), "ms"),
        "sbm.write_graph_ms": (per_file_ms("sbm.write_graph"), "ms"),
        "sbm.read_graph_ms": (per_file_ms("sbm.read_graph"), "ms"),
        "sbm.edges": (mean("sbm.edges"), "count"),
        "sbm.file_mb": (mean("sbm.file_bytes") / 1e6, "MB"),
        "sdp.solve_ms": (1e3 * self_s["sdp.solve"] / solves, "ms"),
        "sdp.iterations": (mean("sdp.iterations"), "count"),
        "sdp.spmm_calls": (mean("sdp.spmm_calls"), "count"),
        "sdp.spmm_per_iter": (sum(c["sdp.spmm_calls"]) / sum(c["sdp.iterations"]), "count"),
        "sdp.spmm_gflop_computed": (mean("sdp.spmm_flops") / 1e9, "GFLOP"),
        "sdp.cap_hit_frac": (mean("sdp.cap_hit"), "fraction"),
        "sdp.tight_frac": (mean("sdp.tight"), "fraction"),
        "sdp.restarts_used": (mean("sdp.restarts_used"), "count"),
        "sdp.restart_agree_frac": (sum(c["sdp.restarts_agree"])
                                   / sum(c["sdp.restarts_used"]), "fraction"),
        "sdp.round_ms": (1e3 * self_s["sdp.round"] / solves, "ms"),
        "sdp.power_iters": (mean("sdp.power_iters"), "count"),
        "vote.majority_vote_ms": (per_trial_ms("vote.majority_vote"), "ms"),
        "vote.ties": (mean("vote.ties"), "count"),
        "pipeline.subsample_ms": (per_trial_ms("pipeline.subsample"), "ms"),
        "pipeline.overhead_ms": (per_trial_ms("pipeline.trial"), "ms"),
        "pipeline.jobs2_speedup": (sum(u.wall_s for u in j1) / sum(u.wall_s for u in j2), "x"),
        "trace.overhead_frac": (traced_s / plain_s - 1, "fraction"),
    }
    outside = ("sdp.round", "sbm.write_graph", "sbm.read_graph")  # not in a trial span
    layer_ms = 1e3 * (sum(self_s.values()) - sum(self_s[n] for n in outside)) / trials
    notes = {
        "sdp.solve_ms": f"per solve, {solves} solves; includes rounding and certificate",
        "sdp.round_ms": "leading_eigenvector re-run on the returned factor, outside the trial",
        "sbm.write_graph_ms": f"per file, {tr.count('sbm.write_graph')} workload graphs "
                              "round-tripped outside the trial",
        "sbm.read_graph_ms": "per file, same graphs",
        "pipeline.overhead_ms": "self time of the trial span",
        "trace.overhead_frac": f"traced / untraced trial time - 1 over {len(units)} units, "
                               "each run both ways back to back",
        "pipeline.jobs2_speedup": f"jobs=1 / jobs=2 wall time over the same {len(units)} units",
        "layer_sum": f"per-layer self times sum to {layer_ms:.3f} ms per traced trial "
                     f"(traced trial wall {1e3 * traced_s / trials:.3f} ms, "
                     f"untraced {1e3 * plain_s / trials:.3f} ms)",
    }
    return metrics, notes, attempted, failed, tr


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blocksketch" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for k in BLAS_THREAD_VARS:  # before numpy loads; inherited by every worker
        os.environ[k] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    env = environment(args)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    errors = []
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, notes, attempted, failed, tracer = runner(wl, args, tmp, errors)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    if tracer is not None:
        out = ROOT / ".perfbench_runs"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"{args.workload}-seed{args.seed}-spans.jsonl", env)

    correct = failed == 0 and not errors
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    for extra in ("host_speed", "layer_sum"):
        if extra in notes:
            print(notes[extra])
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
