"""Command line interface.

Subcommands: gen | solve | sketch | sweep | vote-oracle | bounds.
stdout carries data (key=value lines or CSV); diagnostics go to stderr.
Exit codes: 0 success, 1 recovery failure, 2 usage or parameter error,
3 capacity or solver error. BLOCKSKETCH_SEED provides the default seed;
explicit flags always win.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .analytics import (BoundParams, binom_diff_tail_exact, chernoff_grid_min,
                        exact_recovery_possible, gamma_star, lambda_star,
                        lemma2_bound, lemma2_exponent)
from .errors import (CapacityError, DomainError, GraphFormatError,
                     ParameterError)
from .pipeline import SketchConfig, run_sweep, sketch_and_recover
from .rng import seed_sequence
from .sbm import SbmParams, log_rates, partitions_equal, read_graph, sample_sbm, write_graph
from .sdp import SdpConfig, solve_balanced_sdp, solve_lagrangian_sdp
from .vote import oracle_vote_trial

ENV_SEED = "BLOCKSKETCH_SEED"
_RATE_PAIRS = (("p", "q"), ("alpha", "beta"))


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"{ENV_SEED} must be an integer, got {raw!r}")


def _fmt6(x: float) -> str:
    return format(float(x), ".6f")


def _fmt_prob(x: float) -> str:
    """Scientific notation with a 7-digit mantissa and no exponent padding."""
    mant, exp = format(float(x), ".6e").split("e")
    sign = "-" if exp.startswith("-") else ""
    digits = exp.lstrip("+-").lstrip("0") or "0"
    return f"{mant}e{sign}{digits}"


def _fmt_data(x: float) -> str:
    return format(float(x), ".12g")


def _resolve_seed(flag: Optional[int]) -> int:
    return flag if flag is not None else _default_seed()


def _add_rate_flags(p: argparse.ArgumentParser) -> None:
    for name in ("--p", "--q", "--alpha", "--beta"):
        p.add_argument(name, type=float)


def _require_whole_pairs(args, pairs=_RATE_PAIRS) -> None:
    """Each flag pair is given whole or not at all; a lone half is a usage error."""
    for a, b in pairs:
        if (getattr(args, a) is None) != (getattr(args, b) is None):
            raise ParameterError(f"--{a}/--{b} must be given together")


def _params_from_flags(args) -> SbmParams:
    explicit_form = [args.n1, args.n2, args.p, args.q]
    if all(v is not None for v in explicit_form):
        if args.alpha is not None or args.beta is not None:
            raise ParameterError("--alpha/--beta do not combine with --n1/--n2/--p/--q")
        # redundant --n tolerated when consistent with n1 + n2
        if args.n is not None and args.n != args.n1 + args.n2:
            raise ParameterError(f"--n {args.n} contradicts --n1 + --n2 = {args.n1 + args.n2}")
        return SbmParams.explicit(args.n1, args.n2, args.p, args.q)
    if any(v is not None for v in explicit_form):
        raise ParameterError("explicit mode needs all of --n1/--n2/--p/--q")
    if args.n is not None and args.alpha is not None and args.beta is not None:
        return SbmParams.from_rates(args.n, args.alpha, args.beta)
    raise ParameterError("give either --n/--alpha/--beta or --n1/--n2/--p/--q")


def _rates_from_flags(args, n: int) -> Optional[tuple[float, float]]:
    """The rates of the one complete pair given, --p/--q or --alpha/--beta;
    None when neither is. A half pair, or both pairs, is a usage error."""
    _require_whole_pairs(args)
    if args.p is not None and args.alpha is not None:
        raise ParameterError("give either --p/--q or --alpha/--beta, not both")
    if args.p is not None:
        return args.p, args.q
    if args.alpha is not None:
        return _scaled_rates(args.alpha, args.beta, n)
    return None


def _scaled_rates(alpha: float, beta: float, n: int) -> tuple[float, float]:
    if n < 2:
        raise ParameterError(f"--alpha/--beta rates need n >= 2, got n={n}")
    return log_rates(n, alpha, beta)


def cmd_gen(args) -> int:
    params = _params_from_flags(args)
    g = sample_sbm(params, _resolve_seed(args.seed))
    write_graph(g, args.out)
    print(f"edges={g.m}")
    return 0


def cmd_solve(args) -> int:
    g = read_graph(args.infile)
    seed = _resolve_seed(args.seed)
    rates = _rates_from_flags(args, g.n)
    # a silent lam=0 would return the trivial all-ones optimum
    if sum((args.balanced, args.lam is not None, rates is not None)) != 1:
        raise ParameterError("solve needs exactly one multiplier source: --lambda, "
                             "--p/--q, --alpha/--beta, or --balanced")
    if args.balanced:
        sol = solve_balanced_sdp(g, SdpConfig(seed=seed))
    else:
        lam = args.lam if args.lam is not None else lambda_star(*rates)
        sol = solve_lagrangian_sdp(g, SdpConfig(lam=lam, seed=seed))
    print(f"objective={_fmt_data(sol.objective)}")
    print(f"rounded_objective={_fmt_data(sol.rounded_objective)}")
    print(f"certificate={'tight' if sol.certificate.tight else 'not-tight'}")
    print(f"gap={_fmt_data(sol.certificate.gap)}")
    print(f"balance_residual={_fmt_data(sol.balance_residual)}")
    print(f"iterations={sol.iterations}")
    print("labels=" + " ".join(str(int(v)) for v in sol.rounded))
    if g.truth is not None:
        ok = partitions_equal(sol.rounded, g.truth)
        print(f"recovered={'true' if ok else 'false'}")
        return 0 if ok else 1
    return 0


def cmd_sketch(args) -> int:
    g = read_graph(args.infile)
    if g.truth is None:
        raise ParameterError("sketch needs a graph file with a labels line")
    rates = _rates_from_flags(args, g.n)
    if rates is None:
        raise ParameterError("rates required: --p/--q or --alpha/--beta")
    p, q = rates
    seed = _resolve_seed(args.seed)
    cfg = SketchConfig(gamma=args.gamma)
    res = sketch_and_recover(g, p, q, cfg, seed)
    print(f"sample_size={res.kept.size}")
    print(f"lambda={'none' if res.lambda_used is None else _fmt_data(res.lambda_used)}")
    if res.solution is None:
        print("certificate=none")
    else:
        print(f"certificate={'tight' if res.solution.certificate.tight else 'not-tight'}")
    print(f"ties={res.vote.tie_count if res.vote else 0}")
    ok = partitions_equal(res.labels, g.truth)
    print(f"success={'true' if ok else 'false'}")
    if res.solution is None:
        print("degenerate sample: fewer than two nodes kept", file=sys.stderr)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args.master_seed)
    table = run_sweep(args.n, args.alpha, args.beta, args.gamma,
                      trials=args.trials, master_seed=seed, jobs=args.jobs,
                      trial_log=args.trial_log)
    text = table.to_csv()
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {len(table.cells)} cells to {args.out}", file=sys.stderr)
    return 0


def cmd_vote_oracle(args) -> int:
    if args.trials < 1:
        raise ParameterError(f"trials must be >= 1, got {args.trials}")
    seed = _resolve_seed(args.seed)
    if args.infile is not None:
        if args.n is not None or args.alpha is not None or args.beta is not None:
            raise ParameterError("give either --in or --n/--alpha/--beta")
        base = read_graph(args.infile)
        if base.truth is None:
            raise ParameterError("vote-oracle needs a graph file with a labels line")
        params = None
    else:
        if args.n is None or args.alpha is None or args.beta is None:
            raise ParameterError("vote-oracle needs --in or --n/--alpha/--beta")
        params = SbmParams.from_rates(args.n, args.alpha, args.beta)
    successes = 0
    for t in range(args.trials):
        trial_seed = seed_sequence(seed, t)
        g = base if params is None else sample_sbm(params, trial_seed)
        successes += oracle_vote_trial(g, args.gamma, trial_seed)
    print(f"trials={args.trials}")
    print(f"successes={successes}")
    print(f"success_rate={_fmt6(successes / args.trials)}")
    return 0


def cmd_bounds(args) -> int:
    _require_whole_pairs(args, _RATE_PAIRS + (("K1", "K2"),))
    if args.gamma is not None and args.alpha is None:
        raise ParameterError("--gamma needs --alpha/--beta")
    if args.n is not None and (args.alpha is None or args.p is not None):
        raise ParameterError("--n is used only with --alpha/--beta, without --p/--q")
    lines = []
    if args.alpha is not None:
        lines.append(f"gamma_star={_fmt6(gamma_star(args.alpha, args.beta))}")
        lines.append(f"theorem1={exact_recovery_possible(args.alpha, args.beta)}")
        if args.gamma is not None:
            lines.append(
                f"lemma2_exponent={_fmt6(lemma2_exponent(args.alpha, args.beta, args.gamma))}")
    if args.p is not None:
        lines.append(f"lambda_star={_fmt6(lambda_star(args.p, args.q))}")
    elif args.n is not None:
        p, q = _scaled_rates(args.alpha, args.beta, args.n)
        lines.append(f"lambda_star={_fmt6(lambda_star(p, q))}")
    if args.K1 is not None:
        if args.p is None:
            raise ParameterError("--K1/--K2 need --p and --q")
        bp = BoundParams(K1=args.K1, K2=args.K2, p=args.p, q=args.q)
        lines.append(f"lemma2_bound={_fmt_prob(lemma2_bound(bp))}")
        lines.append(f"exact_tail={_fmt_prob(binom_diff_tail_exact(bp))}")
        lines.append(f"chernoff_min={_fmt_prob(chernoff_grid_min(bp))}")
    if not lines:
        raise ParameterError("nothing to compute: give --alpha/--beta, --p/--q, or --K1/--K2")
    for ln in lines:
        print(ln)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksketch",
        description="Sketched SDP community detection for two-community block models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a block-model graph to a file")
    p.add_argument("--n", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    _add_rate_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve the SDP relaxation on a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    _add_rate_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sketch", help="subsample, solve, and vote on a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gamma", type=float, required=True)
    _add_rate_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sketch)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over a parameter product")
    p.add_argument("--n", type=int, action="append", required=True)
    p.add_argument("--alpha", type=float, action="append", required=True)
    p.add_argument("--beta", type=float, action="append", required=True)
    p.add_argument("--gamma", type=float, action="append", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--master-seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes: this one plus jobs-1 forked children "
                        "(POSIX only); results do not depend on it")
    p.add_argument("--out", default=None)
    p.add_argument("--trial-log", default=None,
                   help="JSONL file, one record per trial, written as each trial finishes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("vote-oracle", help="oracle-initialized majority-vote trials")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_vote_oracle)

    p = sub.add_parser("bounds", help="thresholds and tail bounds")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--K1", type=int)
    p.add_argument("--K2", type=int)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args) or 0)
    except (ParameterError, DomainError, GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
