"""Command-line interface.

Subcommands: ``gen`` (model files), ``sample`` (chain traces), ``analyze``
(compute-fair ACF overlays), ``verify`` (exact-oracle checks), ``experiment``
(full two-sampler preset runs). Exit codes: 0 success, 1 usage or
configuration error, 2 verification failure, 3 I/O or file-format error.

``analyze`` prices a recorded sample in Metropolis moves, from ``--fair-ratio``
or the ``cost_per_sample`` of experiment trace headers, and scales each
sampler's lags by its cost over the dearest sampler's; it never thins a trace.

The master seed comes from ``--seed`` or the SHELLWALK_SEED environment
variable; every command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analysis, experiments
from .errors import (
    ConfigurationError,
    DegenerateTraceError,
    EnumerationBudgetError,
    ModelFormatError,
)
from .generators import (
    cube3d_pm_j,
    grid2d,
    load_model,
    load_weights_csv,
    rbm_from_weights,
    rbm_gabor,
    save_model,
)
from .model import IsingModel, ShellConstraint
from .oracle import (
    check_pathwise_db,
    detailed_balance_gap,
    empirical_distribution,
    enumerate_shell,
    exact_distribution,
    exact_im_kernel,
    stationarity_gap,
    tv_distance,
)
from .samplers import (
    ChainSpec,
    ImConfig,
    MetropolisConfig,
    burn_in_moves,
    chain_rng,
    random_shell_state,
)
from .saw_proposal import SawParams, propose

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed():
    return int(os.environ.get("SHELLWALK_SEED", "0"))


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_fraction(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def cmd_gen(args):
    if args.family == "grid2d":
        model = grid2d(args.side, args.coupling, args.field, periodic=args.periodic)
    elif args.family == "cube3d":
        model = cube3d_pm_j(args.side, args.seed, periodic=args.periodic)
    else:
        if args.weights:
            model = rbm_from_weights(load_weights_csv(args.weights))
        else:
            model = rbm_gabor(args.visible, args.hidden, args.seed,
                              weight_scale=args.scale)
    save_model(model, args.out)
    print(f"wrote {args.out}: {model.num_vars} variables, {model.num_edges} edges")
    return EXIT_OK


def _resolve_shell_distance(args, num_vars):
    if args.n is not None:
        n = args.n
    elif args.n_fraction > 1.0:
        raise ConfigurationError(f"--n-fraction must be <= 1, got {args.n_fraction}")
    else:
        n = math.floor(args.n_fraction * num_vars)
    if not 0 <= n <= num_vars:
        raise ConfigurationError(
            f"shell distance {n} out of range [0, {num_vars}]"
        )
    return n


def cmd_sample(args):
    model = load_model(args.model)
    n = _resolve_shell_distance(args, model.num_vars)
    gamma = args.gamma if args.gamma is not None else args.beta
    files = []
    for trial in range(args.trials):
        spec = ChainSpec(
            sampler=args.sampler,
            beta=args.beta,
            gamma=gamma,
            k_min=args.k if args.k is not None else args.k_min,
            k_max=args.k if args.k is not None else args.k_max,
            order=args.order,
            engine="auto",
            shell_distance=n,
            moves=args.moves,
            stride=args.stride,
            burn_in=burn_in_moves(args.burn_in_fraction, args.moves,
                                  "--burn-in-fraction"),
            seed=args.seed,
            trial=trial,
            chain_index=trial,
        )
        record = spec.run(model, audit=args.debug)
        # after the first chain's sampler accepted the configuration
        os.makedirs(args.out, exist_ok=True)
        name = spec.write_trace(record, args.out, args.model)
        files.append({"path": name, "kind": "trace",
                      "params": {"sampler": args.sampler, "trial": trial}})
        print(
            f"{name}: {len(record)} recorded moves, acceptance "
            f"{record.acceptance_rate:.3f}"
        )
    analysis.write_manifest(args.out, files, command="sample", params={
        "model": args.model, "sampler": args.sampler, "beta": args.beta,
        "gamma": gamma, "n": n, "moves": args.moves, "trials": args.trials,
        "stride": args.stride, "seed": args.seed,
    })
    return EXIT_OK


def _group_cost(sampler, traces, fair_ratio):
    """Metropolis moves per recorded sample of one sampler's traces, from
    ``--fair-ratio`` or else the headers; None when no header carries one."""
    costs = {}
    for trace in traces:
        stride = trace.meta.get("stride", 1)
        if fair_ratio is None:
            cost = trace.meta.get("cost_per_sample")
        else:
            cost = float(fair_ratio * stride if sampler == "im" else stride)
        costs.setdefault(cost, []).append(trace.meta["path"])
    if len(costs) > 1:
        listed = "; ".join(f"{cost} in {', '.join(paths)}"
                           for cost, paths in costs.items())
        raise ConfigurationError(
            f"traces of {sampler!r} disagree on cost per sample: {listed}"
        )
    return next(iter(costs))


def cmd_analyze(args):
    groups = {}
    for path in args.traces:
        trace = analysis.load_trace(path)
        groups.setdefault(trace.meta.get("sampler", "unknown"), []).append(trace)
    costs = {sampler: _group_cost(sampler, traces, args.fair_ratio)
             for sampler, traces in groups.items()}
    # a lone sampler needs no price: its lags stay in recorded samples
    units = dict.fromkeys(costs, 1.0)
    if len(costs) > 1:
        for sampler, cost in costs.items():
            if cost is None:
                raise ConfigurationError(
                    f"{groups[sampler][0].meta['path']}: no cost_per_sample in "
                    "the header; pass --fair-ratio to price the samplers"
                )
        reference = max(costs.values())
        units = {sampler: cost / reference for sampler, cost in costs.items()}
    os.makedirs(args.out, exist_ok=True)

    # --max-lag counts samples of the dearest sampler
    acfs = analysis.write_acf_outputs(
        args.out, {sampler: (traces, units[sampler])
                   for sampler, traces in groups.items()},
        args.max_lag, "energy autocorrelation (compute-fair)")
    files = []
    for sampler, (curve, _) in acfs.items():
        unit = curve.lag_unit
        files.append({"path": analysis.ACF_TABLE.format(sampler=sampler),
                      "kind": "acf",
                      "params": {"sampler": sampler, "trials": curve.num_trials,
                                 "lag_unit": unit}})
        tau = analysis.integrated_time(curve) * unit
        print(f"{sampler}: {curve.num_trials} trace(s), lag unit {unit:.6g}, "
              f"tau_int {tau:.2f} (compute-normalized lags)")
    files.append({"path": analysis.ACF_OVERLAY, "kind": "figure", "params": {}})
    analysis.write_manifest(args.out, files, command="analyze", params={
        "traces": list(args.traces), "max_lag": args.max_lag,
        "fair_ratio": args.fair_ratio,
    })
    return EXIT_OK


VERIFY_THRESHOLDS = {
    "stationarity_gap": 1e-12,
    "max_db_gap": 1e-12,
    "max_pathwise_gap": 1e-10,
    "tv": 0.02,
}


def _verify_kernel(report):
    # 6-variable open chain ferromagnet, n=3, fixed k=2, gamma=beta=0.7
    side = 6
    edges = [(i, i + 1, 1.0) for i in range(side - 1)]
    model = IsingModel(side, edges, [0.0] * side)
    constraint = ShellConstraint((0,) * side, 3)
    params = SawParams(gamma=0.7, k_min=2, k_max=2)
    kernel = exact_im_kernel(model, 0.7, params, constraint)
    report["stationarity_gap"] = stationarity_gap(kernel)
    report["max_db_gap"] = detailed_balance_gap(kernel)


def _verify_pathwise(report, moves, seed, inject):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(1,)))
    worst = 0.0
    done = 0
    while done < moves:
        couplings = rng.uniform(-1.0, 1.0)
        model = grid2d(3, couplings, float(rng.uniform(-0.3, 0.3)))
        beta = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(1, model.num_vars))
        constraint = ShellConstraint((0,) * model.num_vars, n)
        state = random_shell_state(model, constraint, rng)
        params = SawParams(gamma=gamma, k_min=1, k_max=3, order_policy="random")
        for _ in range(min(100, moves - done)):
            move = propose(model, state, params, rng)
            if inject:
                move.log_rev += inject
            _, _, gap = check_pathwise_db(model, beta, move, state)
            worst = max(worst, gap)
            done += 1
    report["max_pathwise_gap"] = worst


def _verify_tv(report, samples, seed):
    model = grid2d(3, 1.0, 0.0)
    constraint = ShellConstraint((0,) * 9, 4)
    shell = exact_distribution(model, 0.44, enumerate_shell(constraint))
    for sampler, stride, chain_index in (("im", 2, 2), ("metropolis", 5, 3)):
        rng = chain_rng(seed, chain_index)
        init = random_shell_state(model, constraint, rng)
        if sampler == "im":
            config = ImConfig(beta=0.44,
                              saw=SawParams(gamma=0.44, k_min=1, k_max=3),
                              seed=seed)
        else:
            config = MetropolisConfig(beta=0.44, seed=seed)
        empirical = empirical_distribution(
            model, init, sampler, config, rng, shell,
            samples=samples, stride=stride, burn_in=samples // 10,
        )
        report[f"tv_{sampler}"] = tv_distance(empirical, shell.probabilities)
    report["tv"] = max(report["tv_im"], report["tv_metropolis"])


def cmd_verify(args):
    report = {}
    _verify_kernel(report)
    _verify_pathwise(report, args.pathwise_moves, args.seed,
                     args.inject_log_rev_offset)
    _verify_tv(report, args.tv_samples, args.seed)
    report["thresholds"] = dict(VERIFY_THRESHOLDS)
    failures = [
        key for key, bound in VERIFY_THRESHOLDS.items() if report[key] > bound
    ]
    report["passed"] = not failures
    if args.out:
        analysis.write_json(args.out, report)
    sys.stdout.write(analysis.json_text(report))
    if failures:
        print(f"verification FAILED: {', '.join(failures)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_experiment(args):
    def progress(spec):
        print(f"finished {spec.sampler} trial {spec.trial} ({spec.moves} moves)")

    summary = experiments.run_experiment(
        args.preset,
        scale=args.scale,
        out_dir=args.out,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        im_moves=args.im_moves,
        fair_ratio=args.fair_ratio,
        burn_in_fraction=args.burn_in_fraction,
        max_lag=args.max_lag,
        progress=progress if args.verbose else None,
    )
    config = summary["config"]
    print(
        f"{args.preset} ({args.scale}): n={config['shell_distance']}, "
        f"beta={config['beta']:.6g}, gamma={config['gamma']:.6g}, "
        f"k=[{config['k_min']},{config['k_max']}], "
        f"fair ratio {config['fair_ratio']}x"
    )
    for sampler, stats in summary["samplers"].items():
        print(
            f"  {sampler}: tau_int {stats['tau_int_mean']:.2f}, acceptance "
            f"{stats['acceptance_rate_mean']:.3f}, final-quarter energy "
            f"{stats['final_quarter_energy_mean']:.4f}"
        )
    print(f"  tau ratio (metropolis/walk): {summary['tau_ratio_met_over_im']:.2f}")
    print(f"outputs in {args.out}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="shellwalk",
                     description="Shell-constrained MCMC experiments")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a model file")
    gen_sub = gen.add_subparsers(dest="family", required=True,
                                 parser_class=_Parser)
    g = gen_sub.add_parser("grid2d", help="ferromagnetic square grid")
    g.add_argument("--side", type=_positive_int, required=True)
    g.add_argument("--coupling", type=float, default=1.0)
    g.add_argument("--field", type=float, default=0.0)
    g.add_argument("--periodic", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)
    c = gen_sub.add_parser("cube3d", help="+/-1 random-coupling cube")
    c.add_argument("--side", type=_positive_int, required=True)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--periodic", action="store_true")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_gen)
    r = gen_sub.add_parser("rbm", help="bipartite Gabor-filter model")
    r.add_argument("--visible", type=_positive_int, default=784)
    r.add_argument("--hidden", type=_positive_int, default=500)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--scale", type=float, default=1.0,
                   help="L2 norm of each filter row")
    r.add_argument("--weights", default=None,
                   help="CSV weight matrix (hidden rows x visible columns)")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_gen)

    s = sub.add_parser("sample", help="run chains and write trace CSVs")
    s.add_argument("--model", required=True)
    s.add_argument("--sampler", choices=("im", "metropolis"), required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--gamma", type=float, default=None,
                   help="walk bias (default: beta)")
    s.add_argument("--k", type=_positive_int, default=None,
                   help="fixed walk length")
    s.add_argument("--k-min", type=_positive_int, default=1)
    s.add_argument("--k-max", type=_positive_int, default=1)
    s.add_argument("--order", choices=("up_down", "down_up", "random"),
                   default="up_down")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None,
                       help="shell distance (count of active bits)")
    group.add_argument("--n-fraction", type=_nonnegative_fraction, default=None)
    s.add_argument("--moves", type=_positive_int, required=True)
    s.add_argument("--trials", type=_positive_int, default=1)
    s.add_argument("--stride", type=_positive_int, default=1)
    s.add_argument("--burn-in-fraction", type=_nonnegative_fraction, default=0.1)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--debug", action="store_true",
                   help="assert shell and cache coherence while running")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)

    a = sub.add_parser("analyze", help="compute-fair ACF from trace files")
    a.add_argument("traces", nargs="+")
    a.add_argument("--max-lag", type=_positive_int, default=500)
    a.add_argument("--fair-ratio", type=_positive_int, default=None,
                   help="Metropolis moves per walk move (default: the "
                        "cost_per_sample of the trace headers)")
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="exact-oracle verification battery")
    v.add_argument("--pathwise-moves", type=_positive_int, default=2000)
    v.add_argument("--tv-samples", type=_positive_int, default=200_000)
    v.add_argument("--inject-log-rev-offset", type=float, default=0.0,
                   help="deliberately corrupt reverse log probabilities "
                        "(the checks must then fail)")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("experiment", help="full preset comparison run")
    e.add_argument("preset", choices=experiments.PRESET_NAMES)
    e.add_argument("--scale", choices=experiments.SCALES, default="desk")
    e.add_argument("--trials", type=_positive_int, default=10)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--workers", type=_positive_int,
                   default=max(1, os.cpu_count() or 1))
    e.add_argument("--im-moves", type=_positive_int, default=None)
    e.add_argument("--fair-ratio", type=_positive_int, default=None)
    e.add_argument("--burn-in-fraction", type=_nonnegative_fraction, default=0.1)
    e.add_argument("--max-lag", type=_positive_int, default=None)
    e.add_argument("--verbose", action="store_true")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigurationError, DegenerateTraceError, EnumerationBudgetError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
