"""Experiment driver: generate instances, run one simulation, compare strategies.

Exit codes: 0 success, 1 usage or I/O problem, 2 infeasible configuration,
3 internal-consistency failure (the simulator's books disagree with the
independent re-checker).
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from . import fileio, metrics
from .errors import InternalConsistencyError, InvalidConfig, SecVneError
from .generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from .seeding import check_seed
from .simulation import STRATEGY_NAMES, compare, make_strategy, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3

METRIC_NAMES = ("acceptance", "avg_revenue", "avg_cost", "rc_ratio")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="secvne",
                     description="Security-aware virtual network embedding simulator")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a substrate and a request stream")
    gen.add_argument("--config", help="JSON file of generator settings")
    gen.add_argument("--seed", type=int, help="override the config seed")
    gen.add_argument("--horizon", type=float, default=10000.0,
                     help="request-stream horizon in time units (default 10000)")
    gen.add_argument("--out", required=True, help="output directory")

    runp = sub.add_parser("run", help="simulate one strategy over a stream")
    runp.add_argument("--substrate", required=True)
    runp.add_argument("--workload", required=True)
    runp.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    runp.add_argument("--seed", type=int, default=0,
                      help="root seed for strategy-internal randomness")
    runp.add_argument("--window", type=float, default=500.0,
                      help="metric window width in time units")
    runp.add_argument("--horizon", type=float,
                      help="simulation horizon, at most the one stored in the "
                           "workload file (default: that one)")
    runp.add_argument("--out", required=True, help="output directory")

    cmp_ = sub.add_parser("compare", help="mean/stddev metric tables over strategies x seeds")
    cmp_.add_argument("--config", help="generate a fresh instance per seed from this config")
    cmp_.add_argument("--substrate", help="fixed substrate file (alternative to --config)")
    cmp_.add_argument("--workload", help="fixed workload file (alternative to --config)")
    cmp_.add_argument("--strategies", default="stec-iot,greedy,random",
                      help="comma-separated subset of: " + ",".join(STRATEGY_NAMES))
    cmp_.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seed list")
    cmp_.add_argument("--horizon", type=float,
                      help="simulation horizon (default 6000, or the workload "
                           "file's horizon, which it may not exceed, in "
                           "fixed-instance mode)")
    cmp_.add_argument("--window", type=float, default=500.0)
    cmp_.add_argument("--warmup-frac", type=float, default=0.2,
                      help="fraction of the horizon discarded as warmup")
    cmp_.add_argument("--out", required=True, help="output directory")
    return parser


def _check_numeric_args(args) -> None:
    """Reject a --horizon or --window that is not a finite positive number and
    a --warmup-frac outside [0, 1), before any subcommand reads them."""
    for flag in ("horizon", "window"):
        value = getattr(args, flag, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise InvalidConfig(f"--{flag} must be a finite positive number, got {value}")
    frac = getattr(args, "warmup_frac", None)
    if frac is not None and not 0 <= frac < 1:
        raise InvalidConfig(f"--warmup-frac must be in [0, 1), got {frac}")


def _check_window_count(horizon: float, width: float) -> None:
    """Reject a --window too narrow for the horizon before simulating."""
    try:
        metrics.check_window_count(horizon, width)
    except ValueError as exc:
        raise InvalidConfig(f"--window {width}: {exc}") from exc


def _check_steady_state(horizon: float, width: float, warmup_t: float) -> None:
    """Reject a horizon and window whose windows all start before the warmup
    ends.  Window i starts at i * width for each i with i * width < horizon."""
    i = 0
    while i * width < warmup_t:
        i += 1
    if not i * width < horizon:
        raise InvalidConfig(f"--horizon {horizon} and --window {width} leave no window "
                            f"starting at or after the warmup time {warmup_t}")


def _load_or_default_config(path, seed=None) -> GeneratorConfig:
    cfg = fileio.load_config(path) if path else GeneratorConfig()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    cfg.validate()
    return cfg


def cmd_generate(args) -> int:
    cfg = _load_or_default_config(args.config, args.seed)
    net = generate_substrate(cfg)
    vnrs = generate_vnr_stream(cfg, args.horizon)
    out = Path(args.out)
    fileio.save_substrate(net, out / "substrate.json")
    fileio.save_workload(vnrs, args.horizon, out / "workload.jsonl")
    fileio.save_config(cfg, out / "config.json")
    print(f"generate: seed={cfg.seed} domains={net.domain_count} nodes={len(net.nodes)} "
          f"links={len(net.links)} requests={len(vnrs)} -> {out}")
    return EXIT_OK


def _load_instance(substrate_path, workload_path, horizon):
    """Load a substrate and a workload; every candidate domain the workload
    names must be a domain of the substrate.  Return them with the horizon to
    simulate: `horizon`, or the workload file's when it is None.  A horizon
    past the file's is rejected, since the file holds no arrivals after its
    own horizon and the windows there would be empty."""
    net = fileio.load_substrate(substrate_path)
    vnrs, file_horizon = fileio.load_workload(workload_path)
    if horizon is None:
        horizon = file_horizon
    elif horizon > file_horizon:
        raise InvalidConfig(f"--horizon {horizon} is past the horizon {file_horizon} of "
                            f"the workload file {workload_path}")
    domains = {n.domain for n in net.nodes.values()}
    for vnr in vnrs:
        for vid in sorted(vnr.nodes):
            unknown = sorted(vnr.nodes[vid].cd - domains)
            if unknown:
                raise InvalidConfig(f"request {vnr.id}: virtual node {vid} names candidate "
                                    f"domain {unknown[0]}, which the substrate "
                                    f"{substrate_path} lacks")
    return net, vnrs, horizon


def cmd_run(args) -> int:
    check_seed(args.seed, "--seed")
    net, vnrs, horizon = _load_instance(args.substrate, args.workload, args.horizon)
    _check_window_count(horizon, args.window)
    strategy = make_strategy(args.strategy, seed=args.seed)
    trace = run(net, vnrs, strategy, horizon)
    rows = metrics.windowed_series(trace, args.window)
    cum = metrics.cumulative_series(trace, args.window)
    out = Path(args.out)
    fileio.write_trace(trace, out / "trace.jsonl")
    fileio.write_window_csv(rows, out / "windows.csv")
    fileio.write_cumulative_csv(cum, out / "cumulative.csv")
    acc = trace.acceptance
    print(f"run: strategy={args.strategy} arrived={trace.arrived} accepted={trace.accepted} "
          f"acceptance={acc if acc is None else round(acc, 4)} -> {out}")
    return EXIT_OK


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    return statistics.fmean(present), statistics.pstdev(present)


def cmd_compare(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for i, s in enumerate(strategies):
        if s not in STRATEGY_NAMES:
            raise InvalidConfig(f"unknown strategy {s!r}; expected one of {STRATEGY_NAMES}")
        if s in strategies[:i]:
            raise InvalidConfig(f"strategy {s!r} is listed twice in --strategies")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad --seeds list {args.seeds!r}: {exc}") from exc
    for i, seed in enumerate(seeds):
        check_seed(seed, "--seeds entry")
        if seed in seeds[:i]:
            raise InvalidConfig(f"seed {seed} is listed twice in --seeds")
    if not strategies or not seeds:
        raise InvalidConfig("need at least one strategy and one seed")

    if args.substrate or args.workload:
        if args.config:
            raise InvalidConfig("--config and --substrate/--workload are alternatives; "
                                "give one of them")
        if not (args.substrate and args.workload):
            raise InvalidConfig("--substrate and --workload must be given together")
        net, vnrs, horizon = _load_instance(args.substrate, args.workload, args.horizon)

        def instance_of(seed):
            return net, vnrs
    else:
        base_cfg = _load_or_default_config(args.config)
        horizon = 6000.0 if args.horizon is None else args.horizon

        def instance_of(seed):
            cfg = replace(base_cfg, seed=seed)
            return generate_substrate(cfg), generate_vnr_stream(cfg, horizon)

    _check_window_count(horizon, args.window)
    warmup_t = args.warmup_frac * horizon
    _check_steady_state(horizon, args.window, warmup_t)
    results: dict[str, dict[str, list[float | None]]] = {
        s: {m: [] for m in METRIC_NAMES} for s in strategies}
    for name, _, _, means in compare(instance_of, strategies, seeds, horizon, args.window,
                                     warmup_t):
        for m in METRIC_NAMES:
            results[name][m].append(means[m])

    out = Path(args.out)
    seed_cols = ",".join(f"seed_{s}" for s in seeds)
    for m in METRIC_NAMES:
        fileio.write_csv(f"strategy,mean,stddev,{seed_cols}",
                         ([name, *_mean_std(results[name][m]), *results[name][m]]
                          for name in strategies), out / f"{m}.csv")
    summary = fileio.write_csv("strategy," + ",".join(METRIC_NAMES),
                               ([name, *(_mean_std(results[name][m])[0] for m in METRIC_NAMES)]
                                for name in strategies), out / "summary.csv")

    print(f"compare: strategies={strategies} seeds={seeds} -> {out}")
    for line in summary:
        print("  " + line)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_numeric_args(args)
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_compare(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InvalidConfig as exc:
        print(f"secvne: infeasible config: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InternalConsistencyError as exc:
        print(f"secvne: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, SecVneError, ValueError) as exc:
        print(f"secvne: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
