"""Experiment driver: generate instances, run one simulation, compare strategies.

Exit codes: 0 success, 1 usage or I/O problem, 2 infeasible configuration,
3 internal-consistency failure (the simulator's books disagree with the
independent re-checker).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from . import fileio, metrics
from .errors import InternalConsistencyError, InvalidConfig, SecVneError
from .generate import GeneratorConfig, generate_substrate, generate_vnr_stream
from .simulation import STRATEGY_NAMES, VALIDATE_FULL, VALIDATE_OFF, make_strategy, run

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
    gen.add_argument("--literal-table1", action="store_true",
                     help="use the published CPU ranges, under which no request fits")
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
                      help="override the horizon stored in the workload file")
    runp.add_argument("--cost-mode", choices=(metrics.COST_LITERAL, metrics.COST_HOP),
                      default=metrics.COST_HOP)
    runp.add_argument("--eq20-literal", action="store_true",
                      help="score raw boundary distance instead of proximity")
    runp.add_argument("--validate", choices=(VALIDATE_FULL, VALIDATE_OFF),
                      default=VALIDATE_FULL,
                      help="shadow-validate every acceptance, or none")
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
                           "file's horizon in fixed-instance mode)")
    cmp_.add_argument("--window", type=float, default=500.0)
    cmp_.add_argument("--warmup-frac", type=float, default=0.2,
                      help="fraction of the horizon discarded as warmup")
    cmp_.add_argument("--cost-mode", choices=(metrics.COST_LITERAL, metrics.COST_HOP),
                      default=metrics.COST_HOP)
    cmp_.add_argument("--eq20-literal", action="store_true")
    cmp_.add_argument("--literal-table1", action="store_true")
    cmp_.add_argument("--out", required=True, help="output directory")
    return parser


def _load_or_default_config(path, seed=None, literal_table1=False) -> GeneratorConfig:
    cfg = fileio.load_config(path) if path else GeneratorConfig()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if literal_table1:
        cfg = replace(cfg, literal_table1=True)
    cfg.validate()
    return cfg


def cmd_generate(args) -> int:
    cfg = _load_or_default_config(args.config, args.seed, args.literal_table1)
    net = generate_substrate(cfg)
    vnrs = generate_vnr_stream(cfg, args.horizon)
    out = Path(args.out)
    fileio.save_substrate(net, out / "substrate.json")
    fileio.save_workload(vnrs, args.horizon, out / "workload.jsonl")
    fileio.save_config(cfg, out / "config.json")
    print(f"generate: seed={cfg.seed} domains={net.domain_count} nodes={len(net.nodes)} "
          f"links={len(net.links)} requests={len(vnrs)} -> {out}")
    return EXIT_OK


def _load_instance(substrate_path, workload_path):
    """Load a substrate and a workload; every candidate domain the workload
    names must be a domain of the substrate."""
    net = fileio.load_substrate(substrate_path)
    vnrs, horizon = fileio.load_workload(workload_path)
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
    net, vnrs, horizon = _load_instance(args.substrate, args.workload)
    if args.horizon is not None:
        horizon = args.horizon
    strategy = make_strategy(args.strategy, seed=args.seed, invert_hop=not args.eq20_literal)
    trace = run(net, vnrs, strategy, horizon, validate=args.validate)
    rows = metrics.windowed_series(trace, args.window, mode=args.cost_mode)
    cum = metrics.cumulative_series(trace, args.window, mode=args.cost_mode)
    out = Path(args.out)
    fileio.write_trace(trace, out / "trace.jsonl", mode=args.cost_mode)
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
    for s in strategies:
        if s not in STRATEGY_NAMES:
            raise InvalidConfig(f"unknown strategy {s!r}; expected one of {STRATEGY_NAMES}")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad --seeds list {args.seeds!r}: {exc}") from exc
    if not strategies or not seeds:
        raise InvalidConfig("need at least one strategy and one seed")

    fixed = None
    if args.substrate or args.workload:
        if not (args.substrate and args.workload):
            raise InvalidConfig("--substrate and --workload must be given together")
        fixed = _load_instance(args.substrate, args.workload)
    base_cfg = None
    if fixed is None:
        base_cfg = _load_or_default_config(args.config, literal_table1=args.literal_table1)

    if args.horizon is not None:
        horizon = args.horizon
    elif fixed is not None:
        horizon = fixed[2]
    else:
        horizon = 6000.0
    warmup_t = args.warmup_frac * horizon
    results: dict[str, dict[str, list[float | None]]] = {
        s: {m: [] for m in METRIC_NAMES} for s in strategies}
    for seed in seeds:
        if fixed is None:
            cfg = replace(base_cfg, seed=seed)
            base_net = generate_substrate(cfg)
            vnrs = generate_vnr_stream(cfg, horizon)
        else:
            base_net, vnrs = fixed[0], fixed[1]
        for name in strategies:
            strategy = make_strategy(name, seed=seed, invert_hop=not args.eq20_literal)
            trace = run(base_net.copy(), vnrs, strategy, horizon)
            rows = metrics.windowed_series(trace, args.window, mode=args.cost_mode)
            means = metrics.steady_state_means(rows, warmup_t)
            for m in METRIC_NAMES:
                results[name][m].append(means[m])

    out = Path(args.out)
    seed_cols = ",".join(f"seed_{s}" for s in seeds)
    for m in METRIC_NAMES:
        lines = [f"strategy,mean,stddev,{seed_cols}"]
        for name in strategies:
            values = results[name][m]
            mean, std = _mean_std(values)
            cells = [name, fileio.format_cell(mean), fileio.format_cell(std)]
            cells += [fileio.format_cell(v) for v in values]
            lines.append(",".join(cells))
        fileio.atomic_write_text(out / f"{m}.csv", "\n".join(lines) + "\n")

    summary = ["strategy," + ",".join(METRIC_NAMES)]
    for name in strategies:
        cells = [name]
        for m in METRIC_NAMES:
            mean, _ = _mean_std(results[name][m])
            cells.append(fileio.format_cell(mean))
        summary.append(",".join(cells))
    fileio.atomic_write_text(out / "summary.csv", "\n".join(summary) + "\n")

    print(f"compare: strategies={strategies} seeds={seeds} -> {out}")
    for line in summary:
        print("  " + line)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
