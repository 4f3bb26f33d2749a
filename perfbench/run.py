"""Benchmark of the secvne simulator, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload stec-default --seed 0 --seconds 30 --trace 0

It imports the library from `src/` of the same checkout, builds the
workload's instances from the seed (generate, then save and reload through
`fileio`: the set-up), and simulates them with full validation and the
residual audit on, writing the trace and both metric series after each
simulation.  With `--trace 0` it repeats the instances until `--seconds` is
spent and reports the end-to-end metrics, its host times scaled to a fixed
host speed by the reference of `reference.py`; with `--trace 1` it runs
every instance once plain and once with the per-layer wrappers of
`layers.py`, and reports the per-layer metrics.  Every run checks its outputs: equal
SHA-256 digests across repeats, traced against plain, and against the
digests pinned for the seed.  The last line of output is one JSON object;
the lines before it give each metric with its unit.  The exit code is 0
when every check passed, 1 otherwise, 2 on bad usage.  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from layers import Tracer, per_layer_metrics
from reference import Reference
from workloads import WINDOW, WORKLOADS, Workload

# One process, no helper threads: keep numpy's BLAS pool, unused here, from
# starting when load_library imports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
OUTPUTS = ("trace.jsonl", "windows.csv", "cumulative.csv")
# Set-up is repeated in rounds over all instances, while the rounds so far
# took less than SETUP_BUDGET_S and up to SETUP_ROUNDS rounds, so that the
# median of `setup_s` rests on a few dozen samples where set-up is quick.
SETUP_ROUNDS = 5
SETUP_BUDGET_S = 1.0


def load_library():
    """Import secvne from this checkout's `src/`, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import secvne
        import secvne.fileio
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import secvne from {src}: {exc}")
    if not Path(secvne.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: secvne was imported from {secvne.__file__}, "
                         f"not from {src}")
    return secvne


@dataclass
class Instance:
    index: int
    seed: int
    directory: Path
    net: object
    vnrs: list
    horizon: float
    setup_s: float


@dataclass
class RunResult:
    arrived: int
    accepted: int
    revenue: float
    cost: float
    run_s: float        # simulation.run alone
    seconds: float      # run, both metric series and the output writes
    samples: list       # seconds per strategy.embed call
    digest: str
    bytes_written: int


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict       # name -> (value, unit), the metrics of the JSON line
    printed: dict = field(default_factory=dict)  # name -> (value, unit), printed only
    notes: list = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"{name} {value!r} {unit}"
               for name, (value, unit) in {**self.metrics, **self.printed}.items()]
        out += self.notes
        out.append(json.dumps({
            "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()}}))
        return out


class TimedStrategy:
    """Delegates to a library strategy and times each embed call.

    With a `Reference`, the reference is timed between calls, outside the
    timed span.
    """

    def __init__(self, inner, embed=None, reference: Reference | None = None):
        self.name = inner.name
        self._embed = embed if embed is not None else inner.embed
        self._reference = reference
        self.samples: list[float] = []

    def embed(self, vnr, net):
        if self._reference is not None:
            self._reference.maybe_sample()
        start = perf_counter()
        try:
            return self._embed(vnr, net)
        finally:
            self.samples.append(perf_counter() - start)


def set_up(lib, wl: Workload, seed: int, index: int, out: Path) -> Instance:
    """Generate instance `index`, then save and reload it through fileio.

    The substrate and the strategy seed come from the benchmark seed; the
    request stream is the workload's own stream number `index`, the same for
    every benchmark seed.
    """
    cfg = replace(lib.GeneratorConfig(), seed=1000 * seed + index, **wl.overrides)
    cfg.validate()
    directory = out / f"instance{index}"
    start = perf_counter()
    net = lib.generate.generate_substrate(cfg)
    vnrs = lib.generate.generate_vnr_stream(replace(cfg, seed=index), wl.horizon)
    lib.fileio.save_substrate(net, directory / "substrate.json")
    lib.fileio.save_workload(vnrs, wl.horizon, directory / "workload.jsonl")
    net = lib.fileio.load_substrate(directory / "substrate.json")
    vnrs, horizon = lib.fileio.load_workload(directory / "workload.jsonl")
    setup_s = perf_counter() - start
    return Instance(index, cfg.seed, directory, net, vnrs, horizon, setup_s)


def simulate(lib, wl: Workload, inst: Instance, tracer: Tracer | None = None,
             reference: Reference | None = None) -> RunResult:
    """One simulation of the instance on a fresh copy of its substrate.

    The times exclude the time spent in the reference, if one is given.
    """
    inner = lib.simulation.make_strategy(wl.strategy, seed=inst.seed)
    embed = None
    if tracer is not None:
        embed = tracer.wrap(inner.embed, "simulation.embed", "strategy",
                            req_of=lambda args: args[0].id)
    strategy = TimedStrategy(inner, embed, reference)
    net = inst.net.copy()
    paths = [inst.directory / name for name in OUTPUTS]
    spent = reference.spent if reference is not None else 0.0
    start = perf_counter()
    trace = lib.simulation.run(net, inst.vnrs, strategy, inst.horizon)
    run_s = perf_counter() - start
    rows = lib.metrics.windowed_series(trace, WINDOW)
    cum = lib.metrics.cumulative_series(trace, WINDOW)
    lib.fileio.write_trace(trace, paths[0])
    lib.fileio.write_window_csv(rows, paths[1])
    lib.fileio.write_cumulative_csv(cum, paths[2])
    seconds = perf_counter() - start
    if reference is not None:
        spent = reference.spent - spent
        run_s -= spent
        seconds -= spent
    digest = hashlib.sha256()
    size = 0
    for path in paths:
        data = path.read_bytes()
        size += len(data)
        digest.update(hashlib.sha256(data).digest())
    return RunResult(trace.arrived, trace.accepted, cum[-1].revenue, cum[-1].cost, run_s,
                     seconds, strategy.samples, digest.hexdigest(), size)


class Checker:
    """Counts attempted arrivals and failures; runs one simulation safely."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.notes.append(f"FAILED {message}")
        print(f"perfbench: {message}", file=sys.stderr)

    def simulate(self, lib, wl, inst, tracer=None, reference=None) -> RunResult | None:
        try:
            res = simulate(lib, wl, inst, tracer, reference)
        except Exception as exc:  # a run the validator, audit or library aborted
            traceback.print_exc()
            self.attempted += 1
            self.fail(f"instance {inst.index} aborted: {type(exc).__name__}: {exc}")
            return None
        self.attempted += res.arrived
        return res

    def check_pinned(self, wl: Workload, seed: int, digests: list[str]) -> str:
        combined = hashlib.sha256("".join(digests).encode()).hexdigest()
        want = wl.pinned.get(seed)
        if want is not None and want != combined:
            self.fail(f"digest {combined} differs from the pinned {want}")
        return combined


def _quantile_ms(samples: list[float], q: int) -> float:
    """q-th percentile of the samples, in milliseconds."""
    return statistics.quantiles(samples, n=100)[q - 1] * 1e3


def measure(lib, wl: Workload, seed: int, seconds: float) -> Report:
    """End-to-end metrics: repeat the instances until `seconds` is spent.

    Host times are reported at reference speed (see reference.py); the wall
    times they come from are printed as `*_wall_*`.
    """
    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)
    check = Checker()
    reference = Reference()
    setups: list[float] = []
    for _ in range(SETUP_ROUNDS):
        instances = []
        for i in range(wl.instances):
            reference.sample()
            instances.append(set_up(lib, wl, seed, i, out))
        setups += [inst.setup_s for inst in instances]
        if sum(setups) >= SETUP_BUDGET_S:
            break
    runs: dict[int, list[RunResult]] = {inst.index: [] for inst in instances}
    start = perf_counter()
    done = False
    passes = 0
    while not done:
        for inst in instances:
            mine = runs[inst.index]
            if passes > 0 and mine:
                expected = statistics.median(r.seconds for r in mine)
                if perf_counter() - start + expected > seconds:
                    done = True
                    break
            res = check.simulate(lib, wl, inst, reference=reference)
            if res is None:
                done = True
                break
            if mine and res.digest != mine[0].digest:
                check.fail(f"instance {inst.index} repeat digest {res.digest} "
                           f"differs from {mine[0].digest}")
            mine.append(res)
        passes += 1
    firsts = [r[0] for r in runs.values() if r]
    if len(firsts) < len(instances):
        return Report(False, check.attempted, check.failed, {}, notes=check.notes)
    combined = check.check_pinned(wl, seed, [r.digest for r in firsts])
    # A simulation repeats exactly, so each arrival's latency is the median
    # of its repeats.
    samples = [statistics.median(arrival) for r in runs.values()
               for arrival in zip(*(res.samples for res in r))]
    busy = sum(statistics.median(res.seconds for res in r) for r in runs.values())
    arrived = sum(r.arrived for r in firsts)
    setup_s = statistics.median(setups)
    scale = reference.scale()
    metrics = {
        "arrivals_per_s": (arrived / (busy * scale), "1/s"),
        "embed_p90_ms": (_quantile_ms(samples, 90) * scale, "ms"),
        "setup_s": (setup_s * scale, "s"),
        "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "acceptance": (sum(r.accepted for r in firsts) / arrived, "ratio"),
        "rc_ratio": (sum(r.revenue for r in firsts) / sum(r.cost for r in firsts), "ratio"),
    }
    # Printed but not gated: the median sits where instant rejections meet
    # searches, so it moves several times as much as `acceptance` between
    # seeds (see README.md).
    printed = {
        "embed_p50_ms": (_quantile_ms(samples, 50) * scale, "ms"),
        "failed_frac": (check.failed / check.attempted, "ratio"),
        "embed_samples": (len(samples), "count"),
        "reference_ms": (reference.median_ms(), "ms"),
        "reference_samples": (len(reference.samples), "count"),
        "arrivals_per_wall_s": (arrived / busy, "1/s"),
        "embed_p90_wall_ms": (_quantile_ms(samples, 90), "ms"),
        "setup_wall_s": (setup_s, "s"),
    }
    notes = [f"simulations {sum(len(r) for r in runs.values())} over {wl.instances} "
             f"instances in {perf_counter() - start:.1f} s",
             f"digest {combined}"] + check.notes
    return Report(check.failed == 0, check.attempted, check.failed, metrics, printed, notes)


def trace_layers(lib, wl: Workload, seed: int) -> Report:
    """Per-layer metrics: each instance once plain, then once traced."""
    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)
    check = Checker()
    tracer = Tracer()
    with tracer.installed():
        instances = [set_up(lib, wl, seed, i, out) for i in range(wl.instances)]
    plain_s = traced_s = 0.0
    bytes_written = 0
    digests = []
    for inst in instances:
        plain = check.simulate(lib, wl, inst)
        with tracer.installed():
            traced = check.simulate(lib, wl, inst, tracer)
        if plain is None or traced is None:
            return Report(False, check.attempted, check.failed, {}, notes=check.notes)
        if traced.digest != plain.digest:
            check.fail(f"instance {inst.index} traced digest {traced.digest} "
                       f"differs from plain {plain.digest}")
        plain_s += plain.run_s
        traced_s += traced.run_s
        bytes_written += traced.bytes_written
        digests.append(plain.digest)
    combined = check.check_pinned(wl, seed, digests)
    tracer.write(out / "layers")
    metrics = per_layer_metrics(tracer.stats, lib.PsoConfig().particle_count)
    metrics["fileio.bytes_written"] = (bytes_written, "bytes")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    notes = [f"digest {combined}", f"spans in {out / 'layers'}"] + check.notes
    return Report(check.failed == 0, check.attempted, check.failed, metrics, notes=notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = load_library()
    wl = WORKLOADS[args.workload]
    if args.trace:
        report = trace_layers(lib, wl, args.seed)
    else:
        report = measure(lib, wl, args.seed, args.seconds)
    print("\n".join(report.lines()))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
