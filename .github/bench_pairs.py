"""Alternated benchmark pairs of two checkouts, with the verdict on each metric.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout per pair, one process at a time, the parent first in
even pairs and the change first in odd ones.  Both runs of a pair get an
environment variable ``BENCH_PAIRS_PAD`` of the same length, drawn afresh for
each pair from a generator seeded with the workload seed: timings move with
the size of a process's environment, so no one size may decide every pair.
Give the two checkouts paths of equal length for the same reason.

Prints one JSON object: for each end-to-end metric of ``BENCHMARK.json`` in
the change's checkout, and for ``setup_wall_s``, each side's values, median
and quartiles, the pairs the change won, and whether the medians differ by
more than the parent's interquartile range.  Exits 1 when some run fails or
reports ``correct: false``, 2 on bad usage.  Standard library only:

    python .github/bench_pairs.py ../parent . --workload greedy-churn --seed 0 \\
        --seconds 10 --pairs 10
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

# Printed by run.py beside the gated metrics, with the side that is better:
# set-up in host time that the host-speed reference does not scale.
PRINTED = {"setup_wall_s": "lower"}
PAD_MAX = 4096
SIDES = ("parent", "change")


def run_once(checkout: Path, args, pad: int) -> dict:
    """One benchmark process in ``checkout``: its metric values by name and
    whether it reported a correct run."""
    env = dict(os.environ, BENCH_PAIRS_PAD="x" * pad)
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
        timeout=10 * args.seconds + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench_pairs: {checkout}: no JSON report (exit {proc.returncode})\n"
              f"{proc.stderr}", file=sys.stderr)
        return {"correct": False, "values": {}}
    values = {name: m["value"] for name, m in report["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in PRINTED:
            values[parts[0]] = float(parts[1])
    return {"correct": report["correct"] is True and proc.returncode == 0, "values": values}


def summary(parent: list, change: list, better: str) -> dict:
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, _, c3 = statistics.quantiles(change, n=4, method="inclusive")
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent": parent, "change": change,
        "parent_median": p_med, "parent_q1_q3": [q1, q3],
        "change_median": c_med, "change_q1_q3": [c1, c3],
        "better": better,
        "change_better_pairs": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        "median_gap_exceeds_parent_iqr": sign * (c_med - p_med) > q3 - q1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | PRINTED

    rng = random.Random(args.seed)
    runs = {side: [] for side in SIDES}
    pads = []
    for pair in range(args.pairs):
        pad = rng.randrange(PAD_MAX + 1)
        pads.append(pad)
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args, pad))

    correct = all(r["correct"] for side in SIDES for r in runs[side])
    out = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "pairs": args.pairs, "pad_lengths": pads, "correct": correct, "metrics": {}}
    for name, direction in better.items():
        values = [[r["values"].get(name) for r in runs[side]] for side in SIDES]
        if all(v is not None for side in values for v in side):
            out["metrics"][name] = summary(*values, direction)
    print(json.dumps(out, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
