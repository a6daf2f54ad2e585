"""Paired comparison of two source trees on one host.

Measures a *base* tree (the parent commit) and a *change* tree with this
benchmark's own code and settings, in pairs: pair ``i`` runs both trees
on seed ``seed + i`` back to back, and alternates which tree goes first
so drift on the host does not favour one side.  For every end-to-end
metric it reports each side's median and quartiles, the fraction of
pairs the change wins (ties count for neither side), and a verdict:

* ``gain`` — the change wins at least 9 of 10 pairs and the medians
  differ by more than the base's own spread (Q3 - Q1);
* ``worse`` — the same rule with the sides swapped;
* ``within noise`` — anything else.

Usage (from the root of a checkout holding this directory)::

    python3 perfbench/paired.py --base ../parent --change . --workload fleet-batch

``--base`` and ``--change`` name source checkouts; each must hold
``src/repro``.  Both are run by this checkout's ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Share of pairs the winning side must take before a gain is claimed.
WIN_SHARE = 0.9


def benchmark() -> tuple[dict[str, str], float]:
    """Metric name -> "higher" or "lower", and the run length, from
    BENCHMARK.json: both sides run exactly as the benchmark defines."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}, spec["run_seconds"]


def measure(tree: str, workload: str, seed: int, seconds: float) -> dict[str, float]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0", "--src", os.path.join(os.path.abspath(tree), "src"),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: run.py exited with {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: seed {seed} failed its correctness checks\n{done.stderr}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: list[float], change: list[float], better: str) -> dict[str, Any]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    pairs = len(base)
    apart = abs(c2 - b2) > b3 - b1
    if wins >= WIN_SHARE * pairs and apart:
        verdict = "gain"
    elif losses >= WIN_SHARE * pairs and apart:
        verdict = "worse"
    else:
        verdict = "within noise"
    return {
        "base": {"q1": b1, "median": b2, "q3": b3},
        "change": {"q1": c1, "median": c2, "q3": c3},
        "win_fraction": wins / pairs,
        "loss_fraction": losses / pairs,
        "verdict": verdict,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("a claim needs at least 10 pairs")
    better, seconds = benchmark()
    runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    for index in range(args.pairs):
        seed = args.seed + index
        order = ("base", "change") if index % 2 == 0 else ("change", "base")
        for side in order:
            tree = args.base if side == "base" else args.change
            runs[side].append(measure(tree, args.workload, seed, seconds))
        print(f"pair {index + 1}/{args.pairs} (seed {seed}, {order[0]} first) done", file=sys.stderr)
    report = {
        name: compare(
            [run[name] for run in runs["base"]],
            [run[name] for run in runs["change"]],
            direction,
        )
        for name, direction in better.items()
    }
    print(f"{'metric':16s} {'base median [Q1, Q3]':>34s} {'change median [Q1, Q3]':>34s}  wins  verdict")
    for name, row in report.items():
        b, c = row["base"], row["change"]
        print(
            f"{name:16s} {b['median']:12.4f} [{b['q1']:.4f}, {b['q3']:.4f}]"
            f" {c['median']:12.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
            f"  {row['win_fraction']:.2f}  {row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
