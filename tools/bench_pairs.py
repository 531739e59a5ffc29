"""Alternating benchmark runs of two source trees, compared against the
bounds of ``BENCHMARK.json``.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
                                 [--seconds 32] [--seed0 S]

``PARENT`` and ``CHANGE`` are source trees of the package (``src/nvk``
beside ``perfbench``).  Pair i runs ``python3 perfbench/run.py --trace 0``
for workload W at seed S + i in each tree, from that tree's root and with
``PYTHONDONTWRITEBYTECODE=1``; even pairs run PARENT first and odd pairs
CHANGE first, so a drift of the host's speed over time does not favour one
side.  The end-to-end metrics are read from the last line of each run's
standard output.

The script prints each run's end-to-end metrics, then one line per metric:
both medians, the spread of PARENT's runs (interquartile range over
median), how many pairs CHANGE wins, the change of the median relative to
PARENT's, and ``WORSE THAN BOUND`` where CHANGE's median is worse than
PARENT's by more than the metric's bound.  The metric names, their
direction and their bounds come from PARENT's ``BENCHMARK.json``.  Every
run's metrics are also written to ``CHANGE/perfbench/out/pairs-W.json``;
each run leaves its own record in its tree's ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one benchmark run in the tree ``root``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                       timeout=10 * seconds + 300)
    if r.returncode != 0 or not r.stdout.strip():
        raise RuntimeError(f"{root}: run failed: {r.stderr.strip()[-2000:]}")
    out = json.loads(r.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in out["metrics"].items()}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric of ``BENCHMARK.json``'s ``end_to_end`` list over paired
    runs: both medians, PARENT's interquartile range over its median, the
    pairs CHANGE wins, and how much worse CHANGE's median is, relative to
    PARENT's (negative where it is better; absolute where PARENT's median
    is 0)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
                 else (p_med,) * 3)
    loss = sign * (c_med - p_med) + 0.0  # + 0.0 turns -0.0 into 0.0
    worse = loss / abs(p_med) if p_med else loss
    return {"parent": p_med, "change": c_med,
            "spread": (q3 - q1) / abs(p_med) if p_med else 0.0,
            "wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "worse": worse, "past_bound": worse > metric["bound"]}


def report(end_to_end: list[dict], parent_runs: list[dict], change_runs: list[dict]) -> list[str]:
    """The printed lines: every run's metrics, then the comparison of each
    metric over the pairs."""
    names = [m["name"] for m in end_to_end]
    lines = [f"{'pair':>4} {'side':<6} " + " ".join(f"{n:>12}" for n in names)]
    for i, (p, c) in enumerate(zip(parent_runs, change_runs)):
        for side, run in (("parent", p), ("change", c)):
            lines.append(f"{i:>4} {side:<6} " + " ".join(f"{run[n]:>12.6g}" for n in names))
    lines.append(f"{'metric':<12} {'parent':>12} {'change':>12} {'iqr/median':>10} "
                 f"{'wins':>6} {'worse':>8}")
    for m in end_to_end:
        s = compare(m, [r[m["name"]] for r in parent_runs], [r[m["name"]] for r in change_runs])
        lines.append(f"{m['name']:<12} {s['parent']:>12.6g} {s['change']:>12.6g} "
                     f"{s['spread']:>10.3f} {s['wins']:>3}/{len(parent_runs):<2} "
                     f"{s['worse']:>+8.3f}" + ("  WORSE THAN BOUND" if s["past_bound"] else ""))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--seed0", type=int, default=101)
    args = p.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = (("parent", parent), ("change", change))
        for side, root in order if i % 2 == 0 else order[::-1]:
            runs[side].append(run_once(root, args.workload, args.seed0 + i, args.seconds))
            print(f"pair {i} {side}: {json.dumps(runs[side][-1])}", file=sys.stderr, flush=True)
    out = change / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"pairs-{args.workload}.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")
    print("\n".join(report(bench["end_to_end"], runs["parent"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
