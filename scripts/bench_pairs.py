#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload ipc-scaling --seconds 60 --seeds 1 1 1 1 1 1 1 1 1 1 7 7 7

Each listed seed is one pair: ``perfbench/run.py --workload W --seed S
--seconds T`` runs once in each checkout, one run at a time, and the side
that runs first alternates from pair to pair so that a drift of the host's
speed does not favour either side.  The output file holds every run (pair,
side, order within the pair, seed, the run's printed result line and its
``check failed`` lines) and, per seed, each side's median and quartiles of
every end-to-end metric and the number of pairs in which the change was
better, by the metric's direction in BENCHMARK.json, the parent's IQR, the
relative change of the medians and ``better_by_rule``: the change won at
least nine tenths of the pairs and its median is better than the parent's
by more than the parent's IQR.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def src_tree(checkout: Path) -> str | None:
    """Git's hash of the committed src/ tree: it names the program measured,
    whatever else the commit holds.  None outside git; a checkout whose
    src/ differs from that tree is refused, since the hash would misname it."""
    done = subprocess.run(["git", "rev-parse", "HEAD:src"], cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode != 0:
        return None
    edits = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                           capture_output=True, text=True, check=True).stdout
    if edits:
        raise SystemExit(f"bench_pairs: {checkout} has uncommitted changes under src/; "
                         f"commit them or measure another checkout:\n{edits}")
    return done.stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """The result line perfbench/run.py prints last, parsed, and its check failures."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: run in {checkout} failed ({done.returncode}):\n"
                         f"{done.stderr}")
    problems = [line for line in done.stderr.splitlines() if line.startswith("check failed")]
    return json.loads(lines[-1]), problems


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per seed and metric: each side's quartiles, the pairs the change won
    and the gain rule's verdict (see the module docstring)."""
    summary = {}
    for seed in sorted({r["seed"] for r in runs}):
        at_seed = [r for r in runs if r["seed"] == seed]
        pairs = sorted({r["pair"] for r in at_seed})
        per_metric = {}
        for metric, better in directions.items():
            value = {(r["pair"], r["side"]): r["result"]["metrics"][metric]["value"]
                     for r in at_seed if metric in r["result"]["metrics"]}
            if not value:
                continue
            wins = sum(
                (value[(p, "change")] < value[(p, "parent")]) == (better == "lower")
                and value[(p, "change")] != value[(p, "parent")]
                for p in pairs
            )
            sides = {side: quartiles([value[(p, side)] for p in pairs]) for side in SIDES}
            parent, change = sides["parent"]["median"], sides["change"]["median"]
            parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
            gain = parent - change if better == "lower" else change - parent
            per_metric[metric] = {
                **sides,
                "change_better_pairs": wins,
                "parent_iqr": parent_iqr,
                "median_change": (change - parent) / parent if parent else None,
                "better_by_rule": 10 * wins >= 9 * len(pairs) and gain > parent_iqr,
            }
        summary[str(seed)] = {"pairs": len(pairs), "metrics": per_metric}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout measured as parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout measured as change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one pair of runs per listed seed")
    parser.add_argument("--out", type=Path, help="default: BENCH_<workload>.json here")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    # a mislabelled checkout is refused before any run is spent on it
    trees = {side: src_tree(path) for side, path in checkouts.items()}

    runs = []
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            result, problems = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs.append({"pair": pair, "side": side, "order": position, "seed": seed,
                         "result": result, "check_failed": problems})
            values = " ".join(f"{metric} {result['metrics'].get(metric, {}).get('value')}"
                              for metric in directions)
            print(f"pair {pair} seed {seed} {side}: {values} correct {result['correct']}",
                  flush=True)

    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "command": "perfbench/run.py --workload W --seed S --seconds T, untraced",
        "src_tree": trees,
        "runs": runs,
        "summary": summarize(runs, directions),
    }
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
