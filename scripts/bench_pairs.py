#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload ipc-scaling --seconds 60 --seeds 1 1 1 1 1 1 1 1 1 1 7 7 7

Each listed seed is one pair: ``perfbench/run.py --workload W --seed S
--seconds T`` runs once in each checkout, one run at a time, and the side
that runs first alternates from pair to pair so that a drift of the host's
speed does not favour either side.  The output file holds every run (pair,
side, order within the pair, seed, the run's printed result line, its
``check failed`` lines, its ``outputs_sha256`` digest and ``same_outputs``:
whether both runs of its pair printed the same digest) and a summary, per
seed and under ``"all"`` for every pair run, since the gain rule counts all
pairs.  The summary counts the pairs whose sides wrote different outputs
(``outputs_differ_pairs``), which at a seed with no recorded digests is
the only check that the change kept the parent's outputs, and gives for
every end-to-end metric each side's median and quartiles, the number of
pairs in which the change was better, by the metric's direction in
BENCHMARK.json, the parent's IQR, the relative change of the medians,
``better_by_rule``: the change won at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's IQR, and
``within_bound``: the change's median is worse than the parent's by no
more than the metric's bound in BENCHMARK.json, a share of the parent's
median.  Standard library only.
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


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line perfbench/run.py prints last, parsed, its check
    failures and its outputs' digest (None if it printed none)."""
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
    digest = next((line.split()[1] for line in lines if line.startswith("outputs_sha256: ")), None)
    return {"result": json.loads(lines[-1]), "check_failed": problems, "outputs_sha256": digest}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare_sides(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric over the pairs of ``runs``: each side's quartiles, the
    pairs the change won, the gain rule's verdict and whether the change
    stays within the metric's bound (see the module docstring)."""
    pairs = sorted({r["pair"] for r in runs})
    per_metric = {}
    for metric, spec in metrics.items():
        value = {(r["pair"], r["side"]): r["result"]["metrics"][metric]["value"]
                 for r in runs if metric in r["result"]["metrics"]}
        if not value:
            continue
        lower = spec["better"] == "lower"
        wins = sum(
            (value[(p, "change")] < value[(p, "parent")]) == lower
            and value[(p, "change")] != value[(p, "parent")]
            for p in pairs
        )
        sides = {side: quartiles([value[(p, side)] for p in pairs]) for side in SIDES}
        parent, change = sides["parent"]["median"], sides["change"]["median"]
        parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        gain = parent - change if lower else change - parent
        per_metric[metric] = {
            **sides,
            "change_better_pairs": wins,
            "parent_iqr": parent_iqr,
            "median_change": (change - parent) / parent if parent else None,
            "better_by_rule": 10 * wins >= 9 * len(pairs) and gain > parent_iqr,
            "within_bound": -gain <= spec["bound"] * abs(parent),
        }
    differ = len({r["pair"] for r in runs if not r["same_outputs"]})
    return {"pairs": len(pairs), "outputs_differ_pairs": differ, "metrics": per_metric}


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """:func:`compare_sides` of each seed's pairs, and of all pairs under
    ``"all"``."""
    summary = {str(seed): compare_sides([r for r in runs if r["seed"] == seed], metrics)
               for seed in sorted({r["seed"] for r in runs})}
    summary["all"] = compare_sides(runs, metrics)
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
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    # a mislabelled checkout is refused before any run is spent on it
    trees = {side: src_tree(path) for side, path in checkouts.items()}

    runs = []
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs.append({"pair": pair, "side": side, "order": position, "seed": seed, **run})
            result = run["result"]
            values = " ".join(f"{metric} {result['metrics'].get(metric, {}).get('value')}"
                              for metric in metrics)
            print(f"pair {pair} seed {seed} {side}: {values} correct {result['correct']}",
                  flush=True)
        first, second = (r["outputs_sha256"] for r in runs[-2:])
        for r in runs[-2:]:
            r["same_outputs"] = first is not None and first == second

    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "command": "perfbench/run.py --workload W --seed S --seconds T, untraced",
        "src_tree": trees,
        "runs": runs,
        "summary": summarize(runs, metrics),
    }
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
