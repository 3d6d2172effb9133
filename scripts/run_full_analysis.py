#!/usr/bin/env python3
"""Run the whole analysis pipeline on one dataset.

Drives every subcommand in sequence and drops all tables, CSV mirrors and
DOT graphs into the output directory.  Handy for eyeballing a new dataset:

    python scripts/run_full_analysis.py --runs data/sample/runs.csv \\
        --manifest data/sample/manifest.json --out out/
"""

import argparse
import sys
from pathlib import Path

from planstats.cli import CATEGORIES, main as planstats_main, quality_channels
from planstats.dataio import DataError, load_manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", default="out")
    parser.add_argument("--category", choices=sorted(CATEGORIES), default="auto")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    base = ["--runs", args.runs, "--manifest", args.manifest,
            "--out", args.out, "--category", args.category]
    if args.seed is not None:
        base += ["--seed", str(args.seed)]

    commands = [["validate"], ["compare"], ["order"], ["order", "--cross"],
                ["hardness"], ["agreement"], ["scaling"]]
    try:
        manifest = load_manifest(args.manifest)
    except (DataError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    # one value series per populated cell, in the level's first quality channel
    for ps in manifest.problem_sets:
        measure = quality_channels(ps.level)[0].value
        commands.append(["series", "--domain", ps.domain, "--level", ps.level.value,
                         "--measure", measure, "--size", ps.size_class.value])

    for command in commands:
        print(f"$ planstats {' '.join(command)}")
        rc = planstats_main(command + base)
        if rc != 0:
            print(f"command failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"done; outputs in {Path(args.out).resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
