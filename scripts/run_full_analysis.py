#!/usr/bin/env python3
"""Run the whole analysis pipeline on one dataset.

Opens the dataset once (one load, validation and hash) and runs every
subcommand on that session in sequence, dropping all tables, CSV mirrors
and DOT graphs into the output directory.  Handy for eyeballing a new
dataset:

    python scripts/run_full_analysis.py --runs data/sample/runs.csv \\
        --manifest data/sample/manifest.json --out out/
"""

import argparse
import sys
from pathlib import Path

from planstats.cli import CATEGORIES, build_parser, open_session, quality_channels, run_command


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", default="out")
    parser.add_argument("--category", choices=sorted(CATEGORIES), default="auto")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    # the session flags, which every command takes
    base = ["--runs", args.runs, "--manifest", args.manifest, "--out", args.out]
    if args.seed is not None:
        base += ["--seed", str(args.seed)]
    planstats = build_parser()
    session = open_session(planstats.parse_args(["validate", *base]))
    if isinstance(session, int):
        return session

    category = ["--category", args.category]
    commands = [["validate"], ["compare", *category], ["order", *category],
                ["order", "--cross", *category], ["hardness", *category],
                ["agreement", *category], ["scaling", *category]]
    # one value series per populated cell, in the level's first quality channel
    for ps in session.manifest.problem_sets:
        measure = quality_channels(ps.level)[0].value
        commands.append(["series", "--domain", ps.domain, "--level", ps.level.value,
                         "--measure", measure, "--size", ps.size_class.value])

    for command in commands:
        print(f"$ planstats {' '.join(command)}")
        rc = run_command(session, planstats.parse_args(command + base))
        if rc != 0:
            print(f"command failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"done; outputs in {Path(args.out).resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
