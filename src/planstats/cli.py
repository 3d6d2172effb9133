"""Command-line front end.

Subcommands: validate, compare, order, hardness, agreement, scaling,
series.  Every command reads a runs CSV plus a manifest JSON, writes its
tables/graphs into the ``--out`` directory with an embedded metadata
header, and echoes the main table to stdout.

Each command takes the session flags (``SESSION_FLAGS``: --runs,
--manifest, --config, --seed, --out) and the flags it reads, which
``COMMANDS`` lists beside its function and help; argparse refuses any
other flag with exit 2.

A command runs in two steps: :func:`open_session` makes the config of the
session flags and loads, validates and hashes the inputs once, and
:func:`run_command` runs one parsed command on that session, with the
command's --alpha if given.  :func:`main` is the two in a row;
``scripts/run_full_analysis.py`` opens one session and runs every command
of an analysis on it, so they share one ``RunTable`` and its grids.

Exit codes: 0 success, 2 input validation failure or a flag the command
does not take (diagnostics on stderr), 3 under --strict when a table
written holds a degenerate statistic (an infinite t or F).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import math
import sys
from pathlib import Path
from typing import NamedTuple

from . import agreement as agreement_mod
from . import hardness as hardness_mod
from . import scaling as scaling_mod
from .dataio import (
    Category,
    DataError,
    Diagnostic,
    Level,
    Manifest,
    NoProblems,
    RunTable,
    SizeClass,
    manifest_from_bytes,
    runs_from_bytes,
    sizes_faced,
    validate_dataset,
)
from .ordering import build_order, transitive_reduction
from .pairwise import (
    Measure,
    all_pairs,
    compare,  # noqa: F401  perfbench/test_perfbench.py checks tracing restores cli.compare
    compare_pairs,
    magnitude,
)
from .report import (
    ReportConfig,
    agreement_csv_rows,
    comparisons_csv_rows,
    csv_text,
    dot_with_metadata,
    load_config_file,
    magnitudes_csv_rows,
    hardness_csv_rows,
    metadata_lines,
    render_agreement_text,
    render_compare_text,
    render_hardness_text,
    render_scaling_text,
    scaling_csv_rows,
    series_csv,
)
from .stattests import NonPositiveValue, TooFewPairs

CATEGORIES = {"auto": Category.FULLY_AUTOMATED, "hand": Category.HAND_CODED}
# the config field --alpha sets; other commands set alpha_pairwise
ALPHA_FIELDS = {"agreement": "alpha_agreement", "scaling": "alpha_scaling"}


# every flag of the CLI: name -> add_argument keywords
_FLAGS = {
    "--runs": dict(required=True, help="runs CSV file"),
    "--manifest": dict(required=True, help="manifest JSON file"),
    "--config": dict(help="key=value config file"),
    "--seed": dict(type=int, help="bootstrap seed"),
    "--out": dict(default=".", help="output directory (default: current)"),
    "--category": dict(choices=sorted(CATEGORIES), default="auto"),
    "--level": dict(choices=[lv.value for lv in Level], help="restrict to one level"),
    "--size": dict(choices=sorted(s.value for s in SizeClass), help="problem size class"),
    "--measure": dict(choices=sorted(m.value for m in Measure),
                      help="default: speed plus the level's quality channels"),
    "--cross": dict(action="store_true", help="compare across planner categories"),
    "--alpha": dict(type=float, help="significance level for this command"),
    "--strict": dict(action="store_true", help="exit 3 when degenerate statistics occur"),
    "--reduce": dict(action="store_true", help="transitive reduction of orders"),
    "--domain": dict(required=True, help="domain of the series cell"),
}
# the flags open_session reads, and --out; every command takes them
SESSION_FLAGS = ("--runs", "--manifest", "--config", "--seed", "--out")
# (command, flag) -> keywords that replace the flag's own for that command
_FLAG_OVERRIDES = {("series", "--level"): dict(required=True, help="level of the series cell")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: each subcommand takes the session flags and its
    own flags from ``COMMANDS``, and argparse refuses any other (exit 2)."""
    parser = argparse.ArgumentParser(
        prog="planstats",
        description="Statistical comparison toolkit for planner competition run data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for flag in SESSION_FLAGS + flags:
            command_parser.add_argument(
                flag, **{**_FLAGS[flag], **_FLAG_OVERRIDES.get((command, flag), {})}
            )
        # main reports an untaken flag with the command's own usage
        command_parser.set_defaults(command_parser=command_parser)
    return parser


def _make_config(args: argparse.Namespace) -> ReportConfig:
    """The config of the session flags --config and --seed."""
    config = load_config_file(args.config) if args.config else ReportConfig()
    return config if args.seed is None else dataclasses.replace(config, seed=args.seed)


def _command_config(config: ReportConfig, args: argparse.Namespace) -> ReportConfig:
    """A session's config with the command's --alpha, if it takes one and
    is given it."""
    alpha = getattr(args, "alpha", None)
    if alpha is None:
        return config
    return dataclasses.replace(config, **{ALPHA_FIELDS.get(args.command, "alpha_pairwise"): alpha})


def _dataset_hash(runs_data: bytes, manifest_data: bytes) -> str:
    digest = hashlib.sha256(runs_data)
    digest.update(manifest_data)
    return digest.hexdigest()


def _stem(command: str, extra: dict[str, str]) -> str:
    """An output's file name without suffix: the command, then the cell's
    values in the order ``extra`` lists them."""
    return "_".join([command, *extra.values()])


def _write(args, name: str, text: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text, encoding="utf-8")
    return path


def _write_table(args, config, dataset_hash, extra, text, rows) -> list[str]:
    """Write a cell's text table and its CSV mirror under one metadata
    header, echo the text to stdout, and return the header."""
    header = metadata_lines(config, dataset_hash, args.command, extra)
    stem = _stem(args.command, extra)
    _write(args, f"{stem}.txt", "\n".join(header) + "\n\n" + text)
    _write(args, f"{stem}.csv", csv_text(rows, header))
    print(text)
    return header


def _levels_for(args, manifest: Manifest) -> list[Level]:
    return [Level.parse(args.level)] if args.level else manifest.levels()


def _sizes_for(args, category: Category) -> tuple[SizeClass, ...]:
    return (SizeClass(args.size),) if args.size else sizes_faced(category)


def _pair_names(manifest: Manifest, category: Category, level: Level, cross: bool) -> list[str]:
    if cross:
        return sorted(p.name for p in manifest.planners if manifest.entered(p.name, level))
    return [p.name for p in manifest.planners_in(category, level)]


def quality_channels(level: Level) -> tuple[Measure, ...]:
    """A level's default quality measures: plan lengths for strips, the
    problem metric elsewhere."""
    if level is Level.STRIPS:
        return (Measure.QUALITY_SEQ, Measure.QUALITY_CONC)
    return (Measure.QUALITY_METRIC,)


def _measures_for(args, level: Level) -> list[Measure]:
    if args.measure:
        return [Measure(args.measure)]
    return [Measure.SPEED, *quality_channels(level)]


def _hardness_tables(args, runs, manifest, category, size, config, level_specific):
    return hardness_mod.hardness_tables(
        runs,
        manifest,
        category,
        level_specific_pools=level_specific,
        level=Level.parse(args.level) if args.level else None,
        size_class=size,
        B=config.bootstrap_B,
        m=config.bootstrap_m,
        cutoff_ms=config.cutoff_ms,
        seed=config.seed,
    )


def _pair_cells(args, manifest: Manifest):
    """Every compare/order cell with at least two planners and a problem
    set: yields (names, level, measure, size, extra)."""
    category = CATEGORIES[args.category]
    for level in _levels_for(args, manifest):
        names = _pair_names(manifest, category, level, args.cross)
        for size in _sizes_for(args, category):
            if len(names) < 2 or not manifest.sets_at(level=level, size_class=size):
                continue
            for measure in _measures_for(args, level):
                extra = {
                    "category": "cross" if args.cross else args.category,
                    "level": level.value,
                    "measure": measure.value,
                    "size": size.value,
                }
                yield names, level, measure, size, extra


def _pair_results(runs, manifest, names, level, measure, size):
    pairs = all_pairs(names)
    alo, dh = compare_pairs(runs, manifest, pairs, level, measure, size)
    mags = []
    for a, b in pairs:
        try:
            mags.append(magnitude(runs, manifest, a, b, level, measure, size))
        except (TooFewPairs, NonPositiveValue):
            mags.append(None)
    return alo, dh, mags


def _degenerate_exit(args, count: int) -> int:
    """Note on stderr the ``count`` of degenerate statistics (infinite t or
    F) in the tables a command wrote; exit code 3 for any under --strict,
    else 0."""
    if count == 0:
        return 0
    print(f"note: {count} degenerate statistic(s) encountered", file=sys.stderr)
    return 3 if args.strict else 0


def cmd_validate(args, config, runs, manifest, diagnostics, dataset_hash) -> int:
    for d in diagnostics:
        stream = sys.stderr if d.severity == "error" else sys.stdout
        print(f"{d.severity.upper()} {d.kind}: {d.message}", file=stream)
    errors = [d for d in diagnostics if d.severity == "error"]
    print(f"validate: {len(errors)} errors, {len(diagnostics) - len(errors)} notes")
    return 2 if errors else 0


def cmd_compare(args, config, runs, manifest, diagnostics, dataset_hash) -> int:
    degenerate = 0
    for names, level, measure, size, extra in _pair_cells(args, manifest):
        alo, dh, mags = _pair_results(runs, manifest, names, level, measure, size)
        text = render_compare_text(alo, dh, mags, config.alpha_pairwise, config.alpha_magnitude)
        print(f"-- {level.value}/{measure.value}/{size.value} --")
        header = _write_table(
            args, config, dataset_hash, extra, text, comparisons_csv_rows(alo + dh)
        )
        written = [m for m in mags if m is not None]
        degenerate += sum(math.isinf(m.t_result.t) for m in written)
        mag_rows = magnitudes_csv_rows(written)
        _write(args, f"{_stem('magnitude', extra)}.csv", csv_text(mag_rows, header))
    return _degenerate_exit(args, degenerate)


def cmd_order(args, config, runs, manifest, diagnostics, dataset_hash) -> int:
    for names, level, measure, size, extra in _pair_cells(args, manifest):
        alo, dh = compare_pairs(runs, manifest, all_pairs(names), level, measure, size)
        order = build_order(alo + dh, alpha=config.alpha_pairwise)
        if args.reduce:
            order = transitive_reduction(order)
        header = metadata_lines(config, dataset_hash, "order", extra, comment="//")
        path = _write(args, f"{_stem('order', extra)}.dot", dot_with_metadata(order, header))
        print(f"wrote {path} ({len(order.edges)} edges)")
    return 0


def cmd_hardness(args, config, runs, manifest, diagnostics, dataset_hash) -> int:
    category = CATEGORIES[args.category]
    for size in _sizes_for(args, category):
        # the level-specific table, then the level-independent one
        tables = _hardness_tables(args, runs, manifest, category, size, config, (True, False))
        extra = {"category": args.category}
        if args.level:
            extra["level"] = args.level
        extra["size"] = size.value
        print(f"-- {size.value} problems --")
        text = render_hardness_text(*tables)
        _write_table(args, config, dataset_hash, extra, text, hardness_csv_rows(tables))
    return 0


def cmd_agreement(args, config, runs, manifest, diagnostics, dataset_hash) -> int:
    category = CATEGORIES[args.category]
    level = Level.parse(args.level) if args.level else None
    size = SizeClass(args.size) if args.size else None
    results = agreement_mod.agreement_table(runs, manifest, category, config.alpha_agreement,
                                            level=level, size_class=size)
    extra = {"category": args.category}
    if args.level:
        extra["level"] = args.level
    if args.size:
        extra["size"] = args.size
    text = render_agreement_text(results)
    _write_table(args, config, dataset_hash, extra, text, agreement_csv_rows(results))
    return _degenerate_exit(args, sum(math.isinf(r.mrc.F) for r in results))


def cmd_scaling(args, config, runs, manifest, diagnostics, dataset_hash) -> int:
    category = CATEGORIES[args.category]
    for size in _sizes_for(args, category):
        (table,) = _hardness_tables(args, runs, manifest, category, size, config, (True,))
        for level in _levels_for(args, manifest):
            verdicts = table.by_planner(level)
            names = _pair_names(manifest, category, level, False)
            if len(names) < 2:
                continue
            difficulty = scaling_mod.agreed_difficulty(runs, manifest, level, category, size)
            results = scaling_mod.scaling_comparisons(
                runs,
                manifest,
                all_pairs(names),
                level,
                verdicts,
                difficulty,
                size_class=size,
                cutoff_ms=config.cutoff_ms,
                alpha=config.alpha_scaling,
            )
            extra = {"category": args.category, "level": level.value, "size": size.value}
            text = render_scaling_text(results, level)
            _write_table(args, config, dataset_hash, extra, text, scaling_csv_rows(results))
    return 0


def cmd_series(args, config, runs, manifest, diagnostics, dataset_hash) -> int:
    measure = Measure(args.measure) if args.measure else Measure.SPEED
    level = Level.parse(args.level)
    size = SizeClass(args.size) if args.size else SizeClass.SMALL
    extra = {
        "domain": args.domain,
        "level": level.value,
        "measure": measure.value,
        "size": size.value,
    }
    header = metadata_lines(config, dataset_hash, "series", extra)
    try:
        text = series_csv(runs, manifest, args.domain, level, measure, size, header)
    except NoProblems as exc:
        print(f"series: {exc}", file=sys.stderr)
        return 2
    path = _write(args, f"{_stem('series', extra)}.csv", text)
    print(f"wrote {path}")
    return 0


# command -> (function, help, the flags it reads beyond the session flags);
# --strict only where a degenerate statistic can arise (paired t, MRC F)
COMMANDS = {
    "validate": (cmd_validate, "check dataset consistency", ()),
    "compare": (cmd_compare, "pairwise consistency and magnitude tables",
                ("--category", "--level", "--size", "--measure", "--cross", "--alpha", "--strict")),
    "order": (cmd_order, "partial-order DOT graphs",
              ("--category", "--level", "--size", "--measure", "--cross", "--alpha", "--reduce")),
    "hardness": (cmd_hardness, "bootstrap easy/hard tables", ("--category", "--level", "--size")),
    "agreement": (cmd_agreement, "multi-judge agreement grid",
                  ("--category", "--level", "--size", "--alpha", "--strict")),
    "scaling": (cmd_scaling, "relative scaling matrices",
                ("--category", "--level", "--size", "--alpha")),
    "series": (cmd_series, "per-problem value series CSV",
               ("--domain", "--level", "--size", "--measure")),
}


class Session(NamedTuple):
    """One opened dataset: what every command reads, in the order the
    ``cmd_*`` functions take it."""

    config: ReportConfig
    runs: RunTable
    manifest: Manifest
    diagnostics: list[Diagnostic]
    dataset_hash: str


def open_session(args: argparse.Namespace) -> Session | int:
    """Make the config of the session flags of ``args`` and load, validate
    and hash its inputs, each read once, so the hash names the bytes
    analysed; exit code 2, with the reason on stderr, when either is bad."""
    try:
        config = _make_config(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        runs_data = Path(args.runs).read_bytes()
        runs = runs_from_bytes(runs_data)
        manifest_data = Path(args.manifest).read_bytes()
        manifest = manifest_from_bytes(manifest_data)
    except (DataError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    diagnostics = validate_dataset(runs, manifest)
    return Session(config, runs, manifest, diagnostics, _dataset_hash(runs_data, manifest_data))


def run_command(session: Session, args: argparse.Namespace) -> int:
    """Run one parsed command on an open session; its exit code."""
    try:
        session = session._replace(config=_command_config(session.config, args))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    errors = [d for d in session.diagnostics if d.severity == "error"]
    if errors and args.command != "validate":
        for d in errors:
            print(f"ERROR {d.kind}: {d.message}", file=sys.stderr)
        return 2
    return COMMANDS[args.command][0](args, *session)


def main(argv: list[str] | None = None) -> int:
    args, untaken = build_parser().parse_known_args(argv)
    if untaken:
        args.command_parser.error(f"unrecognized arguments: {' '.join(untaken)}")
    session = open_session(args)
    if isinstance(session, int):
        return session
    return run_command(session, args)


if __name__ == "__main__":
    sys.exit(main())
