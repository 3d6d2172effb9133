"""Report rendering: text tables, CSV mirrors and metadata headers.

Text tables are the primary human artifact and mirror the published
table conventions: `6.2 *` for a significant cell, `**1.9 0.06**`
(bold-marked) for an insignificant one, and `2.1 (3.3) 0.04 (*)` when the
win-proportion test provides a significant fallback.  Every rendering is
byte-deterministic for fixed inputs, config and seed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from . import agreement, hardness, ordering, scaling
from .agreement import AgreementResult
from .dataio import (
    Level,
    Manifest,
    QualityDirection,
    RunRecord,
    RunTable,
    SizeClass,
)
from .hardness import HardnessTable, RNG_NAME
from .ordering import PartialOrder, to_dot
from .pairwise import MEASURE_FIELDS, ComparisonResult, MagnitudeResult, Measure
from .scaling import IncomparableReason, ScalingResult, Verdict


@dataclass(frozen=True)
class ReportConfig:
    """Analysis parameters shared by every command.

    Each default is the analysis module's own (``ordering``, ``agreement``,
    ``scaling`` and ``hardness``), except the magnitude tests' alpha,
    which no module holds, and the seed, which is 3 for the CLI and 0 for
    the library functions.  A config is checked when it is built, by the
    constructor or ``dataclasses.replace``: a field outside its range
    raises :class:`BadConfigValue` naming it.
    """

    alpha_pairwise: float = ordering.DEFAULT_ALPHA
    alpha_magnitude: float = 0.05
    alpha_agreement: float = agreement.DEFAULT_ALPHA
    alpha_scaling: float = scaling.DEFAULT_ALPHA
    bootstrap_B: int = hardness.DEFAULT_B
    bootstrap_m: int = hardness.DEFAULT_M
    cutoff_ms: int = hardness.DEFAULT_CUTOFF_MS
    seed: int = 3

    def __post_init__(self) -> None:
        for name in ("alpha_pairwise", "alpha_magnitude", "alpha_agreement", "alpha_scaling"):
            value = getattr(self, name)
            if not (0.0 < value < 0.5):
                raise BadConfigValue(name, f"{name} must lie in (0, 0.5), got {value}")
        for name in ("bootstrap_B", "bootstrap_m", "cutoff_ms"):
            if getattr(self, name) <= 0:
                raise BadConfigValue(name, f"{name} must be positive")
        if not (0 <= self.seed < 2**64):
            raise BadConfigValue("seed", "seed must fit in 64 bits")


class BadConfigValue(ValueError):
    """A config field holds a value outside its range."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def load_config_file(path: str | Path) -> ReportConfig:
    """Read ``key=value`` lines into a default config; unknown keys are errors."""
    field_types = {f.name: f.type for f in fields(ReportConfig)}
    values: dict[str, float | int] = {}
    # key -> number of the line that last set it
    set_on: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in field_types:
                raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
            convert = float if key.startswith("alpha") else int
            try:
                values[key] = convert(value)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: bad value {value!r} for {key!r}") from None
            set_on[key] = line_no
    try:
        return ReportConfig(**values)
    except BadConfigValue as exc:
        # the defaults are valid, so the bad value is one the file set
        raise ValueError(f"{path}:{set_on[exc.name]}: {exc}") from None


def metadata_lines(
    config: ReportConfig,
    dataset_hash: str,
    command: str,
    extra: Mapping[str, str] | None = None,
    comment: str = "#",
) -> list[str]:
    """Auditability header embedded in every output file."""
    items: list[tuple[str, str]] = [("command", command)]
    if extra:
        items.extend(sorted(extra.items()))
    # every config field, in declaration order
    items += [(f.name, str(getattr(config, f.name))) for f in fields(config)]
    items += [("rng", RNG_NAME), ("dataset_sha256", dataset_hash)]
    return [f"{comment} {key}={value}" for key, value in items]


# Every format spec used here writes an infinity as "inf" or "-inf".
def fmt_stat(value: float) -> str:
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.2g}"


def fmt_p(p: float, alpha: float) -> str:
    if p <= alpha:
        return "*"
    if p < 0.01:
        return "< 0.01"
    return f"{p:.2f}"


def fmt_float(value: float) -> str:
    return f"{value:.10g}"


def comparison_cell(result: ComparisonResult, alpha: float) -> tuple[str, str]:
    """(pair title, cell text) with the favored planner named first."""
    favored = result.favored_planner
    if favored is None:
        title = f"{result.planner_a}-{result.planner_b}"
    else:
        title = f"{favored}-{result.other_planner}"
    w = result.wilcoxon
    if result.n == 0:
        return title, "no data"
    z_text = fmt_stat(w.z)
    p_text = fmt_p(w.p_two_sided, alpha)
    if w.p_two_sided <= alpha:
        cell = f"{z_text} *"
    else:
        prop = result.proportion
        if prop.n > 0 and prop.p_two_sided <= alpha:
            cell = (
                f"{z_text} ({fmt_stat(abs(prop.z))}) "
                f"{p_text} ({fmt_p(prop.p_two_sided, alpha)})"
            )
        else:
            cell = f"**{z_text} {p_text}**"
    if result.too_small:
        cell += " (too small)"
    return title, cell


def _write_columns(out: io.StringIO, rows: Sequence[Sequence[str]]) -> None:
    """Write rows as left-aligned columns two spaces apart, trailing blanks cut."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        out.write("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() + "\n")


def render_compare_text(
    alo: Sequence[ComparisonResult],
    dh: Sequence[ComparisonResult],
    magnitudes: Sequence[MagnitudeResult | None],
    alpha: float,
    alpha_magnitude: float,
) -> str:
    out = io.StringIO()

    def table(results: Sequence[ComparisonResult], caption: str) -> None:
        out.write(f"== {caption} ==\n")
        rows = [("pair", "result", "n")]
        for r in results:
            title, cell = comparison_cell(r, alpha)
            rows.append((title, cell, str(r.n)))
        _write_columns(out, rows)
        out.write(f"'*' indicates a result less than {alpha:g}; "
                  "bold (**) marks results not significant at that level;\n"
                  "bracketed values are the win-proportion fallback test.\n\n")

    table(alo, "consistency, problems solved by at least one")
    table(dh, "consistency, double hits only")

    out.write("== magnitude (normalized paired t, double hits) ==\n")
    rows = [("pair", "means", "t,df", "p")]
    for m in magnitudes:
        if m is None:
            continue
        t = m.t_result
        means = (
            f"{m.planner_a} {t.mean_first_norm:.2f} / {m.planner_b} {t.mean_second_norm:.2f}"
        )
        cell = f"{t.t:.2f},{t.df}"
        p_text = fmt_p(t.p_two_sided, alpha_magnitude)
        if t.p_two_sided > alpha_magnitude:
            cell = f"**{cell}**"
        if m.direction is QualityDirection.MAXIMIZE:
            means += " (maximize: larger mean is better)"
        rows.append((f"{m.planner_a}-{m.planner_b}", means, cell, p_text))
    _write_columns(out, rows)
    out.write(f"'*' indicates a result less than {alpha_magnitude:g}; a mean below 1 is the "
              "smaller-valued side.\n")
    return out.getvalue()


def _csv_rows(columns: Sequence[tuple[str, Callable]], items: Iterable) -> list[list[str]]:
    """A header row of the column names, then one row per item holding each
    column's value of it."""
    header = [name for name, _ in columns]
    return [header] + [[cell(item) for _, cell in columns] for item in items]


_COMPARISON_COLUMNS = (
    ("planner_a", lambda r: r.planner_a),
    ("planner_b", lambda r: r.planner_b),
    ("level", lambda r: r.level.value),
    ("measure", lambda r: r.measure.value),
    ("mode", lambda r: r.mode.value),
    ("size_class", lambda r: r.size_class.value),
    ("n", lambda r: str(r.n)),
    ("wilcoxon_z", lambda r: fmt_float(r.wilcoxon.z)),
    ("wilcoxon_p", lambda r: fmt_float(r.wilcoxon.p_two_sided)),
    ("favored", lambda r: r.favored_planner or ""),
    ("prop_wins", lambda r: str(r.proportion.wins)),
    ("prop_n", lambda r: str(r.proportion.n)),
    ("prop_z", lambda r: fmt_float(r.proportion.z)),
    ("prop_p", lambda r: fmt_float(r.proportion.p_two_sided)),
    ("significant_at", lambda r: "" if r.significant_at is None else repr(r.significant_at)),
    ("too_small", lambda r: "1" if r.too_small else "0"),
)


def comparisons_csv_rows(results: Sequence[ComparisonResult]) -> list[list[str]]:
    return _csv_rows(_COMPARISON_COLUMNS, results)


_MAGNITUDE_COLUMNS = (
    ("planner_a", lambda m: m.planner_a),
    ("planner_b", lambda m: m.planner_b),
    ("level", lambda m: m.level.value),
    ("measure", lambda m: m.measure.value),
    ("size_class", lambda m: m.size_class.value),
    ("n", lambda m: str(m.n)),
    ("mean_a_norm", lambda m: fmt_float(m.t_result.mean_first_norm)),
    ("mean_b_norm", lambda m: fmt_float(m.t_result.mean_second_norm)),
    ("t", lambda m: fmt_float(m.t_result.t)),
    ("df", lambda m: str(m.t_result.df)),
    ("p", lambda m: fmt_float(m.t_result.p_two_sided)),
    ("direction", lambda m: m.direction.value),
)


def magnitudes_csv_rows(results: Sequence[MagnitudeResult]) -> list[list[str]]:
    return _csv_rows(_MAGNITUDE_COLUMNS, results)


def csv_text(rows: Sequence[Sequence[str]], header_lines: Sequence[str] = ()) -> str:
    out = io.StringIO()
    for line in header_lines:
        out.write(line + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(rows)
    return out.getvalue()


def _levels_in(items, key) -> list[Level]:
    present = {key(item) for item in items}
    return [lv for lv in Level if lv in present]


# the per-planner extremes: each label with its percentile test
_EXTREMES = (("easy", lambda p: p <= 0.05), ("hard", lambda p: p >= 0.95))


def render_hardness_text(specific: HardnessTable, independent: HardnessTable) -> str:
    out = io.StringIO()
    pools = ((specific, "level-specific pools"), (independent, "level-independent pool"))
    verdicts = list(specific.verdicts) + list(independent.verdicts)
    domains = sorted({v.domain for v in verdicts})
    levels = _levels_in(verdicts, lambda v: v.level)

    def planners_per_level(table: HardnessTable) -> dict[Level, int]:
        counts: dict[Level, set[str]] = {}
        for v in table.verdicts:
            counts.setdefault(v.level, set()).add(v.planner)
        return {lv: len(names) for lv, names in counts.items()}

    out.write("== easy/hard counts per domain (easy/hard, n planners in brackets) ==\n")
    for table, caption in pools:
        out.write(f"-- {caption} --\n")
        per_level = planners_per_level(table)
        header = ["domain"] + [
            f"{lv.value} [{per_level.get(lv, 0)}]" for lv in levels
        ]
        rows = [header]
        counts = table.cell_counts()
        for domain in domains:
            row = [domain]
            for lv in levels:
                cell = counts.get((domain, lv))
                row.append("-" if cell is None else f"{cell[0]}/{cell[1]}")
            rows.append(row)
        _write_columns(out, rows)
        out.write("\n")

    out.write("== per-planner extremes (percentile <= 0.05 or >= 0.95) ==\n")
    for table, caption in pools:
        out.write(f"-- {caption} --\n")
        for planner in sorted({v.planner for v in table.verdicts}):
            own = sorted(
                (v for v in table.verdicts if v.planner == planner),
                key=lambda v: (v.domain, v.level.value),
            )
            lines = []
            for label, extreme in _EXTREMES:
                cells = ", ".join(
                    f"{v.domain}/{v.level.value} {v.percentile:.4g}"
                    for v in own
                    if extreme(v.percentile)
                )
                if cells:
                    lines.append(f"  {label}: {cells}\n")
            if lines:
                out.write(f"{planner}:\n" + "".join(lines))
        out.write("\n")
    return out.getvalue()


_HARDNESS_COLUMNS = (
    ("planner", lambda v: v.planner),
    ("domain", lambda v: v.domain),
    ("level", lambda v: v.level.value),
    ("size_class", lambda v: v.size_class.value),
    ("pool", lambda v: v.pool_kind.label),
    ("area_ms", lambda v: fmt_float(v.area_ms)),
    ("percentile", lambda v: fmt_float(v.percentile)),
    ("classification", lambda v: v.classification.value),
)


def hardness_csv_rows(tables: Sequence[HardnessTable]) -> list[list[str]]:
    return _csv_rows(_HARDNESS_COLUMNS, (v for table in tables for v in table.verdicts))


def render_agreement_text(results: Sequence[AgreementResult]) -> str:
    out = io.StringIO()
    for size in (SizeClass.SMALL, SizeClass.LARGE):
        subset = [r for r in results if r.size_class == size]
        if not subset:
            continue
        out.write(f"== agreement F-tests, {size.value} problems ==\n")
        domains = sorted({r.domain for r in subset})
        levels = _levels_in(subset, lambda r: r.level)
        header = ["domain"] + [lv.value for lv in levels]
        rows = [header]
        index = {(r.domain, r.level): r for r in subset}
        for domain in domains:
            row = [domain]
            for lv in levels:
                r = index.get((domain, lv))
                if r is None:
                    row.append("-")
                    continue
                cell = f"F({r.mrc.df[0]},{r.mrc.df[1]})={r.mrc.F:.3g}"
                if not r.significant:
                    cell = f"**{cell}**"
                row.append(cell)
            rows.append(row)
        _write_columns(out, rows)
        out.write("bold (**) marks cells without significant agreement.\n\n")
    return out.getvalue()


_AGREEMENT_COLUMNS = (
    ("domain", lambda r: r.domain),
    ("level", lambda r: r.level.value),
    ("size_class", lambda r: r.size_class.value),
    ("F", lambda r: fmt_float(r.mrc.F)),
    ("df1", lambda r: str(r.mrc.df[0])),
    ("df2", lambda r: str(r.mrc.df[1])),
    ("p", lambda r: fmt_float(r.mrc.p)),
    ("significant", lambda r: "1" if r.significant else "0"),
    ("judges", lambda r: ";".join(r.judges)),
)


def agreement_csv_rows(results: Sequence[AgreementResult]) -> list[list[str]]:
    return _csv_rows(_AGREEMENT_COLUMNS, results)


def scaling_symbol(result: ScalingResult) -> str:
    if result.verdict is Verdict.INCOMPARABLE:
        return "x" if result.reason is IncomparableReason.NO_SHARED_TRACK else "o"
    if result.verdict is Verdict.NO_DIFFERENCE:
        return "0"
    return f"{abs(result.spearman.rho):.2f}"


def render_scaling_text(results: Sequence[ScalingResult], level: Level) -> str:
    out = io.StringIO()
    planners = sorted({r.planner_a for r in results} | {r.planner_b for r in results})
    out.write(f"== relative scaling at {level.value} "
              "(value in the better-scaling planner's row) ==\n")
    index = {}
    for r in results:
        index[(r.planner_a, r.planner_b)] = r
    header = [""] + planners
    rows = [header]
    for row_planner in planners:
        row = [row_planner]
        for col_planner in planners:
            if row_planner == col_planner:
                row.append(".")
                continue
            r = index.get((row_planner, col_planner)) or index.get((col_planner, row_planner))
            if r is None:
                row.append("-")
                continue
            symbol = scaling_symbol(r)
            if symbol in ("x", "o", "0"):
                # undirected marker: show in the upper triangle only
                row.append(symbol if row_planner < col_planner else "")
                continue
            winner = r.planner_a if r.verdict is Verdict.A_SCALES_BETTER else r.planner_b
            row.append(symbol if winner == row_planner else "")
        rows.append(row)
    _write_columns(out, rows)
    out.write("x: no shared track; o: insufficient agreement; 0: no significant difference.\n")
    return out.getvalue()


_SCALING_COLUMNS = (
    ("planner_a", lambda r: r.planner_a),
    ("planner_b", lambda r: r.planner_b),
    ("level", lambda r: r.level.value),
    ("n", lambda r: str(r.n)),
    ("rho_z", lambda r: "" if r.spearman is None else fmt_float(r.spearman.z)),
    ("p", lambda r: "" if r.spearman is None else fmt_float(r.spearman.p_two_sided)),
    ("verdict", lambda r: f"incomparable:{r.reason.value}" if r.reason else r.verdict.value),
    ("domains", lambda r: ";".join(r.eligible_domains)),
)


def scaling_csv_rows(results: Sequence[ScalingResult]) -> list[list[str]]:
    return _csv_rows(_SCALING_COLUMNS, results)


def series_csv(
    runs: Sequence[RunRecord],
    manifest: Manifest,
    domain: str,
    level: Level,
    measure: Measure,
    size_class: SizeClass = SizeClass.SMALL,
    header_lines: Sequence[str] = (),
) -> str:
    """Per-problem value series, one column per planner (empty = unsolved).

    Raises:
        NoProblems: if the domain has no problem set at the level and size
            class.
    """
    runs = RunTable.of(runs)
    grid = runs.grid(manifest, level, size_class)
    span = grid.span(domain)
    (ps,) = manifest.sets_at(level=level, size_class=size_class, domain=domain)
    planners = grid.attempted(span)
    rows = [grid.rows[p] for p in planners]
    values = grid.values[MEASURE_FIELDS[measure]][rows, span].T.tolist()
    records = grid.index[rows, span].T.tolist()
    times = runs.columns["time_ms"]

    def text(value: float, record: int) -> str:
        if math.isnan(value):
            return ""
        # times are integers: fmt_float would round them above 10 digits
        return str(times[record]) if measure is Measure.SPEED else fmt_float(value)

    direction = (
        ps.quality_direction.value if measure is Measure.QUALITY_METRIC else "minimize"
    )
    table = [["problem", *planners]]
    for problem, value_row, record_row in zip(ps.problems, values, records):
        table.append([problem, *map(text, value_row, record_row)])
    return csv_text(table, [*header_lines, f"# direction={direction}"])


def dot_with_metadata(order: PartialOrder, header_lines: Sequence[str]) -> str:
    return "".join(line + "\n" for line in header_lines) + to_dot(order)
