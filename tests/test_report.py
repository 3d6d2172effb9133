import dataclasses

import pytest

from conftest import pset, run, simple_manifest
from planstats.dataio import Category, Level, NoProblems, QualityDirection, SizeClass
from planstats.hardness import (
    Classification,
    HardnessTable,
    HardnessVerdict,
    level_specific,
)
from planstats.pairwise import MagnitudeResult, Measure
from planstats.report import (
    BadConfigValue,
    ReportConfig,
    comparison_cell,
    fmt_p,
    fmt_stat,
    magnitudes_csv_rows,
    metadata_lines,
    render_compare_text,
    render_hardness_text,
    scaling_symbol,
    series_csv,
)
from planstats.scaling import IncomparableReason, ScalingResult, Verdict
from planstats.stattests import (
    Favored,
    ProportionResult,
    SpearmanResult,
    paired_t_normalized,
)
from test_ordering import make_comparison


def with_z(comparison, z, proportion=None):
    wilcoxon = dataclasses.replace(comparison.wilcoxon, z=z)
    kwargs = {"wilcoxon": wilcoxon}
    if proportion is not None:
        kwargs["proportion"] = proportion
    return dataclasses.replace(comparison, **kwargs)


class TestComparisonCell:
    def test_significant(self):
        c = with_z(make_comparison("pa", "pb", wilcoxon_p=5e-4, favored=Favored.FIRST), 6.2)
        title, cell = comparison_cell(c, 0.001)
        assert title == "pa-pb"
        assert cell == "6.2 *"

    def test_insignificant_bold(self):
        c = with_z(make_comparison("A", "B", wilcoxon_p=0.06, favored=Favored.FIRST), 1.9)
        _, cell = comparison_cell(c, 0.001)
        assert cell == "**1.9 0.06**"

    def test_proportion_fallback(self):
        prop = ProportionResult(wins=40, n=50, z=3.3, p_two_sided=5e-4)
        c = with_z(
            make_comparison("A", "B", wilcoxon_p=0.04, favored=Favored.FIRST, prop_p=5e-4),
            2.1,
            prop,
        )
        _, cell = comparison_cell(c, 0.001)
        assert cell == "2.1 (3.3) 0.04 (*)"

    def test_favored_named_first(self):
        c = make_comparison("A", "B", wilcoxon_p=5e-4, favored=Favored.SECOND)
        title, _ = comparison_cell(c, 0.001)
        assert title == "B-A"


class TestFormatting:
    def test_fmt_stat(self):
        assert fmt_stat(6.2) == "6.2"
        assert fmt_stat(0.051) == "0.051"
        assert fmt_stat(12.26) == "12.3"
        assert fmt_stat(float("inf")) == "inf"
        assert fmt_stat(float("-inf")) == "-inf"

    def test_fmt_p(self):
        assert fmt_p(0.0005, 0.001) == "*"
        assert fmt_p(0.005, 0.001) == "< 0.01"
        assert fmt_p(0.06, 0.001) == "0.06"


class TestMagnitudeRendering:
    def test_negative_infinite_t_keeps_its_sign(self):
        # second values are twice the first: zero variance, negative mean difference
        t_result = paired_t_normalized([(1, 2), (2, 4), (3, 6)])
        assert t_result.t == float("-inf")
        m = MagnitudeResult("A", "B", Level.STRIPS, Measure.SPEED, SizeClass.SMALL,
                            3, t_result, QualityDirection.MINIMIZE)
        text = render_compare_text([], [], [m], 0.001, 0.05)
        row = next(line for line in text.splitlines() if line.startswith("A-B"))
        assert row.split()[-2] == "-inf,2"
        header, csv_row = magnitudes_csv_rows([m])
        assert csv_row[header.index("t")] == "-inf"


def make_verdict(planner, domain, level, pct, classification):
    return HardnessVerdict(
        planner=planner,
        domain=domain,
        level=level,
        size_class=SizeClass.SMALL,
        pool_kind=level_specific(level),
        area_ms=1.0,
        n_problems=20,
        percentile=pct,
        classification=classification,
    )


class TestHardnessRendering:
    def test_easy_hard_cell_counts(self):
        verdicts = [
            make_verdict("p1", "cargo", Level.STRIPS, 0.01, Classification.EASY),
            make_verdict("p2", "cargo", Level.STRIPS, 0.99, Classification.HARD),
            make_verdict("p3", "cargo", Level.STRIPS, 0.98, Classification.HARD),
            make_verdict("p4", "cargo", Level.STRIPS, 0.985, Classification.HARD),
            make_verdict("p5", "cargo", Level.STRIPS, 0.5, Classification.NEITHER),
            make_verdict("p6", "cargo", Level.STRIPS, 0.6, Classification.NEITHER),
        ]
        table = HardnessTable(AUTO := Category.FULLY_AUTOMATED, SizeClass.SMALL, tuple(verdicts))
        assert table.cell_counts()[("cargo", Level.STRIPS)] == (1, 3)
        text = render_hardness_text(table, table)
        assert "1/3" in text
        assert "strips [6]" in text

    def test_per_planner_listing_filters_extremes(self):
        verdicts = [
            make_verdict("p1", "cargo", Level.STRIPS, 0.03, Classification.NEITHER),
            make_verdict("p1", "gridworld", Level.STRIPS, 0.5, Classification.NEITHER),
            make_verdict("p1", "orchard", Level.STRIPS, 0.97, Classification.NEITHER),
        ]
        table = HardnessTable(Category.FULLY_AUTOMATED, SizeClass.SMALL, tuple(verdicts))
        text = render_hardness_text(table, table)
        assert "easy: cargo/strips 0.03" in text
        assert "hard: orchard/strips 0.97" in text
        assert "gridworld" not in text.split("per-planner")[1]


class TestScalingSymbols:
    def _result(self, verdict_kind, reason=None, z=-2.5, n=40):
        spearman = None
        if reason is None:
            spearman = SpearmanResult(n=n, R=100.0, z=z, p_two_sided=0.01)
        return ScalingResult(
            planner_a="a",
            planner_b="b",
            level=Level.STRIPS,
            eligible_domains=("d1", "d2"),
            n=n,
            spearman=spearman,
            verdict=verdict_kind,
            reason=reason,
        )

    def test_symbols(self):
        assert scaling_symbol(
            self._result(Verdict.INCOMPARABLE, IncomparableReason.NO_SHARED_TRACK)
        ) == "x"
        assert scaling_symbol(
            self._result(Verdict.INCOMPARABLE, IncomparableReason.INSUFFICIENT_AGREEMENT)
        ) == "o"
        assert scaling_symbol(self._result(Verdict.NO_DIFFERENCE)) == "0"
        # 0.36-style correlation magnitude
        r = self._result(Verdict.B_SCALES_BETTER, z=-0.36 * (39**0.5))
        assert scaling_symbol(r) == "0.36"


class TestSeriesCsv:
    def test_direction_and_blank_cells(self):
        manifest = simple_manifest(
            {"a": ["hardnumeric"], "b": ["hardnumeric"]},
            [pset("sat", "hardnumeric", 3, direction="maximize")],
        )
        runs = [
            run("a", "sat", "hardnumeric", "p01", 10, metric=5.5),
            run("a", "sat", "hardnumeric", "p02", 10, metric=7.5),
            run("b", "sat", "hardnumeric", "p01", 10, metric=2.0),
            run("b", "sat", "hardnumeric", "p03"),
        ]
        text = series_csv(runs, manifest, "sat", Level.HARD_NUMERIC, Measure.QUALITY_METRIC)
        lines = text.splitlines()
        assert lines[0] == "# direction=maximize"
        assert lines[1] == "problem,a,b"
        assert lines[2] == "p01,5.5,2"
        assert lines[3] == "p02,7.5,"
        assert lines[4] == "p03,,"

    def test_unknown_cell(self):
        manifest = simple_manifest({"a": ["strips"]}, [pset("d", "strips", 2)])
        with pytest.raises(NoProblems):
            series_csv([], manifest, "nosuch", Level.STRIPS, Measure.SPEED)


class TestMetadata:
    def test_header_contains_config_and_hash(self):
        lines = metadata_lines(ReportConfig(), "abc123", "compare", {"level": "strips"})
        joined = "\n".join(lines)
        assert "# command=compare" in joined
        assert "# level=strips" in joined
        assert "# dataset_sha256=abc123" in joined
        assert "# bootstrap_B=10000" in joined
        assert "# rng=" in joined

    def test_header_keys_in_order(self):
        lines = metadata_lines(ReportConfig(), "abc123", "compare", {"size": "small"})
        assert [line[2:].partition("=")[0] for line in lines] == [
            "command", "size", "alpha_pairwise", "alpha_magnitude", "alpha_agreement",
            "alpha_scaling", "bootstrap_B", "bootstrap_m", "cutoff_ms", "seed", "rng",
            "dataset_sha256",
        ]
        assert "# alpha_pairwise=0.001" in lines

    def test_config_validation(self):
        with pytest.raises(BadConfigValue, match="alpha_pairwise must lie in"):
            ReportConfig(alpha_pairwise=0.7)
        with pytest.raises(BadConfigValue, match="bootstrap_m must be positive"):
            dataclasses.replace(ReportConfig(), bootstrap_m=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ReportConfig().seed = 5


class TestAgreementRendering:
    def test_insignificant_cell_bold_marked(self):
        from planstats.agreement import AgreementResult
        from planstats.report import render_agreement_text
        from planstats.stattests import mrc_test

        strong = mrc_test([[1, 2, 3, 4], [1, 2, 4, 3]])
        weak = mrc_test([[1, 2, 3, 4], [3, 4, 1, 2]])
        results = [
            AgreementResult("cargo", Level.STRIPS, SizeClass.SMALL,
                            Category.FULLY_AUTOMATED, ("a", "b"), (), 4, strong, True),
            AgreementResult("gridworld", Level.STRIPS, SizeClass.SMALL,
                            Category.FULLY_AUTOMATED, ("a", "b"), (), 4, weak, False),
        ]
        text = render_agreement_text(results)
        cargo_line = next(l for l in text.splitlines() if l.startswith("cargo"))
        gridworld_line = next(l for l in text.splitlines() if l.startswith("gridworld"))
        assert "**" not in cargo_line
        assert "**F(3,4)=" in gridworld_line
