import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planstats.dataio import Level, SizeClass
from planstats.ordering import (
    ConflictingComparisons,
    EdgeKind,
    MixedLevels,
    build_order,
    format_p_label,
    to_dot,
    transitive_reduction,
)
from planstats.pairwise import ComparisonResult, Measure, PairingMode
from planstats.stattests import Favored, ProportionResult, WilcoxonResult

ALO = PairingMode.AT_LEAST_ONE
DH = PairingMode.DOUBLE_HITS


def make_comparison(
    a,
    b,
    *,
    mode=ALO,
    wilcoxon_p=1.0,
    favored=Favored.NONE,
    prop_p=1.0,
    prop_wins=None,
    n=50,
    too_small=False,
    level=Level.STRIPS,
    measure=Measure.SPEED,
):
    if favored is Favored.FIRST:
        pos, neg = 900.0, 100.0
    elif favored is Favored.SECOND:
        pos, neg = 100.0, 900.0
    else:
        pos = neg = 500.0
    wilcoxon = WilcoxonResult(
        n_input=n,
        n_effective=n,
        rank_sum_pos=pos,
        rank_sum_neg=neg,
        T=min(pos, neg),
        z=5.0 if wilcoxon_p < 0.5 else 0.1,
        p_two_sided=wilcoxon_p,
        favored=favored,
    )
    wins = prop_wins if prop_wins is not None else (30 if favored is Favored.FIRST else 20)
    proportion = ProportionResult(
        wins=wins, n=n, z=(wins / n - 0.5) / (0.25 / n) ** 0.5, p_two_sided=prop_p
    )
    return ComparisonResult(
        planner_a=a,
        planner_b=b,
        level=level,
        measure=measure,
        mode=mode,
        size_class=SizeClass.SMALL,
        n=n,
        wilcoxon=wilcoxon,
        proportion=proportion,
        significant_at=None,
        too_small=too_small,
    )


class TestBuildOrder:
    def test_linear_chain(self):
        comparisons = [
            make_comparison("pa", "pb", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("pb", "pc", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("pa", "pc", wilcoxon_p=1e-6, favored=Favored.FIRST),
        ]
        order = build_order(comparisons, alpha=0.001)
        solid = {(e.src, e.dst) for e in order.edges if e.kind is EdgeKind.SOLID}
        assert solid == {("pa", "pb"), ("pb", "pc"), ("pa", "pc")}
        assert order.annotations == ()
        assert all(e.p <= 0.001 for e in order.edges)

    def test_double_hits_inversion(self):
        comparisons = [
            make_comparison("wide", "deep", wilcoxon_p=1e-4, favored=Favored.FIRST),
            make_comparison("wide", "deep", mode=DH, wilcoxon_p=5e-4, favored=Favored.SECOND, n=15),
        ]
        order = build_order(comparisons, alpha=0.001)
        kinds = {(e.src, e.dst, e.kind) for e in order.edges}
        assert ("wide", "deep", EdgeKind.SOLID) in kinds
        assert ("deep", "wide", EdgeKind.DOTTED) in kinds
        assert any("inverts" in note for note in order.annotations)

    def test_dotted_without_solid(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=0.5, favored=Favored.FIRST),
            make_comparison("A", "B", mode=DH, wilcoxon_p=1e-4, favored=Favored.FIRST, n=20),
        ]
        order = build_order(comparisons, alpha=0.001)
        assert [(e.src, e.dst, e.kind) for e in order.edges] == [("A", "B", EdgeKind.DOTTED)]
        assert order.annotations == ()

    def test_dotted_suppressed_when_direction_matches_solid(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=1e-4, favored=Favored.FIRST),
            make_comparison("A", "B", mode=DH, wilcoxon_p=1e-4, favored=Favored.FIRST),
        ]
        order = build_order(comparisons, alpha=0.001)
        assert [e.kind for e in order.edges] == [EdgeKind.SOLID]

    def test_dashed_edge(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=0.06, favored=Favored.FIRST,
                            prop_p=5e-4, prop_wins=40),
        ]
        order = build_order(comparisons, alpha=0.001)
        (edge,) = order.edges
        assert edge.kind is EdgeKind.DASHED
        assert (edge.src, edge.dst) == ("A", "B")
        assert edge.p == 5e-4

    def test_empty(self):
        order = build_order([])
        assert order.nodes == ()
        assert order.edges == ()

    def test_too_small_barred(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=1e-6, favored=Favored.FIRST, too_small=True)
        ]
        order = build_order(comparisons, alpha=0.001)
        assert order.edges == ()
        assert order.nodes == ("A", "B")

    def test_intransitive_triple_annotated(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("B", "C", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("C", "A", wilcoxon_p=1e-5, favored=Favored.FIRST),
        ]
        order = build_order(comparisons, alpha=0.001)
        assert sum(e.kind is EdgeKind.SOLID for e in order.edges) == 3
        assert any("intransitive" in note for note in order.annotations)

    def test_order_insensitive_and_idempotent(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("B", "C", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("A", "C", wilcoxon_p=0.2, favored=Favored.FIRST, prop_p=1e-4),
            make_comparison("A", "C", mode=DH, wilcoxon_p=1e-4, favored=Favored.SECOND),
        ]
        reference = build_order(comparisons, alpha=0.001)
        rng = random.Random(5)
        for _ in range(10):
            shuffled = comparisons[:]
            rng.shuffle(shuffled)
            assert build_order(shuffled, alpha=0.001) == reference
        assert build_order(comparisons, alpha=0.001) == reference

    def test_mixed_levels_rejected(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("B", "C", wilcoxon_p=1e-5, favored=Favored.FIRST, level=Level.TIME),
        ]
        with pytest.raises(MixedLevels):
            build_order(comparisons)

    def test_conflicting_duplicates_rejected(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("B", "A", wilcoxon_p=1e-5, favored=Favored.FIRST),
        ]
        with pytest.raises(ConflictingComparisons):
            build_order(comparisons)

    def test_exact_duplicates_deduped(self):
        c = make_comparison("A", "B", wilcoxon_p=1e-5, favored=Favored.FIRST)
        order = build_order([c, c], alpha=0.001)
        assert len(order.edges) == 1


@st.composite
def comparison_lists(draw):
    """Comparisons among three planners, each pair in either name order,
    in any pairing mode, direction and level, with exact and differing
    repeats of a cell.  The draws lean towards significant at-least-one
    results, the ones that make solid edges."""
    levels = draw(st.sampled_from([(Level.STRIPS,)] * 3 + [(Level.STRIPS, Level.NUMERIC)]))

    def comparison():
        a, b = draw(st.sampled_from(list(itertools.permutations(("A", "B", "C"), 2))))
        return make_comparison(
            a,
            b,
            mode=draw(st.sampled_from([ALO, ALO, DH])),
            wilcoxon_p=draw(st.sampled_from([1e-6, 1e-6, 1e-6, 0.5])),
            favored=draw(st.sampled_from([Favored.FIRST, Favored.SECOND] * 2 + [Favored.NONE])),
            too_small=draw(st.sampled_from([False, False, False, True])),
            level=draw(st.sampled_from(levels)),
        )

    pool = [comparison() for _ in range(draw(st.integers(2, 4)))]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@settings(max_examples=500)
@given(comparison_lists())
def test_solid_edges_never_run_both_ways(comparisons):
    """One at-least-one result per pair is all build_order keeps; a second,
    differing one (the pair in the other name order too) is a conflict."""
    try:
        order = build_order(comparisons, alpha=0.001)
    except (MixedLevels, ConflictingComparisons):
        return
    solid = {(e.src, e.dst) for e in order.edges if e.kind is EdgeKind.SOLID}
    assert not solid & {(dst, src) for src, dst in solid}


class TestDot:
    def test_p_label_format(self):
        assert format_p_label(0.0005) == "5.00e-4"
        assert format_p_label(0.92) == "9.20e-1"
        assert format_p_label(0.0) == "0"

    def test_single_edge_line(self):
        order = build_order(
            [make_comparison("A", "B", wilcoxon_p=0.0005, favored=Favored.FIRST)], alpha=0.001
        )
        dot = to_dot(order)
        assert 'A -> B [style=solid, label="5.00e-4"];' in dot

    def test_empty_graph_nodes_only(self):
        order = build_order(
            [make_comparison("A", "B", wilcoxon_p=0.9, favored=Favored.NONE)], alpha=0.001
        )
        dot = to_dot(order)
        assert "digraph" in dot
        assert "A;" in dot and "B;" in dot
        assert "->" not in dot

    def test_deterministic(self):
        order = build_order(
            [
                make_comparison("A", "B", wilcoxon_p=1e-5, favored=Favored.FIRST),
                make_comparison("A", "C", wilcoxon_p=1e-5, favored=Favored.SECOND),
            ],
            alpha=0.001,
        )
        assert to_dot(order) == to_dot(order)

    def test_styles_map_to_kinds(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("A", "C", wilcoxon_p=0.5, favored=Favored.FIRST, prop_p=1e-4),
            make_comparison("B", "C", mode=DH, wilcoxon_p=1e-4, favored=Favored.FIRST),
        ]
        dot = to_dot(build_order(comparisons, alpha=0.001))
        assert "style=solid" in dot
        assert "style=dashed" in dot
        assert "style=dotted" in dot

    def test_quoting_nonidentifier_names(self):
        order = build_order(
            [make_comparison("My Planner", "B", wilcoxon_p=1e-5, favored=Favored.FIRST)],
            alpha=0.001,
        )
        assert '"My Planner" -> B' in to_dot(order)


class TestTransitiveReduction:
    def test_removes_implied_edge(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("B", "C", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("A", "C", wilcoxon_p=1e-6, favored=Favored.FIRST),
        ]
        reduced = transitive_reduction(build_order(comparisons, alpha=0.001))
        solid = {(e.src, e.dst) for e in reduced.edges if e.kind is EdgeKind.SOLID}
        assert solid == {("A", "B"), ("B", "C")}

    def test_keeps_dotted_and_dashed(self):
        comparisons = [
            make_comparison("A", "B", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("B", "C", wilcoxon_p=1e-5, favored=Favored.FIRST),
            make_comparison("A", "C", wilcoxon_p=1e-6, favored=Favored.FIRST),
            make_comparison("A", "C", mode=DH, wilcoxon_p=1e-4, favored=Favored.SECOND),
        ]
        reduced = transitive_reduction(build_order(comparisons, alpha=0.001))
        kinds = [e.kind for e in reduced.edges]
        assert EdgeKind.DOTTED in kinds
        assert sum(e.kind is EdgeKind.SOLID for e in reduced.edges) == 2
