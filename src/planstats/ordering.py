"""Partial orders over planners from pairwise comparison results.

Three edge strengths: Solid (whole-sample Wilcoxon significant), Dotted
(double-hits Wilcoxon significant, possibly inverting the whole-sample
finding) and Dashed (Wilcoxon insignificant but win-proportion test
significant).  Orders serialize to deterministic DOT text.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .dataio import Level
from .pairwise import ComparisonResult, Measure, PairingMode

DEFAULT_ALPHA = 0.001


class MixedLevels(ValueError):
    """Comparisons fed to one order must share level and measure."""


class ConflictingComparisons(ValueError):
    """Two differing comparison results were supplied for the same cell."""


class EdgeKind(enum.Enum):
    SOLID = "solid"
    DOTTED = "dotted"
    DASHED = "dashed"


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: EdgeKind
    p: float
    n: int


@dataclass(frozen=True)
class PartialOrder:
    level: Level
    measure: Measure
    alpha: float
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    annotations: tuple[str, ...]


def build_order(comparisons: Sequence[ComparisonResult], alpha: float = DEFAULT_ALPHA) -> PartialOrder:
    """Construct the partial order implied by a set of comparison results.

    For each planner pair: a Solid edge from the winner when the
    at-least-one Wilcoxon p is <= alpha; a Dotted edge from the
    double-hits winner when the double-hits Wilcoxon is significant and
    either no Solid edge exists or its direction differs (the inversion
    is annotated); a Dashed edge when the Wilcoxon is insignificant but
    the proportion test passes alpha.  Comparisons flagged too_small are
    barred.  Intransitive Solid triples are annotated, never repaired.

    Raises:
        MixedLevels: if inputs mix levels or measures.
        ConflictingComparisons: on contradictory duplicate inputs.
    """
    if not comparisons:
        return PartialOrder(
            level=Level.STRIPS,
            measure=Measure.SPEED,
            alpha=alpha,
            nodes=(),
            edges=(),
            annotations=(),
        )
    level = comparisons[0].level
    measure = comparisons[0].measure
    for c in comparisons:
        if c.level != level or c.measure != measure:
            raise MixedLevels(
                f"expected all comparisons at {level.value}/{measure.value}, got "
                f"{c.level.value}/{c.measure.value} for {c.planner_a}-{c.planner_b}"
            )

    nodes = sorted({c.planner_a for c in comparisons} | {c.planner_b for c in comparisons})
    by_cell: dict[tuple[frozenset, PairingMode], ComparisonResult] = {}
    for c in comparisons:
        cell = (frozenset((c.planner_a, c.planner_b)), c.mode)
        previous = by_cell.get(cell)
        if previous is not None and previous != c:
            raise ConflictingComparisons(
                f"conflicting results for {c.planner_a}-{c.planner_b} ({c.mode.value})"
            )
        by_cell[cell] = c

    edges: list[Edge] = []
    annotations: list[str] = []
    pairs = sorted({frozenset((c.planner_a, c.planner_b)) for c in comparisons}, key=sorted)
    for pair in pairs:
        alo = by_cell.get((pair, PairingMode.AT_LEAST_ONE))
        dh = by_cell.get((pair, PairingMode.DOUBLE_HITS))
        solid = None
        if alo is not None and not alo.too_small:
            if alo.wilcoxon.p_two_sided <= alpha and alo.favored_planner is not None:
                solid = Edge(
                    src=alo.favored_planner,
                    dst=alo.other_planner,
                    kind=EdgeKind.SOLID,
                    p=alo.wilcoxon.p_two_sided,
                    n=alo.n,
                )
                edges.append(solid)
            elif (
                alo.wilcoxon.p_two_sided > alpha
                and alo.proportion.n > 0
                and alo.proportion.p_two_sided <= alpha
                and alo.proportion_favored is not None
            ):
                winner = alo.proportion_favored
                loser = alo.planner_b if winner == alo.planner_a else alo.planner_a
                edges.append(
                    Edge(
                        src=winner,
                        dst=loser,
                        kind=EdgeKind.DASHED,
                        p=alo.proportion.p_two_sided,
                        n=alo.proportion.n,
                    )
                )
        if dh is not None and not dh.too_small:
            if dh.wilcoxon.p_two_sided <= alpha and dh.favored_planner is not None:
                if solid is None or solid.src != dh.favored_planner:
                    edges.append(
                        Edge(
                            src=dh.favored_planner,
                            dst=dh.other_planner,
                            kind=EdgeKind.DOTTED,
                            p=dh.wilcoxon.p_two_sided,
                            n=dh.n,
                        )
                    )
                    if solid is not None:
                        annotations.append(
                            f"double-hits ordering {dh.favored_planner}->{dh.other_planner} "
                            f"inverts whole-sample ordering {solid.src}->{solid.dst}"
                        )

    solid_set = {(e.src, e.dst) for e in edges if e.kind is EdgeKind.SOLID}
    annotations.extend(_intransitive_triples(solid_set))

    kind_order = {EdgeKind.SOLID: 0, EdgeKind.DOTTED: 1, EdgeKind.DASHED: 2}
    edges.sort(key=lambda e: (e.src, e.dst, kind_order[e.kind]))
    return PartialOrder(
        level=level,
        measure=measure,
        alpha=alpha,
        nodes=tuple(nodes),
        edges=tuple(edges),
        annotations=tuple(sorted(set(annotations))),
    )


def _intransitive_triples(solid: set[tuple[str, str]]) -> list[str]:
    found = set()
    for a, b in solid:
        for b2, c in solid:
            if b2 != b:
                continue
            if (c, a) in solid:
                cycle = min([(a, b, c), (b, c, a), (c, a, b)])
                found.add(cycle)
    return [f"intransitive solid triple: {a}->{b}->{c}->{a}" for a, b, c in sorted(found)]


def transitive_reduction(order: PartialOrder) -> PartialOrder:
    """Drop Solid edges implied by longer Solid paths (readability only).

    Applied only when the solid subgraph is acyclic; otherwise the order
    is returned unchanged (the anomaly is already annotated).  Dotted and
    dashed edges are always kept.
    """
    solid = {(e.src, e.dst) for e in order.edges if e.kind is EdgeKind.SOLID}
    adjacency: dict[str, set[str]] = {}
    for src, dst in solid:
        adjacency.setdefault(src, set()).add(dst)

    def reachable(start: str, goal: str, skip: tuple[str, str]) -> bool:
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            for nxt in adjacency.get(node, ()):
                if (node, nxt) == skip:
                    continue
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    if any(reachable(src, src, ("", "")) for src in adjacency):
        return order
    kept = []
    for e in order.edges:
        if e.kind is EdgeKind.SOLID and reachable(e.src, e.dst, (e.src, e.dst)):
            continue
        kept.append(e)
    return PartialOrder(
        level=order.level,
        measure=order.measure,
        alpha=order.alpha,
        nodes=order.nodes,
        edges=tuple(kept),
        annotations=order.annotations,
    )


def format_p_label(p: float) -> str:
    """p to three significant figures in compact scientific form, e.g. 5.00e-4."""
    if p == 0.0:
        return "0"
    exponent = math.floor(math.log10(abs(p)))
    mantissa = p / 10.0**exponent
    mantissa = round(mantissa, 2)
    if mantissa >= 10.0:
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.2f}e{exponent}"


def _dot_id(name: str) -> str:
    if name and all(ch.isalnum() or ch == "_" for ch in name) and not name[0].isdigit():
        return name
    escaped = name.replace('"', '\\"')
    return f'"{escaped}"'


def to_dot(order: PartialOrder) -> str:
    """Serialize an order as a DOT digraph (byte-deterministic).

    Edge styles map directly to the edge kinds; labels carry the p-value
    that earned the edge.
    """
    lines = [f'digraph "{order.level.value}_{order.measure.value}" {{']
    for node in order.nodes:
        lines.append(f"  {_dot_id(node)};")
    for e in order.edges:
        lines.append(
            f"  {_dot_id(e.src)} -> {_dot_id(e.dst)} "
            f'[style={e.kind.value}, label="{format_p_label(e.p)}"];'
        )
    for note in order.annotations:
        lines.append(f"  // {note}")
    lines.append("}")
    return "\n".join(lines) + "\n"
