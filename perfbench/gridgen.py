"""Deterministic synthetic competition grid for the benchmark.

Writes a runs CSV and a manifest JSON shaped like an IPC result set:
fully-automated and hand-coded planners over several domains at the
strips and numeric levels, small problem sets of 16-19 problems, and
20-problem large sets that only hand-coded planners attempt.

Every value is a pure function of (seed, planner, domain, level, size,
problem) computed with the 64-bit integer mixer below, so a seed gives
byte-identical files on any Python or numpy version, and a cell's value
does not depend on the order in which cells are written.
"""

from __future__ import annotations

import json
from pathlib import Path

RUNS_HEADER = "planner,domain,level,problem,solved,time_ms,metric_value,seq_length,conc_length"

# A workload's grid shape is fixed; the seed only moves values, unsolved
# cells and unattempted cells, so the amount of work per command barely
# depends on it.  SHAPE has about 1.9k rows: every command lasts under a
# second, so a run repeats it often enough for its fastest repeat to hold
# steady on a noisy host.
SHAPE = {
    "auto_planners": ["alder", "birch", "cedar", "dogwood", "elm", "fir", "ginkgo", "hazel"],
    "hand_planners": ["lark", "mole", "newt"],
    "domains": ["airport", "depots", "driverlog", "pipes"],
    "levels": ["strips", "numeric"],
    "small_sizes": [16, 17, 18, 19],
    "large_size": 20,
    # every third non-strips domain maximizes its metric
    "maximize_every": 3,
    "unattempted_permille": 50,
    # P(unsolved) for problem i of n is this * (i + 1) / n * planner factor
    "unsolved_permille_at_end": 300,
}
# 6 fully-automated planners and 3 domains, about 1.2k rows: under the same
# host noise, compare and order on SHAPE spread twice as much as on this.
SMALL_SHAPE = {**SHAPE, "auto_planners": SHAPE["auto_planners"][:6],
               "domains": SHAPE["domains"][:3], "small_sizes": SHAPE["small_sizes"][:3]}

_MASK = (1 << 64) - 1

# stream tags, one per independent decision about a cell
_ATTEMPT, _SOLVE, _TIME, _SEQ, _CONC, _METRIC, _SPEED, _FAIL_RATE = range(8)


def _mix(x: int) -> int:
    """splitmix64 finalizer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _below(n: int, seed: int, *coords: int) -> int:
    """Integer in [0, n) keyed by the seed and the cell coordinates."""
    h = _mix(seed & _MASK)
    for c in coords:
        h = _mix(h ^ c)
    return h % n


def _problem_sets(shape: dict) -> list[dict]:
    sets = []
    for d, domain in enumerate(shape["domains"]):
        for level in shape["levels"]:
            maximize = level != "strips" and d % shape["maximize_every"] == shape["maximize_every"] - 1
            for size, n, prefix in (("small", shape["small_sizes"][d], "p"),
                                    ("large", shape["large_size"], "q")):
                sets.append({
                    "domain": domain,
                    "level": level,
                    "size_class": size,
                    "quality_direction": "maximize" if maximize else "minimize",
                    "problems": [f"{prefix}{i:02d}" for i in range(1, n + 1)],
                })
    return sets


def manifest(shape: dict) -> dict:
    planners = [{"name": name, "category": "fully-automated", "levels": shape["levels"]}
                for name in shape["auto_planners"]]
    planners += [{"name": name, "category": "hand-coded", "levels": shape["levels"]}
                 for name in shape["hand_planners"]]
    return {"planners": planners, "problem_sets": _problem_sets(shape)}


def run_rows(seed: int, shape: dict) -> list[str]:
    """CSV lines (without header) of every attempted cell."""
    auto = shape["auto_planners"]
    names = auto + shape["hand_planners"]
    lines = []
    for p, planner in enumerate(names):
        hand = p >= len(auto)
        # speed factor in per mille: hand-coded planners are faster
        speed = (300 if hand else 800) + _below(1500, seed, _SPEED, p)
        fail_rate = 600 + _below(801, seed, _FAIL_RATE, p)
        for ps in _problem_sets(shape):
            large = ps["size_class"] == "large"
            if large and not hand:
                continue
            level = ps["level"]
            d = shape["domains"].index(ps["domain"])
            n = len(ps["problems"])
            domain_factor = 700 + 60 * d
            for i, problem in enumerate(ps["problems"]):
                cell = (p, d, shape["levels"].index(level), int(large), i)
                if _below(1000, seed, _ATTEMPT, *cell) < shape["unattempted_permille"]:
                    continue
                p_unsolved = shape["unsolved_permille_at_end"] * (i + 1) * fail_rate // (n * 1000)
                if _below(1000, seed, _SOLVE, *cell) < p_unsolved:
                    lines.append(f"{planner},{ps['domain']},{level},{problem},0,,,,")
                    continue
                j = i + (8 if large else 0)
                base = 50 * 5**j // 4**j
                noise = 700 + _below(601, seed, _TIME, *cell)
                time_ms = max(1, base * speed * domain_factor * noise // 10**9)
                if level == "strips":
                    seq = 10 + 3 * j + p % 5 + _below(5 + j, seed, _SEQ, *cell)
                    conc = seq - _below(seq // 2 + 1, seed, _CONC, *cell)
                    lines.append(f"{planner},{ps['domain']},{level},{problem},1,{time_ms},,{seq},{conc}")
                else:
                    quarters = 400 + 28 * j + 4 * (p % 7) + _below(80, seed, _METRIC, *cell)
                    metric = repr(quarters / 4)
                    lines.append(f"{planner},{ps['domain']},{level},{problem},1,{time_ms},{metric},,")
    return lines


def write_grid(seed: int, out: Path, shape: dict) -> tuple[Path, Path]:
    """Write runs.csv, manifest.json and grid.json (shape and seed) into ``out``.

    Only the first two are inputs of the program; grid.json records what
    was generated.
    """
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / "runs.csv"
    manifest_path = out / "manifest.json"
    rows = run_rows(seed, shape)
    runs_path.write_text("\n".join([RUNS_HEADER] + rows) + "\n", encoding="utf-8")
    manifest_path.write_text(json.dumps(manifest(shape), indent=1) + "\n", encoding="utf-8")
    grid = {"seed": seed, "rows": len(rows), "shape": shape}
    (out / "grid.json").write_text(json.dumps(grid, indent=1) + "\n", encoding="utf-8")
    return runs_path, manifest_path

