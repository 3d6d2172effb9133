"""Outside-in tracing of the planstats layers.

The tracer wraps the public functions named in WRAPPED by rebinding the
name in every planstats module that holds the same function object, so
calls between modules (``cli`` -> ``compare``, ``scaling`` ->
``judge_ranks``, ``stattests`` -> ``f_cdf``) and within a module go
through the wrapper.  Each call records a span (name, start, end,
parent) in memory; self time is a span's duration minus its children's.
Nothing in the program changes, and ``uninstall`` restores every name.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# layer (module) -> public functions wrapped in that layer
WRAPPED = {
    "cli": ("main",),
    "dataio": ("load_runs", "load_manifest", "validate_dataset"),
    "pairwise": ("build_pairs", "compare", "magnitude"),
    "stattests": ("wilcoxon_matched_pairs", "proportion_test", "paired_t_normalized",
                  "spearman_test", "mrc_test"),
    "ranking": ("rank_ascending",),
    "distributions": ("std_normal_cdf", "two_sided_p_from_z", "student_t_cdf",
                      "two_sided_p_from_t", "f_cdf", "regularized_incomplete_beta"),
    "hardness": ("hardness_table", "bootstrap_distribution", "subject_area", "classify"),
    "agreement": ("agreement_table", "agreement_test", "judge_ranks"),
    "scaling": ("scaling_comparison", "difficulty_ranking"),
    "ordering": ("build_order", "transitive_reduction", "to_dot"),
    "report": ("metadata_lines", "render_compare_text", "comparisons_csv_rows",
               "magnitudes_csv_rows", "csv_text", "render_hardness_text", "hardness_csv_rows",
               "render_agreement_text", "agreement_csv_rows", "render_scaling_text",
               "scaling_csv_rows", "series_csv", "dot_with_metadata"),
}

# Arguments that identify a repeated call; runs and manifest are left out
# because every command of a workload reads the same files.  build_pairs
# also leaves out negate_maximize: magnitude's pairs are compare's
# double-hits pairs without the sign flip.
REPEAT_KEYS = {
    "pairwise.build_pairs": ("a", "b", "level", "measure", "mode", "size_class"),
    "agreement.judge_ranks": ("planner", "domain", "level", "size_class"),
    "hardness.bootstrap_distribution": ("category", "pool_kind", "size_class", "B", "m",
                                        "cutoff_ms", "seed"),
}
# repeats of these count anywhere in one pipeline run, the rest per command
WORKLOAD_SCOPED = {"hardness.bootstrap_distribution"}


class Tracer:
    """Records spans around the wrapped functions of the loaded planstats modules."""

    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []
        self._signatures: dict[str, inspect.Signature] = {}
        self.reset()

    def reset(self) -> None:
        """Start a new pipeline run: clear spans and counters."""
        self.spans: list[tuple[str, float, float, int]] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._seen: dict[str, set] = defaultdict(set)
        self.command = ""

    def begin_command(self, command: str) -> None:
        self.command = command
        for key in list(self._seen):
            if key not in WORKLOAD_SCOPED:
                del self._seen[key]

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "planstats" or name.startswith("planstats.")]
        for layer, names in WRAPPED.items():
            source = sys.modules[f"planstats.{layer}"]
            for name in names:
                original = getattr(source, name)
                key = f"{layer}.{name}"
                if key in REPEAT_KEYS:
                    self._signatures[key] = inspect.signature(original)
                wrapper = self._wrap(key, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, key: str, fn):
        observe = key in OBSERVERS or key in REPEAT_KEYS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self.spans)
            parent = stack[-1] if stack else -1
            self.spans.append((key, 0.0, 0.0, parent))
            self._child.append(0.0)
            stack.append(idx)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.spans[idx] = (key, start, end, parent)
                self.self_s[key] += duration - self._child[idx]
                if parent >= 0:
                    self._child[parent] += duration
                self.calls[key] += 1
                if observe:
                    self._observe(key, parent, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, key, parent, args, kwargs, result, error) -> None:
        if key in REPEAT_KEYS:
            bound = self._signatures[key].bind(*args, **kwargs)
            bound.apply_defaults()
            call = tuple(bound.arguments[n] for n in REPEAT_KEYS[key])
            seen = self._seen[key]
            if call in seen:
                self.counts[key + ".repeats"] += 1
            seen.add(call)
        observer = OBSERVERS.get(key)
        if observer is not None:
            observer(self, parent, args, kwargs, result, error)

    def parent_key(self, parent: int) -> str:
        return self.spans[parent][0] if parent >= 0 else ""


def write_spans(path: Path, runs: list[list[tuple]]) -> None:
    """Write the spans of every traced pipeline run as JSON lines [run, name, start, end, parent]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for run, spans in enumerate(runs):
            for name, start, end, parent in spans:
                fh.write(json.dumps([run, name, start, end, parent]) + "\n")


def _load_runs(tracer, parent, args, kwargs, result, error):
    if error is None:
        tracer.counts["dataio.rows"] += len(result)


def _magnitude(tracer, parent, args, kwargs, result, error):
    if tracer.command == "order":
        tracer.counts["pairwise.magnitudes_discarded"] += 1
    if error is not None:
        tracer.counts["pairwise.magnitude_failed"] += 1


def _rank(tracer, parent, args, kwargs, result, error):
    values = args[0] if args else kwargs["values"]
    tracer.counts["ranking.values_ranked"] += len(values)


def _cdf(tracer, parent, args, kwargs, result, error):
    if not tracer.parent_key(parent).startswith("distributions."):
        tracer.counts["distributions.cdf_calls"] += 1


def _degenerate(field):
    def observer(tracer, parent, args, kwargs, result, error):
        if error is None and math.isinf(getattr(result, field)):
            tracer.counts["stattests.degenerate"] += 1
    return observer


def _bootstrap(tracer, parent, args, kwargs, result, error):
    if error is None:
        tracer.counts["hardness.bootstrap_samples"] += result.B


OBSERVERS = {
    "dataio.load_runs": _load_runs,
    "pairwise.magnitude": _magnitude,
    "ranking.rank_ascending": _rank,
    "stattests.paired_t_normalized": _degenerate("t"),
    "stattests.mrc_test": _degenerate("F"),
    "hardness.bootstrap_distribution": _bootstrap,
    **{f"distributions.{name}": _cdf for name in WRAPPED["distributions"]},
}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run (no untraced figures)."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def layer_s(layer: str) -> float:
        return sum(v for k, v in s.items() if k.startswith(layer + "."))

    bootstrap_s = s["hardness.bootstrap_distribution"]
    return {
        "dataio.self_s": layer_s("dataio"),
        "dataio.load_runs_s": s["dataio.load_runs"],
        "dataio.validate_s": s["dataio.validate_dataset"],
        "dataio.rows": counts["dataio.rows"],
        "dataio.loads": calls["dataio.load_runs"],
        "pairwise.self_s": layer_s("pairwise"),
        "pairwise.build_pairs_s": s["pairwise.build_pairs"],
        "pairwise.build_pairs_calls": calls["pairwise.build_pairs"],
        "pairwise.build_pairs_repeat_share": _share(
            counts["pairwise.build_pairs.repeats"], calls["pairwise.build_pairs"]),
        "pairwise.magnitudes_discarded": counts["pairwise.magnitudes_discarded"],
        "pairwise.magnitude_failed": counts["pairwise.magnitude_failed"],
        "stattests.self_s": layer_s("stattests"),
        "stattests.wilcoxon_s": s["stattests.wilcoxon_matched_pairs"],
        "stattests.paired_t_s": s["stattests.paired_t_normalized"],
        "stattests.spearman_s": s["stattests.spearman_test"],
        "stattests.mrc_s": s["stattests.mrc_test"],
        "stattests.calls": sum(v for k, v in calls.items() if k.startswith("stattests.")),
        "stattests.degenerate": counts["stattests.degenerate"],
        "ranking.rank_s": s["ranking.rank_ascending"],
        "ranking.rank_calls": calls["ranking.rank_ascending"],
        "ranking.values_ranked": counts["ranking.values_ranked"],
        "distributions.cdf_s": layer_s("distributions"),
        "distributions.cdf_calls": counts["distributions.cdf_calls"],
        "hardness.self_s": layer_s("hardness"),
        "hardness.bootstrap_s": bootstrap_s,
        "hardness.bootstrap_calls": calls["hardness.bootstrap_distribution"],
        "hardness.bootstrap_samples": counts["hardness.bootstrap_samples"],
        "hardness.samples_per_s": _share(counts["hardness.bootstrap_samples"], bootstrap_s),
        "hardness.bootstrap_repeat_share": _share(
            counts["hardness.bootstrap_distribution.repeats"],
            calls["hardness.bootstrap_distribution"]),
        "hardness.classify_s": s["hardness.classify"],
        "hardness.subject_area_s": s["hardness.subject_area"],
        "agreement.self_s": layer_s("agreement"),
        "agreement.judge_ranks_s": s["agreement.judge_ranks"],
        "agreement.judge_ranks_calls": calls["agreement.judge_ranks"],
        "agreement.judge_ranks_repeat_share": _share(
            counts["agreement.judge_ranks.repeats"], calls["agreement.judge_ranks"]),
        "scaling.self_s": layer_s("scaling"),
        "scaling.comparison_s": s["scaling.scaling_comparison"],
        "scaling.comparisons": calls["scaling.scaling_comparison"],
        "scaling.difficulty_ranking_calls": calls["scaling.difficulty_ranking"],
        "ordering.self_s": layer_s("ordering"),
        "ordering.build_order_s": s["ordering.build_order"],
        "ordering.to_dot_s": s["ordering.to_dot"],
        "report.render_s": layer_s("report"),
        "cli.self_s": s["cli.main"],
        "cli.commands": calls["cli.main"],
    }


def self_total(tracer: Tracer) -> float:
    """Sum of every span's self time: equals the root spans' total duration."""
    return sum(tracer.self_s.values())
