#!/usr/bin/env python3
"""planstats benchmark: run one workload's CLI commands in-process and time them.

    python3 perfbench/run.py --workload ipc-pairwise --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``;
the inputs are a competition grid generated from ``--seed`` (gridgen.py).
Every command goes through ``planstats.cli.main`` in this process, one
thread, default ``--workers``.  The whole command list repeats until
another repeat would pass ``--seconds``, and every output file is hashed
and checked.  A fixed pure-Python reference loop runs between commands;
the end-to-end times are a command's total time over the run divided by
the total time of the loops run around it, in units of REF_SECONDS.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced pipelines alternate and the last line
reports the per-layer metrics (see layertrace.py).  Spans of the traced
pipelines are written to .bench_work/spans/.  ``--record`` stores the
output digests of the default seed in digests.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))

import gridgen  # noqa: E402
import layertrace  # noqa: E402

# workload -> (grid shape, planstats config lines, planstats argv lists);
# --runs, --manifest, --config, --out and --seed are appended.  Why each
# workload exists: README.md.
WORKLOADS = {
    "ipc-pairwise": (gridgen.SMALL_SHAPE, (), (
        ["validate"], ["compare"], ["order"], ["agreement"], ["compare", "--category", "hand"],
        ["series", "--domain", "airport", "--level", "strips", "--measure", "seq"])),
    "ipc-scaling": (gridgen.SHAPE, ("bootstrap_B=2000",), (["hardness"], ["scaling"])),
}
# digests.json records every output file's SHA-256 at this seed
DEFAULT_SEED = 1
# set-ups timed before each pipeline
SETUP_SAMPLES = 5
# The end-to-end times are in seconds of a host on which reference_loop()
# takes this long; on the Xeon host of README.md the loop's fastest time in
# a run is 4.2-5.4 ms.  Host speed moves command and loop times alike.
REF_ITERATIONS = 50_000
REF_SECONDS = 0.005
# per-command untraced times reported by the traced run
COMMANDS = ("validate", "compare", "order", "hardness", "agreement", "scaling", "series")


def import_program():
    """Import planstats from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "planstats" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no planstats sources under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import planstats.cli
    import planstats.dataio

    if Path(planstats.cli.__file__).resolve().parent != src / "planstats":
        raise SystemExit(f"benchmark: imported planstats from {planstats.cli.__file__}")
    return planstats.cli, planstats.dataio, numpy


def reference_loop() -> float:
    """Time of a fixed pure-Python loop, the measure of the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def machine_facts(numpy) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def file_digests(directory: Path) -> dict[str, tuple[str, int]]:
    """name -> (SHA-256, size) of every file a command wrote."""
    if not directory.is_dir():
        return {}
    return {p.name: (hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_size)
            for p in sorted(directory.iterdir())}


@dataclass
class CommandRun:
    argv: list[str]
    seconds: float
    # mean time of the reference loops run just before and just after the command
    ref_s: float
    rc: object
    error: str | None
    files: dict[str, tuple[str, int]]

    @property
    def digests(self) -> dict[str, str]:
        return {name: sha for name, (sha, _) in self.files.items()}


@dataclass
class PipelineRun:
    seconds: float
    commands: list[CommandRun]


class Pipeline:
    """One workload's command list over one set of input files."""

    def __init__(self, cli, argvs: list[list[str]], base: list[str], out: Path):
        self.cli = cli
        self.argvs = argvs
        self.base = base
        self.out = out
        self.count = 0

    def run(self, tracer: layertrace.Tracer | None = None) -> PipelineRun:
        out = self.out / f"run{self.count}"
        self.count += 1
        timings = []
        gc.collect()
        ref_before = reference_loop()
        for k, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.begin_command(argv[0])
            sink = io.StringIO()
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    # looked up on each call so that the tracer's wrapper is used
                    rc = self.cli.main(argv + self.base + ["--out", str(out / f"c{k:02d}")])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            ref_after = reference_loop()
            timings.append((seconds, (ref_before + ref_after) / 2, rc, error))
            ref_before = ref_after
        commands = [CommandRun(argv, *timing, file_digests(out / f"c{k:02d}"))
                    for k, (argv, timing) in enumerate(zip(self.argvs, timings))]
        shutil.rmtree(out, ignore_errors=True)
        return PipelineRun(sum(c.seconds for c in commands), commands)


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


class Checker:
    """Counts failed commands: a crash, a non-zero exit, or outputs that differ
    from the first pipeline of the run or from the digests recorded for this seed."""

    def __init__(self, workload: str, seed: int, argvs: list[list[str]]):
        self.argvs = argvs
        self.reference: list[dict[str, str]] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        recorded = load_digests().get(workload)
        if recorded and [c["argv"] for c in recorded["commands"]] != [" ".join(a) for a in argvs]:
            self.problems.append("digests.json records another command list; rerun with --record")
            recorded = None
        self.recorded = recorded["commands"] if recorded and recorded["seed"] == seed else None
        self.names = [set(c["files"]) for c in recorded["commands"]] if recorded else []

    def check(self, run: PipelineRun) -> None:
        if self.reference is None:
            self.reference = [c.digests for c in run.commands]
        for k, c in enumerate(run.commands):
            self.attempted += 1
            why = None
            if c.error is not None or c.rc != 0:
                why = c.error or f"exit code {c.rc}"
            elif c.digests != self.reference[k]:
                why = "outputs differ between pipelines of one run"
            elif self.recorded is not None and c.digests != self.recorded[k]["files"]:
                why = "outputs differ from the recorded digests"
            elif self.names and set(c.digests) != self.names[k]:
                why = "output file names differ from the recorded ones"
            if why is not None:
                self.failed += 1
                self.problems.append(f"{' '.join(c.argv)}: {why}")

    def combined_digest(self) -> str:
        digest = hashlib.sha256()
        for k, files in enumerate(self.reference or []):
            for name, sha in sorted(files.items()):
                digest.update(f"{k} {name} {sha}\n".encode())
        return digest.hexdigest()


def time_setups(dataio, runs: Path, manifest: Path) -> list[tuple[float, float]]:
    """(seconds, mean reference loop time around it) of several loads and
    validations of the inputs, the set-up every command pays before its analysis."""
    samples = []
    ref_before = reference_loop()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        records = dataio.load_runs(runs)
        dataio.validate_dataset(records, dataio.load_manifest(manifest))
        seconds = time.perf_counter() - start
        ref_after = reference_loop()
        samples.append((seconds, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return samples


def normalized(samples: list[tuple[float, float]]) -> float:
    """Mean time of (seconds, reference loop time) samples in units of REF_SECONDS.

    A ratio of sums, not a median of ratios: one loop of a few milliseconds
    gauges the host's speed during a longer command only roughly, and the
    sums average that error out.
    """
    return REF_SECONDS * sum(t for t, _ in samples) / sum(ref for _, ref in samples)


def fastest(runs: list[PipelineRun]) -> list[float]:
    """Each command's fastest time over the pipelines of a run."""
    return [min(r.commands[k].seconds for r in runs) for k in range(len(runs[0].commands))]


def time_left(start: float, rounds: list[float], seconds: float) -> bool:
    """Whether another round as slow as the slowest so far ends within ``seconds``."""
    return time.perf_counter() - start + max(rounds) <= seconds


def run_untraced(pipeline, checker, dataio, inputs, seconds) -> dict:
    start = time.perf_counter()
    setup, runs, rounds = [], [], []
    while not rounds or time_left(start, rounds, seconds):
        began = time.perf_counter()
        setup.extend(time_setups(dataio, *inputs))
        runs.append(pipeline.run())
        checker.check(runs[-1])
        rounds.append(time.perf_counter() - began)
    refs = [c.ref_s for r in runs for c in r.commands]
    print(f"pipelines: {len(runs)}; reference loop median {statistics.median(refs):.6f} s, "
          f"fastest {min(refs):.6f} s")
    print("fastest command times, wall clock (s): " + json.dumps(
        {" ".join(argv): t for argv, t in zip(pipeline.argvs, fastest(runs))}))
    return {
        "pipeline_s": (sum(normalized([(r.commands[k].seconds, r.commands[k].ref_s)
                                       for r in runs])
                           for k in range(len(pipeline.argvs))), "s"),
        "setup_s": (normalized(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }


def run_traced(pipeline, checker, seconds, spans_path: Path) -> dict:
    tracer = layertrace.Tracer()
    start = time.perf_counter()
    plain, traced, layers, spans, rounds = [], [], [], [], []
    while not rounds or time_left(start, rounds, seconds):
        began = time.perf_counter()
        plain.append(pipeline.run())
        checker.check(plain[-1])
        tracer.reset()
        tracer.install()
        try:
            traced.append(pipeline.run(tracer))
        finally:
            tracer.uninstall()
        checker.check(traced[-1])
        spans.append(tracer.spans)
        total = layertrace.self_total(tracer)
        if abs(total - traced[-1].seconds) > 0.01 * traced[-1].seconds + 0.002:
            checker.problems.append(
                f"layer self times sum to {total:.4f} s, traced pipeline took {traced[-1].seconds:.4f} s")
        layers.append(layertrace.layer_metrics(tracer))
        rounds.append(time.perf_counter() - began)
    layertrace.write_spans(spans_path, spans)

    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name.endswith("_per_s"):
            metrics[name] = max(values)
        elif name.endswith("_s"):
            metrics[name] = min(values)
        else:
            if len(set(values)) != 1:
                checker.problems.append(f"count {name} differs between pipelines: {values}")
            metrics[name] = values[0]
    metrics["report.output_files"] = sum(len(c.files) for c in traced[0].commands)
    metrics["report.output_bytes"] = sum(size for c in traced[0].commands
                                         for _, size in c.files.values())
    metrics["trace.overhead_s"] = sum(fastest(traced)) - sum(fastest(plain))
    best = fastest(plain)
    for command in COMMANDS:
        metrics[f"cli.{command}_s"] = sum(
            t for argv, t in zip(pipeline.argvs, best) if argv[0] == command)
    print(f"pipelines: {len(plain)} untraced, {len(traced)} traced; spans in {spans_path}")
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def record_digests(workload: str, seed: int, checker: Checker) -> None:
    doc = load_digests()
    doc[workload] = {
        "seed": seed,
        "commands": [{"argv": " ".join(argv), "files": files}
                     for argv, files in zip(checker.argvs, checker.reference)],
    }
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests in digests.json")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    cli, dataio, numpy = import_program()
    facts = machine_facts(numpy)
    facts["ref_loop_before_s"] = statistics.median(reference_loop() for _ in range(5))

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        shape, config, commands = WORKLOADS[args.workload]
        runs, manifest = gridgen.write_grid(args.seed, work / "grid", shape)
        config_path = work / "grid" / "planstats.conf"
        config_path.write_text("".join(line + "\n" for line in config), encoding="utf-8")
        argvs = [list(argv) for argv in commands]
        base = ["--runs", str(runs), "--manifest", str(manifest), "--config", str(config_path),
                "--seed", str(args.seed)]
        pipeline = Pipeline(cli, argvs, base, work / "out")
        checker = Checker(args.workload, args.seed, argvs)
        if args.trace:
            spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics = run_traced(pipeline, checker, args.seconds, spans_path)
        else:
            metrics = run_untraced(pipeline, checker, dataio, (runs, manifest), args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["ref_loop_after_s"] = statistics.median(reference_loop() for _ in range(5))

    if args.record:
        record_digests(args.workload, args.seed, checker)
    print("machine: " + json.dumps(facts))
    print("workload: " + json.dumps({
        "name": args.workload, "seed": args.seed, "grid": shape, "config": config,
        "commands": [" ".join(a) for a in argvs]}))
    checked = "recorded digests" if checker.recorded is not None else "no recorded digests"
    print(f"outputs_sha256: {checker.combined_digest()} ({checked} for seed {args.seed})")
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
