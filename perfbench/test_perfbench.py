"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gridgen
import layertrace
import run

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _grid_bytes(seed: int, out: Path) -> bytes:
    runs, manifest = gridgen.write_grid(seed, out, gridgen.SHAPE)
    return runs.read_bytes() + manifest.read_bytes()


def test_generator_same_seed_same_bytes(tmp_path):
    first = _grid_bytes(7, tmp_path / "a")
    assert first == _grid_bytes(7, tmp_path / "b")
    assert first != _grid_bytes(8, tmp_path / "c")


def test_generator_grid_is_valid_for_the_program(tmp_path):
    cli, dataio, _ = run.import_program()
    runs, manifest = gridgen.write_grid(3, tmp_path, gridgen.SHAPE)
    records = dataio.load_runs(runs)
    diagnostics = dataio.validate_dataset(records, dataio.load_manifest(manifest))
    assert not [d for d in diagnostics if d.severity == "error"]
    assert 1800 < len(records) < 2000


def test_traced_run_leaves_outputs_unchanged(tmp_path):
    cli, _, _ = run.import_program()
    sample = ROOT / "data" / "sample"
    argvs = [["compare"], ["order", "--cross"], ["agreement"],
             ["series", "--domain", "transport", "--level", "strips"]]
    base = ["--runs", str(sample / "runs.csv"), "--manifest", str(sample / "manifest.json")]
    pipeline = run.Pipeline(cli, argvs, base, tmp_path)
    plain = pipeline.run()
    original = cli.compare
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = pipeline.run(tracer)
    finally:
        tracer.uninstall()
    assert cli.compare is original
    assert all(c.rc == 0 for c in plain.commands + traced.commands)
    assert [c.digests for c in traced.commands] == [c.digests for c in plain.commands]
    assert abs(layertrace.self_total(tracer) - traced.seconds) < 0.01 * traced.seconds + 0.002
    layers = layertrace.layer_metrics(tracer)
    assert layers["cli.commands"] == len(argvs)
    assert layers["pairwise.build_pairs_calls"] > 0
    assert layers["agreement.judge_ranks_calls"] > 0


def _result(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result("ipc-scaling", trace)
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ipc-pairwise", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
