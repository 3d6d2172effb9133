"""scripts/bench_pairs.py names the program it measured by git's hash of the
committed src/ tree, so it refuses a checkout whose src/ differs from it,
prints every end-to-end metric of each run as the runs go, and applies the
gain rule to each metric's pairs."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def load_script():
    spec = importlib.util.spec_from_file_location("_bench_pairs_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
                           *args], cwd=checkout, capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.fixture()
def checkout(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "program.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("a\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "program")
    return tmp_path


def test_clean_checkout_is_named_by_its_src_tree(checkout):
    bench_pairs = load_script()
    assert bench_pairs.src_tree(checkout) == git(checkout, "rev-parse", "HEAD:src")
    # edits outside src/ leave the measured program as it is
    (checkout / "notes.txt").write_text("b\n")
    assert bench_pairs.src_tree(checkout) == git(checkout, "rev-parse", "HEAD:src")


@pytest.mark.parametrize("edit", ["modified", "added"])
def test_uncommitted_src_edit_is_refused(checkout, edit):
    if edit == "modified":
        (checkout / "src" / "program.py").write_text("x = 2\n")
    else:
        (checkout / "src" / "extra.py").write_text("y = 1\n")
    with pytest.raises(SystemExit, match="uncommitted changes under src/"):
        load_script().src_tree(checkout)


def test_checkout_without_git_has_no_tree(tmp_path, monkeypatch):
    # keep git from finding a repository above the temporary directory
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    (tmp_path / "src").mkdir()
    assert load_script().src_tree(tmp_path) is None


def test_progress_line_prints_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    benchmark = {"end_to_end": [{"name": "pipeline_s", "better": "lower"},
                                {"name": "setup_s", "better": "lower"},
                                {"name": "ok_share", "better": "higher"}]}
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    for checkout in checkouts.values():
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps(benchmark))
    bench_pairs = load_script()

    def run_once(checkout, workload, seed, seconds):
        setup = 0.004 if checkout == checkouts["change"] else 0.006
        metrics = {"pipeline_s": 0.03, "setup_s": setup, "ok_share": 1.0}
        return {"correct": True,
                "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}, []

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(checkouts["parent"]),
                             "--change", str(checkouts["change"]), "--workload", "w",
                             "--seconds", "1", "--seeds", "3", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "pair 0 seed 3 parent: pipeline_s 0.03 setup_s 0.006 ok_share 1.0 correct True",
        "pair 0 seed 3 change: pipeline_s 0.03 setup_s 0.004 ok_share 1.0 correct True",
    ]
    summary = json.loads(out.read_text())["summary"]["3"]["metrics"]
    assert summary["setup_s"]["change_better_pairs"] == 1


def run_pairs(tmp_path, monkeypatch, pipeline_s):
    """Summary of stubbed pairs whose pipeline_s are ``pipeline_s[side]``,
    one value per pair."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    benchmark = {"end_to_end": [{"name": "pipeline_s", "better": "lower"},
                                {"name": "ok_share", "better": "higher"}]}
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    for checkout in checkouts.values():
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps(benchmark))
    bench_pairs = load_script()
    calls = {side: 0 for side in checkouts}

    def run_once(checkout, workload, seed, seconds):
        side = "change" if checkout == checkouts["change"] else "parent"
        value = pipeline_s[side][calls[side]]
        calls[side] += 1
        metrics = {"pipeline_s": value, "ok_share": 1.0}
        return {"correct": True,
                "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}, []

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    seeds = ["1"] * len(pipeline_s["parent"])
    assert bench_pairs.main(["--parent", str(checkouts["parent"]),
                             "--change", str(checkouts["change"]), "--workload", "w",
                             "--seconds", "1", "--seeds", *seeds, "--out", str(out)]) == 0
    return json.loads(out.read_text())["summary"]["1"]["metrics"]


def test_gain_rule_met(tmp_path, monkeypatch):
    parent = [0.030, 0.031, 0.030, 0.032, 0.031, 0.030, 0.031, 0.030, 0.031, 0.026]
    # better in 9 of 10 pairs, by far more than the parent's IQR
    change = [0.028, 0.029, 0.028, 0.029, 0.028, 0.028, 0.029, 0.028, 0.029, 0.027]
    summary = run_pairs(tmp_path, monkeypatch, {"parent": parent, "change": change})
    pipeline = summary["pipeline_s"]
    assert pipeline["change_better_pairs"] == 9
    assert pipeline["parent_iqr"] == pytest.approx(0.001)
    assert pipeline["median_change"] == pytest.approx((0.028 - 0.0305) / 0.0305)
    assert pipeline["better_by_rule"] is True
    # equal in every pair: no pair won, no gain
    assert summary["ok_share"]["change_better_pairs"] == 0
    assert summary["ok_share"]["median_change"] == 0
    assert summary["ok_share"]["better_by_rule"] is False


def test_gain_rule_falls_short_of_the_iqr(tmp_path, monkeypatch):
    parent = [0.030, 0.036, 0.030, 0.036, 0.031, 0.035, 0.031, 0.035, 0.033, 0.033]
    # better in every pair, but the medians differ by less than the parent's IQR
    change = [value - 0.0005 for value in parent]
    pipeline = run_pairs(tmp_path, monkeypatch, {"parent": parent, "change": change})["pipeline_s"]
    assert pipeline["change_better_pairs"] == 10
    assert pipeline["parent_iqr"] > 0.0005
    assert pipeline["better_by_rule"] is False
