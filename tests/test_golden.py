"""Byte-identity of the full pipeline's outputs on two datasets.

``scripts/run_full_analysis.py`` is loaded from its file and run in-process
at the default seed, once per category, on each dataset:

- ``data/sample/``, pinned in ``golden/sample_digests.json``;
- a grid made by ``perfbench/gridgen.py`` (loaded from its file, read-only)
  in the paper's shape: all six levels, fully-automated and hand-coded
  planners, large sets, and maximize sets beside minimize ones at every
  level but strips, pinned in ``golden/grid_digests.json``.

Every file the script writes must match, by name and SHA-256, the recorded
digests.  A change that alters an output on purpose says so and records
both files again, from the repository root::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
    import test_golden; test_golden.regenerate()"
"""

import contextlib
import hashlib
import io
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_full_analysis.py"
GRIDGEN = ROOT / "perfbench" / "gridgen.py"
SAMPLE = ROOT / "data" / "sample"
GOLDEN = Path(__file__).resolve().parent / "golden"
CATEGORIES = ("auto", "hand")
DATASETS = ("sample", "grid")
GRID_SEED = 1


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grid_shape(gridgen) -> dict:
    """All six levels, 4 fully-automated and 3 hand-coded planners, 3
    domains with small sets of 10-12 problems and large sets of 12; the
    second domain maximizes at every level but strips."""
    shape = gridgen.SHAPE
    return {**shape, "auto_planners": shape["auto_planners"][:4],
            "domains": shape["domains"][:3],
            "levels": ["strips", "numeric", "hardnumeric", "simpletime", "time", "complex"],
            "small_sizes": [10, 11, 12], "large_size": 12, "maximize_every": 2}


def dataset_paths(dataset: str, work_dir: Path) -> tuple[Path, Path]:
    """The runs CSV and manifest of a dataset; the grid is written into ``work_dir``."""
    if dataset == "sample":
        return SAMPLE / "runs.csv", SAMPLE / "manifest.json"
    gridgen = _load("_gridgen_under_test", GRIDGEN)
    return gridgen.write_grid(GRID_SEED, work_dir, grid_shape(gridgen))


def output_digests(runs: Path, manifest: Path, category: str, out_dir: Path) -> dict[str, str]:
    """Run the full analysis for one category into ``out_dir``; name -> SHA-256."""
    argv = ["run_full_analysis.py", "--runs", str(runs), "--manifest", str(manifest),
            "--out", str(out_dir), "--category", category]
    saved, sys.argv = sys.argv, argv
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert _load("_run_full_analysis_under_test", SCRIPT).main() == 0
    finally:
        sys.argv = saved
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def regenerate() -> None:
    """Record every dataset's digests again, in ``golden/<dataset>_digests.json``."""
    for dataset in DATASETS:
        with tempfile.TemporaryDirectory() as tmp:
            runs, manifest = dataset_paths(dataset, Path(tmp) / "data")
            digests = {c: output_digests(runs, manifest, c, Path(tmp) / c) for c in CATEGORIES}
        text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{dataset}_digests.json").write_text(text, encoding="utf-8")


def _check(dataset: str, runs: Path, manifest: Path, category: str, out_dir: Path) -> None:
    expected = json.loads((GOLDEN / f"{dataset}_digests.json").read_text())[category]
    got = output_digests(runs, manifest, category, out_dir)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    return dataset_paths("grid", tmp_path_factory.mktemp("grid"))


@pytest.mark.parametrize("category", CATEGORIES)
def test_full_analysis_matches_golden_digests(category, tmp_path):
    _check("sample", *dataset_paths("sample", tmp_path), category, tmp_path)


@pytest.mark.parametrize("category", CATEGORIES)
def test_grid_analysis_matches_golden_digests(category, grid, tmp_path):
    _check("grid", *grid, category, tmp_path)
