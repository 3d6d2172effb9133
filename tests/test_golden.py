"""Byte-identity of the full pipeline's outputs on the sample dataset.

``scripts/run_full_analysis.py`` is loaded from its file and run in-process
on ``data/sample/`` at the default seed, once per category.  Every file it
writes must match, by name and SHA-256, the digests recorded in
``golden/sample_digests.json``.  A change that alters an output on purpose
says so and records the digests again, from the repository root::

    PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'tests'); \\
    import test_golden as g; print(json.dumps(g.regenerate(), indent=1, sort_keys=True))" \\
    > tests/golden/sample_digests.json
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
SAMPLE = ROOT / "data" / "sample"
DIGESTS = Path(__file__).resolve().parent / "golden" / "sample_digests.json"
CATEGORIES = ("auto", "hand")


def _load_script():
    spec = importlib.util.spec_from_file_location("_run_full_analysis_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output_digests(category: str, out_dir: Path) -> dict[str, str]:
    """Run the full analysis for one category into ``out_dir``; name -> SHA-256."""
    argv = ["run_full_analysis.py", "--runs", str(SAMPLE / "runs.csv"),
            "--manifest", str(SAMPLE / "manifest.json"),
            "--out", str(out_dir), "--category", category]
    saved, sys.argv = sys.argv, argv
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert _load_script().main() == 0
    finally:
        sys.argv = saved
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def regenerate() -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        return {c: output_digests(c, Path(tmp) / c) for c in CATEGORIES}


@pytest.mark.parametrize("category", CATEGORIES)
def test_full_analysis_matches_golden_digests(category, tmp_path):
    expected = json.loads(DIGESTS.read_text())[category]
    got = output_digests(category, tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"outputs differ from the golden digests: {changed}"
