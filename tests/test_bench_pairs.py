"""scripts/bench_pairs.py names the program it measured by git's hash of the
committed src/ tree, so it refuses a checkout whose src/ differs from it."""

import importlib.util
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
