"""The benchmark's layer tracer names functions that must exist, and a
traced pipeline computes what an untraced one does.

``perfbench/layertrace.py`` wraps every function in its WRAPPED table and
binds the parameters in REPEAT_KEYS by name; a function renamed or removed
in planstats breaks ``perfbench/run.py --trace 1``, and so does a call that
binds an unhashable value to a REPEAT_KEYS parameter.  The tracer is loaded
from its file as it stands.  Run as a script, this file runs the sample
pipeline twice under the tracer in a fresh interpreter and prints what it
saw as JSON.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planstats
from planstats import cli

ROOT = Path(__file__).resolve().parent.parent
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
SAMPLE = ROOT / "data" / "sample"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _load_layertrace()
WRAPPED_NAMES = [
    f"{layer}.{name}" for layer, names in layertrace.WRAPPED.items() for name in names
]


def _function(key):
    layer, name = key.split(".")
    return getattr(importlib.import_module(f"planstats.{layer}"), name, None)


@pytest.mark.parametrize("key", WRAPPED_NAMES)
def test_wrapped_function_exists(key):
    assert callable(_function(key)), f"planstats.{key} is traced but missing"


@pytest.mark.parametrize("key", sorted(layertrace.REPEAT_KEYS))
def test_repeat_keys_name_parameters(key):
    assert key in WRAPPED_NAMES
    parameters = inspect.signature(_function(key)).parameters
    missing = [n for n in layertrace.REPEAT_KEYS[key] if n not in parameters]
    assert not missing, f"planstats.{key} lacks traced parameters {missing}"


# every command of the CLI, on the sample data
PIPELINE = [
    ["validate"],
    ["compare"],
    ["order"],
    ["hardness"],
    ["agreement"],
    ["scaling"],
    ["series", "--domain", "transport", "--level", "strips"],
]


def run_pipeline(out, tracer=None):
    """[exit code or error, {file name: SHA-256}] of each command of PIPELINE."""
    results = []
    for k, argv in enumerate(PIPELINE):
        if tracer is not None:
            tracer.begin_command(argv[0])
        target = out / f"c{k}"
        argv = argv + ["--runs", str(SAMPLE / "runs.csv"),
                       "--manifest", str(SAMPLE / "manifest.json"), "--out", str(target)]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rc = f"{type(exc).__name__}: {exc}"
        files = sorted(target.iterdir()) if target.is_dir() else []
        results.append([rc, {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}])
    return results


def traced_pipelines(out):
    """Two traced runs of PIPELINE: each one's results, calls and counts."""
    tracer = layertrace.Tracer()
    runs = []
    for k in range(2):
        tracer.reset()
        tracer.install()
        try:
            results = run_pipeline(out / f"traced{k}", tracer)
        finally:
            tracer.uninstall()
        runs.append({"results": results, "calls": dict(tracer.calls),
                     "counts": dict(tracer.counts)})
    return runs


def test_traced_pipelines_compute_the_untraced_outputs(tmp_path):
    """Untraced here, then twice traced in a fresh interpreter, so that the
    first traced run starts as the benchmark's does, with no state left
    by earlier calls."""
    plain = run_pipeline(tmp_path / "plain")
    assert [rc for rc, _ in plain] == [0] * len(PIPELINE)
    source = str(Path(planstats.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    first, second = json.loads(done.stdout)
    for traced in (first, second):
        assert [rc for rc, _ in traced["results"]] == [0] * len(PIPELINE)
        assert traced["results"] == plain
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert first["calls"]["cli.main"] == len(PIPELINE)


if __name__ == "__main__":
    print(json.dumps(traced_pipelines(Path(sys.argv[1]))))
