"""The benchmark's layer tracer names functions that must exist.

``perfbench/layertrace.py`` wraps every function in its WRAPPED table and
binds the parameters in REPEAT_KEYS by name; a function renamed or removed
in planstats breaks ``perfbench/run.py --trace 1``.  The tracer is loaded
from its file as it stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


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
