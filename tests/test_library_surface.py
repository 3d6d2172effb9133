"""No dead code in the library, and README's Library example imports only
what the package exports.

A public top-level function or class of ``src/planstats/`` must be
exported by ``planstats/__init__.py``, wrapped by the benchmark's layer
tracer (``perfbench/layertrace.py``'s WRAPPED), or referred to by name
somewhere in ``src/``, ``scripts/`` or ``perfbench/``.  A public method
or property of a class there must be read as an attribute by code in
``src/``; ``scripts/`` and ``perfbench/`` are not counted, as their
``pathlib`` calls would hide a method such as ``resolve``.  ``KEPT`` names
the exceptions.  A module of ``src/planstats/`` other than
``__init__.py`` must use every name it imports, unless the import line is
marked ``# noqa: F401``.  The modules are read with ``ast``; nothing is
imported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planstats"
# module.name or module.Class.name -> why it stays unused
KEPT = {
    "hardness.percentile_of": "README documents it as a one-row call",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported() -> set[str]:
    """The names ``planstats/__init__.py`` imports."""
    return {alias.asname or alias.name for node in ast.walk(_tree(PACKAGE / "__init__.py"))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def wrapped() -> set[str]:
    """module.name of every function the layer tracer wraps."""
    for node in _tree(ROOT / "perfbench" / "layertrace.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            table = ast.literal_eval(node.value)
            return {f"{layer}.{name}" for layer, names in table.items() for name in names}
    raise AssertionError("perfbench/layertrace.py defines no WRAPPED")


def referenced() -> set[str]:
    """Every name code in src/, scripts/ and perfbench/ loads, reads as an
    attribute or imports; a definition is not a reference."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def src_attributes() -> set[str]:
    """Every attribute name code in src/ reads."""
    return {node.attr for path in (ROOT / "src").rglob("*.py")
            for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)}


def unused_methods() -> set[str]:
    """module.Class.name of each public method or property of a class in
    src/planstats/ that no code in src/ reads as an attribute."""
    used = src_attributes()
    return {f"{path.stem}.{cls.name}.{node.name}"
            for path in PACKAGE.glob("*.py") for cls in _tree(path).body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in used}


def unused() -> set[str]:
    """module.name of each public top-level function or class with none of
    the three uses."""
    used = exported() | referenced()
    traced = wrapped()
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in _tree(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in used
                    and f"{path.stem}.{node.name}" not in traced):
                out.add(f"{path.stem}.{node.name}")
    return out


def unused_imports() -> set[str]:
    """module.name of each name a module of src/planstats/, other than
    __init__.py, imports and never loads, leaving out __future__ imports
    and import lines marked ``# noqa: F401``."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = _tree(path)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded and "# noqa: F401" not in lines[alias.lineno - 1]:
                        out.add(f"{path.stem}.{name}")
    return out


def test_every_public_definition_is_used():
    assert unused() == {name for name in KEPT if name.count(".") == 1}


def test_every_public_method_is_used():
    assert unused_methods() == {name for name in KEPT if name.count(".") == 2}


def test_every_import_is_used():
    assert unused_imports() == set()


def test_readme_library_example_imports_exported_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [node for node in ast.walk(ast.parse(example))
               if isinstance(node, ast.ImportFrom) and node.module == "planstats"]
    names = {alias.name for node in imports for alias in node.names}
    assert names
    assert names <= exported()
