"""The `redsem` namespace is the list in the README's Library section."""

import ast
import importlib
import os
import re
import types

import redsem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as f:
        return f.read()


def library_section():
    return read("README.md").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def readme_names():
    """The backquoted names of the Library section's bullet list."""
    (names,) = [
        block for block in library_section().split("\n\n") if block.startswith("- ")
    ]
    return re.findall(r"`(\w+)`", names)


def readme_example():
    return library_section().split("```python\n", 1)[1].split("```", 1)[0]


def names_read_from_redsem(source):
    """Names `source` takes from `redsem`: `from redsem import x` and
    `redsem.x` after `import redsem`, also in the code of a child process
    that `source` holds as a string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "redsem":
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and "import redsem\n" in str(node.value):
            names |= names_read_from_redsem(node.value)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "redsem"
        ):
            names.add(node.attr)
    return names


def resolves(name):
    if name in redsem.__all__ or name.startswith("__"):
        return True
    try:  # `redsem.matching` after `import redsem.matching`
        importlib.import_module(f"redsem.{name}")
    except ImportError:
        return False
    return True


def test_all_is_the_readme_list():
    names = readme_names()
    assert len(names) == len(set(names))
    assert sorted(redsem.__all__) == sorted(names)


def test_no_module_is_exported():
    for name in redsem.__all__:
        assert not isinstance(getattr(redsem, name), types.ModuleType), name


def test_benchmark_and_readme_imports_resolve():
    sources = {
        "bench/genterms.py": read("bench", "genterms.py"),
        "bench/run.py": read("bench", "run.py"),
        "README example": readme_example(),
    }
    for where, source in sources.items():
        names = names_read_from_redsem(source)
        assert names, where
        missing = sorted(n for n in names if not resolves(n))
        assert not missing, f"{where}: {missing}"


def test_the_layout_table_names_every_module():
    section = read("README.md").split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = re.findall(r"`redsem\.(\w+)`", "".join(row.split(" | ")[0] for row in rows))
    modules = [
        name[:-3]
        for name in os.listdir(os.path.dirname(redsem.__file__))
        if name.endswith(".py") and name != "__init__.py"
    ]
    assert sorted(named) == sorted(modules)


def test_the_runtime_order_check_is_gone():
    # `matching.child` builds every edge from the fact of its rule, so the
    # check that compared each edge with that fact, and its public error,
    # were deleted
    import redsem.matching

    for name in ("MeasureViolationError", "mask_order_decreases", "_is_item"):
        assert not hasattr(redsem, name) and not hasattr(redsem.matching, name)
    assert callable(redsem.matching.child) and "child" not in redsem.__all__
