"""The `redsem` namespace is the list in the README's Library section."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types

import pytest

import redsem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAZY_LAYERS = ("redsem.oracle", "redsem.reduction")


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


# run without `site`, which imports modules of its own on some installs
START_UP = """\
import sys
lam = sys.argv[1]

def loaded():
    return sorted({"redsem.oracle", "redsem.reduction", "json"} & set(sys.modules))

import redsem
redsem.load_language(lam)
print(loaded())
from redsem.cli import run_cli
real, sys.stdout = sys.stdout, open(sys.argv[2], "w", encoding="utf-8")
codes = [
    run_cli(["match", "-g", lam, "-p", "(nt e)", "-t", "((λ x x) (λ y y))"]),
    run_cli(["decompose", "-g", lam, "-p", "(nt E)", "-t", "((λ x x) (λ y y))"]),
]
sys.stdout.close()
sys.stdout = real
print(codes, loaded())
layers = {"redsem.oracle", "redsem.reduction"}
lazy = [n for n in redsem.__all__ if getattr(redsem, n).__module__ in layers]
print(sorted(lazy), sorted(set(lazy) & set(vars(redsem))))
print(redsem.oracle is sys.modules["redsem.oracle"])
print(redsem.reduction is sys.modules["redsem.reduction"])
print(sorted(set(redsem.__all__) - set(dir(redsem))))
"""


def test_start_up_loads_only_the_layers_a_request_uses(tmp_path):
    # the reducer and the oracle load on first use; a match or decompose
    # request loads neither the oracle nor `json`
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            START_UP,
            os.path.join(ROOT, "tests", "fixtures", "lambda.sexp"),
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lazy = sorted(n for n in redsem.__all__ if getattr(redsem, n).__module__ in LAZY_LAYERS)
    assert proc.stdout.splitlines() == [
        "[]",
        "[0, 0] ['redsem.reduction']",
        f"{lazy} []",
        "True",
        "True",
        "[]",
    ]
    assert len(lazy) == 9
    out = (tmp_path / "out").read_text(encoding="utf-8").splitlines()
    assert out[0] == "(bindings)" and len(out) == 4


def test_a_lazy_name_is_looked_up_in_its_module_on_every_access(monkeypatch):
    # a wrapper set on the submodule is what `redsem` gives, and undoing
    # it leaves no copy behind
    import redsem.oracle
    import redsem.reduction

    for module, name in (redsem.oracle, "oracle_match"), (redsem.reduction, "step"):
        real = getattr(module, name)
        assert getattr(redsem, name) is real and name not in vars(redsem)
        monkeypatch.setattr(module, name, lambda *args: None)
        assert getattr(redsem, name) is getattr(module, name) is not real
        monkeypatch.undo()
        assert getattr(redsem, name) is real and name not in vars(redsem)
    with pytest.raises(AttributeError):
        redsem.no_such_name
