"""The package's import surface: each name has one import path, its submodule."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import svkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(svkit.__path__))


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this checkout's svkit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(svkit.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_package_root_holds_only_the_version():
    proc = run_fresh(
        "import json, svkit; "
        "print(json.dumps([sorted(n for n in vars(svkit) if not n.startswith('_')), svkit.__version__]))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], "0.1.0"]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first(module):
    # no module relies on another having been imported before it (an import cycle would)
    proc = run_fresh(f"import svkit.{module}")
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal takes ~1.5 s to import; only the functions that filter audio load it
    proc = run_fresh("import sys, svkit.cli; print('scipy.signal' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def module_tree(module: str) -> ast.Module:
    return ast.parse((Path(svkit.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    # a removal that leaves its import behind shows up here
    tree = module_tree(module)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def svkit_imports(module: str) -> set:
    """The svkit modules `module` imports, by `from .x`, `from . import x`, `from svkit.x` or `import svkit.x`."""
    out = set()
    for node in ast.walk(module_tree(module)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "svkit"):
            parts = [p for p in (node.module or "").split(".") if p][0 if node.level else 1 :]
            out |= {parts[0]} if parts else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("svkit.")}
    return out


def test_the_embed_path_does_not_import_training_and_no_import_cycle_exists():
    # training builds a pipeline.System, so pipeline importing training would make a cycle
    graph = {module: svkit_imports(module) for module in MODULES}
    assert "pipeline" in graph["training"] and "ecapa" in graph["pipeline"]  # the guard sees both relative forms
    assert "training" not in graph["pipeline"]
    tuple(TopologicalSorter(graph).static_order())  # a cycle raises CycleError, naming it


def scope_name(node, parents) -> str:
    """The dotted class and function names that enclose `node`, outermost first."""
    names = []
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return ".".join(reversed(names)) or "<module>"


def test_binfile_owns_every_file_read_and_write():
    # one owner per file format, one read path and one write path: a loader that opens, reads or decodes
    # its own file, or a saver that packs its own fields, writes its own file or makes its own directory,
    # shows up here
    struct_importers, readers, writers = set(), set(), set()
    for module in MODULES:
        tree = module_tree(module)
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(alias.name == "struct" for alias in node.names):
                struct_importers.add(module)
            if isinstance(node, ast.ImportFrom) and node.module == "struct":
                struct_importers.add(module)
            if not isinstance(node, ast.Call):
                continue
            func, attr = ast.unparse(node.func), getattr(node.func, "attr", None)
            if (
                attr in ("read_bytes", "read_text")
                or func == "open"
                or func.startswith(("np.load", "np.fromfile", "np.genfromtxt", "np.memmap"))
            ):
                readers.add(f"{module}.{scope_name(node, parents)}")
            if attr in ("write_bytes", "write_text", "mkdir") or func == "open" or func.startswith("np.save"):
                writers.add(f"{module}.{scope_name(node, parents)}")
    assert sorted(struct_importers) == ["audio", "binfile"]
    assert sorted(readers) == ["binfile.Reader.__init__"]
    assert sorted(writers) == ["binfile.write_bytes", "binfile.write_npy"]  # np.save targets a BytesIO there


# a public query on a config that no command prints; criterion 8 (parameter count) reads it
ONLY_TESTS_REACH = {"ecapa.count_params"}


def test_every_module_level_definition_is_reached_outside_the_tests():
    # verification code lives in tests/: a function or class that only tests call shows up here
    root = Path(svkit.__file__).parents[2]
    sources = [path for top in ("src/svkit", "perfbench", "tools") for path in (root / top).glob("*.py")]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = {
        f"{module}.{node.name}": node.name
        for module in MODULES
        for node in module_tree(module).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert sorted(q for q, name in defined.items() if name not in used) == sorted(ONLY_TESTS_REACH)
