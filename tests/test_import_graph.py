"""What the entry points import: every ``src/`` module is reachable or
listed here, and nothing needs scipy.

The walk follows the ``import`` statements of each module's AST,
including function-level imports, and counts a package's ``__init__``
as imported whenever one of its submodules is.  A module that no entry
point reaches is dead weight in the install unless it has a stated
reason to stay.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ENTRY_POINTS = ("repro.cli", "repro.api", "repro.serving", "repro.__main__")

UNREACHED = {
    "repro.cluster.events": "the D/D/1 oracle for the Fig. 9 closed form",
    "repro.core.extensions": "the §9 multi-entry adapter, kept for §9",
    "repro.switch.programs": "the PISA stage programs of the Table 2 item",
}


def _all_modules():
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imports(name, path, modules):
    is_package = path.name == "__init__.py"
    package = name if is_package else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return {m for m in found if m in modules}


def _reachable(modules):
    seen, todo = set(), list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        parent = name.rpartition(".")[0]
        if parent:
            todo.append(parent)
        todo.extend(_imports(name, modules[name], modules))
    return seen


def test_unreached_modules_are_exactly_the_listed_ones():
    modules = _all_modules()
    unreached = set(modules) - _reachable(modules)
    assert unreached == set(UNREACHED)


def _run_python(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                            cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


def test_server_import_does_not_load_scipy(tmp_path):
    _run_python("""
        import sys
        import repro.serving.server
        assert "scipy" not in sys.modules
    """, tmp_path)


def test_runs_with_scipy_unimportable(tmp_path):
    _run_python(f"""
        import sys
        sys.modules["scipy"] = None
        import repro.api, repro.cli, repro.serving.server
        from repro.bench.runner import repeat_with_ci
        assert repro.cli.main(["run", "table2", "--results-dir", "out"]) == 0
        made = open("out/table2.txt", "rb").read()
        kept = open({str(REPO / "results" / "table2.txt")!r}, "rb").read()
        assert made == kept
        assert repeat_with_ci(float).runs == 5
    """, tmp_path)
