"""The client and the mock server run on the standard library alone. The
last test reads every module of the reportex this module imported and fails
on an import from outside the standard library, or by a name computed at run
time, on any code path. The tests before it run a fresh interpreter, for what
only a new process shows: the HTTP client that importing retrieval or the
mock server loads, and the mock's embedder, whose rows do not depend on the
interpreter's hash seed."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import reportex

EMBED = r"""
import json
import sys
from reportex.retrieval import MockHashEmbedder

print(json.dumps(MockHashEmbedder(64, 5).embed(json.loads(sys.argv[1]), "gte-large")))
"""


def test_retrieval_and_the_mock_server_load_no_http_client(package_env):
    script = ("import sys, reportex.retrieval, reportex.mock_server; "
              "print(sorted({'reportex.lm_client', 'urllib.request'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], env=package_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_mock_embeddings_do_not_depend_on_the_hash_seed(package_env):
    texts = ["idh mutation detected", "BT-RADS 3c, stable", "..."]
    rows = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", EMBED, json.dumps(texts)],
                              env={**package_env, "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        rows.append(json.loads(proc.stdout))
    assert rows[0] == rows[1]
    assert len(rows[0]) == 3 and all(len(row) == 64 for row in rows[0])
    assert all(type(x) is float for row in rows[0] for x in row)
    assert any(x != 0.0 for x in rows[0][0])


def _outside_the_standard_library(tree: ast.AST):
    """(line, what) for each import of a module outside the standard library,
    at module level or in a function, and each import by a computed name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not a relative import
            modules = [node.module]
        else:
            modules = []
        for module in modules:
            if module.partition(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, f"import {module}"
        used = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if used in ("__import__", "import_module"):
            yield node.lineno, used


def test_the_package_imports_only_the_standard_library():
    # Read, not run: this covers the code paths that no test takes, in the
    # package this module imported (src/, or the installed wheel).
    package = Path(reportex.__file__).resolve().parent
    found = [f"{path.relative_to(package)}:{line}: {what}"
             for path in sorted(package.rglob("*.py"))
             for line, what in _outside_the_standard_library(
                 ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found == []
