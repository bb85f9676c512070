"""Checks on the repository itself: the pytest settings report a failing
property test, every source file parses as the declared minimum Python,
README's config reference documents exactly the keys the config accepts,
the package defines nothing that only the tests use, its one
floating-point policy is the only one applied, and one site writes the
embedding gradient."""
import ast
import dataclasses
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import pytest

from fedtext import config

ROOT = Path(__file__).resolve().parent.parent

PASSING = """
def test_passes():
    assert True
"""


@pytest.mark.parametrize("failing", [
    # hypothesis's report hook warns while reporting the failure
    "from hypothesis import given, strategies as st\n\n"
    "@given(st.integers(min_value=0))\n"
    "def test_fails(x):\n"
    "    assert x < 0\n",
    # a numpy warning still fails the test it is raised in
    "import numpy as np\n\n"
    "def test_fails():\n"
    "    np.log(np.zeros(1))\n",
], ids=["hypothesis", "numpy"])
def test_a_failing_test_is_reported_under_the_warning_filters(tmp_path, failing):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_sample.py").write_text(failing + PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output


def test_every_source_file_parses_as_python_3_10():
    files = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


_TYPE_NAMES = {int: "int", float: "float", str: "str", bool: "bool",
               tuple[str, ...]: "list of str", tuple[int, ...]: "list of int"}


def test_readme_config_reference_matches_the_schema():
    # every `[section] key` row of the "Config reference" section, once each
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    reference = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `\[(\w+)\] (\w+)` \|", reference, re.M)
    accepted = [(section, key) for section, names in config._KEYS.items() for key in names]
    assert sorted(keys) == sorted(accepted)
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| ([\w ]+?) \| (.+?) \|", reference, re.M)
    assert len(rows) == len(keys)
    for section, key, type_name, default in rows:
        cls = config._SECTIONS[section]
        assert type_name == _TYPE_NAMES[get_type_hints(cls)[key]], (section, key)
        field = {f.name: f for f in dataclasses.fields(cls)}[key]
        raw = "" if default == "(none)" else default.strip("`")
        assert config._KEYS[section][key](raw) == field.default, (section, key)


def _public_names(tree: ast.Module):
    """(qualified name, name) of each top-level name and of each method of a
    top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id) for t in targets if isinstance(t, ast.Name))


def _referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_in_the_package_is_used_by_the_program():
    # a name that only tests reach is machinery the program does not need
    package = sorted((ROOT / "src" / "fedtext").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in package + sorted((ROOT / "bench").glob("*.py"))}
    # a name counts as used wherever it is referenced, so a method that
    # shares its name with a module function (as a Task.loss_and_grad
    # wrapping models.loss_and_grad would) stays invisible to this check
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    unused = [f"{path.stem}.{qualified}" for path in package for qualified, name in _public_names(trees[path])
              if not name.startswith("_") and name not in used]
    assert unused == []


def _call_name(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_every_errstate_in_the_package_applies_the_one_float_policy():
    # the floating-point policy is stated once, as params.FLOAT_POLICY, and
    # each numeric entry point is decorated with it; no site picks its own
    decorated = set()
    for path in sorted((ROOT / "src" / "fedtext").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node) in ("errstate", "seterr"):
                where = f"{path.name}:{node.lineno}"
                assert _call_name(node) == "errstate", where
                assert not node.args, where
                assert [(k.arg, ast.unparse(k.value)) for k in node.keywords] == [(None, "FLOAT_POLICY")], where
            if isinstance(node, ast.FunctionDef):
                if any(isinstance(d, ast.Call) and _call_name(d) == "errstate" for d in node.decorator_list):
                    decorated.add(f"{path.stem}.{node.name}")
    assert decorated == {"models.loss_and_grad", "models.predict_tags", "models.predict_relations",
                         "optim.proximal_augment", "optim.apply_step"}


def test_the_embedding_gradient_is_written_at_one_site():
    # models.shard declares the entries a gradient can be nonzero in from
    # where the embed gradient is written, so there must be one such write:
    # the np.add.at in models.loss_and_grad, into the embed segment
    sites = []
    for path in sorted((ROOT / "src" / "fedtext").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # each node's innermost enclosing function: ast.walk visits outer ones first
        owner = {child: func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                 for child in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("add.at"):
                sites.append((f"{path.stem}.{owner.get(node)}", ast.unparse(node.args[0])))
    assert sites == [("models.loss_and_grad", "gs['embed']")]
