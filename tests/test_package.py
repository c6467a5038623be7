"""The package's public surface: every name in __all__ resolves, once, and
the star import brings them all; importing the CLI loads only what every
command reads; the record types keep their repr, immutability, pickling and
echo order; every module parses as Python 3.10, the oldest supported;
no module imports typing, and every annotation resolves; no module keeps
an import or a private name that nothing reads; and no code tests a
valuation against INFINITE by identity."""
import ast
import importlib
import os
import pickle
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import supercong
from supercong import harness, wz
from supercong.congruences import CheckParams, evaluate_case, get_case, list_cases


def test_all_names_resolve_once():
    names = supercong.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(supercong, name)]
    assert missing == []
    namespace = {}
    exec("from supercong import *", namespace)
    assert set(names) <= namespace.keys()
    assert supercong.__version__ is harness.TOOL_VERSION


def test_cli_import_loads_no_pool_or_report_modules():
    # concurrent.futures (and multiprocessing) load only when a sweep starts a
    # pool, csv and json only when a report is written or read; paths go
    # through os.path, so pathlib never loads (on 3.11 site may preload it);
    # the records are named tuples and plain classes, so neither dataclasses
    # nor the inspect module it imports loads; annotations need no typing.
    # -S keeps site (and the .pth files it runs) from loading any of them first
    probe = ("import sys; before = set(sys.modules); import supercong.cli; "
             "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(supercong.__file__).parent.parent)}
    added = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                           text=True, check=True, env=env).stdout.split()
    assert "supercong.cli" in added and "supercong.harness" in added
    deferred = ("concurrent", "multiprocessing", "csv", "json", "pathlib",
                "dataclasses", "inspect", "typing")
    assert [name for name in added if name.lstrip("_").split(".")[0] in deferred] == []


def test_records_keep_their_semantics():
    # a BackendDisagreement message embeds the repr of its point
    assert repr(CheckParams(p=11, r=2)) == \
        "CheckParams(p=11, r=2, delta=None, k=None, upper_override=None)"
    config = harness.SweepConfig()
    for record, name in ((CheckParams(p=5), "p"), (get_case("GUO-64"), "id"),
                         (config, "jobs"), (wz.PAIRS["GUO64"], "id")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    # results cross the pool pickled: one per case kind, and the sweep's config
    first = {}
    for case in list_cases():
        first.setdefault(case.kind, case.id)
    assert sorted(first) == ["family", "identity", "scalar", "series"]
    for case_id in first.values():
        res = evaluate_case(case_id, CheckParams(p=5), "exact")
        assert pickle.loads(pickle.dumps(res)) == res, case_id
    assert pickle.loads(pickle.dumps(config)) == config
    # the report's meta line writes the config echo in this key order
    assert list(config.echo()) == ["primes", "r_max", "deltas", "glob", "status", "backend",
                                   "include_p3", "strict_conjectures", "report_format",
                                   "jobs"]


def test_modules_parse_as_python_3_10():
    # pyproject.toml declares Python >= 3.10; the suite itself may run on a later one
    sources = sorted(Path(supercong.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for source in sources:
        ast.parse(source.read_text(), str(source), feature_version=(3, 10))


def test_no_module_imports_typing():
    # hints are PEP 604 unions and collections.abc generics, which
    # `from __future__ import annotations` keeps as strings
    found = []
    for source in sorted(Path(supercong.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{source.name}:{node.lineno}" for module in modules
                      if module.split(".")[0] == "typing"]
    assert found == []


def test_every_annotation_resolves():
    # a hint naming what its module does not define (an Optional left with no
    # import) raises NameError here, though nothing else evaluates it
    names = ("cli", "combinat", "congruences", "exactnum", "harness", "wz")
    checked = []
    for name in names:
        module = importlib.import_module(f"supercong.{name}")
        objects = [module]
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                objects.append(obj)
                for attr in vars(obj).values():
                    attr = getattr(attr, "__func__", attr)
                    objects += [f for f in (attr, getattr(attr, "fget", None))
                                if callable(f) and hasattr(f, "__code__")]
            elif callable(obj):
                objects.append(obj)
        for obj in objects:
            typing.get_type_hints(obj)
        checked += objects
    assert len(checked) >= 120


def test_modules_read_every_name_they_import():
    # no linter runs on the package; an import the module never reads is an
    # orphan, unless its line says it is kept on purpose (# noqa: F401)
    sources = sorted(Path(supercong.__file__).parent.glob("*.py"))
    orphans = []
    for source in sources:
        if source.name == "__init__.py":        # it imports to re-export
            continue
        text = source.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    orphans.append(f"{source.name}:{alias.lineno}: {name}")
    assert orphans == []


def test_no_identity_comparison_with_infinite():
    # INFINITE is math.inf, and an infinity made by arithmetic or by unpickling
    # is another float object: `v is INFINITE` can be False where v == INFINITE
    sources = (sorted(Path(supercong.__file__).parent.glob("*.py"))
               + sorted(Path(__file__).parent.glob("*.py")))
    assert len(sources) >= 20

    def infinite(node):
        return (isinstance(node, ast.Name) and node.id == "INFINITE"
                or isinstance(node, ast.Attribute) and node.attr == "INFINITE")
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Is, ast.IsNot)) and (infinite(left) or infinite(right)):
                    found.append(f"{source.name}:{node.lineno}")
    assert found == []


def test_package_reads_every_private_name_it_defines():
    # a module-level function, class or assignment named _x that no module of
    # the package reads, by name or as an attribute, is an orphan
    trees = {source.name: ast.parse(source.read_text())
             for source in sorted(Path(supercong.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    assert len(defined) >= 60
    assert [f"{module}: {name}" for module, name in defined if name not in read] == []
