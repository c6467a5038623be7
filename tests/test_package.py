"""The package's public surface: every name in __all__ resolves, once, and
the star import brings them all; importing the CLI loads only what every
command reads; every module parses as Python 3.10, the oldest supported."""
import ast
import subprocess
import sys
from pathlib import Path

import supercong
from supercong import harness


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
    # through os.path, so pathlib never loads (on 3.11 site may preload it)
    probe = ("import sys; before = set(sys.modules); import supercong.cli; "
             "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                           text=True, check=True).stdout.split()
    assert "supercong.cli" in added and "supercong.harness" in added
    deferred = ("concurrent", "multiprocessing", "csv", "json", "pathlib")
    assert [name for name in added if name.lstrip("_").split(".")[0] in deferred] == []


def test_modules_parse_as_python_3_10():
    # pyproject.toml declares Python >= 3.10; the suite itself may run on a later one
    sources = sorted(Path(supercong.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for source in sources:
        ast.parse(source.read_text(), str(source), feature_version=(3, 10))
