"""The package's public surface: every name in __all__ resolves, once, and
the star import brings them all."""
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
