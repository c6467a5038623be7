"""The benchmark's tracer wraps supercong's module attributes by name, so a
refactor that drops one fails here, and not only in the benchmark run."""
import importlib.util
from pathlib import Path

from supercong import cli, congruences, harness, wz

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_layer(capsys):
    modules = (cli, congruences, harness, wz)
    before = [dict(vars(m)) for m in modules]
    tracer = load_tracer()
    congruences._series_exact.cache_clear()    # terms count only cache misses
    t = tracer.trace_supercong()
    try:
        wrapped = {(module.__name__, attr) for module, attr, _ in t._patched}
        assert ("supercong.congruences", "series_sum_exact") in wrapped
        assert cli.main(["verify", "--case", "GUO-64", "--p", "5"]) == 0
        metrics = tracer.layer_metrics(t)
        assert metrics["congruences.series_sum_exact.calls"] == 1
        assert metrics["congruences.series_sum_exact.terms"] == 5
    finally:
        t.restore()
    assert [dict(vars(m)) for m in modules] == before
