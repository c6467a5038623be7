"""Per-layer tracing for the benchmark, done from outside the program.

`trace_supercong()` replaces the layers' public functions, at the module
attributes where callers look them up, with wrappers that record one span per
call: name, start, end and parent span. Nothing under `src/` changes. The
spans stay in memory and are written out once, by `Tracer.write_spans`, after
the measured work.

Calls are synchronous and single-threaded (the traced run is serial), so child
spans nest inside their parent; a layer's self time is its span's duration
minus the durations of its direct child spans.
"""
from __future__ import annotations

import time
from array import array
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Union

_clock = time.perf_counter


class Tracer:
    """In-memory span store plus the module patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patched: list[tuple[object, str, Callable]] = []

    def peak(self, metric: str, value: int) -> None:
        self.counts[metric] = max(self.counts[metric], value)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, module, attr: str, name: Union[str, Callable[..., str]],
             pre: Optional[Callable] = None, post: Optional[Callable] = None):
        """Replace `module.attr` by a span-recording wrapper.

        `name` is a span name or a function of the call's arguments.
        `pre(*args, **kwargs)` runs before the call and its value is passed
        as `post(state, result, *args, **kwargs)`, which records counts.
        Both run outside the span.
        """
        fn = getattr(module, attr)
        fixed = None if callable(name) else self._name_id(name)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(*args, **kwargs))
            state = pre(*args, **kwargs) if pre else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
            if post:
                post(state, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        """Put back every wrapped attribute."""
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time in seconds."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            s["calls"] += 1
            s["self_s"] += self.end[i] - self.start[i] - child[i]
        return stats

    def write_spans(self, path: Union[str, Path]) -> None:
        """One tab-separated line per span: name, start, end, parent index."""
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\t{self.parent[i]}\n")


def _bits(x) -> int:
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# evaluate_case spans are split by case kind; identities count as scalars
_KIND = {"series": "series", "scalar": "scalar", "identity": "scalar",
         "family": "family"}


def trace_supercong() -> Tracer:
    """Wrap the supercong layers; the package must already be imported."""
    from supercong import cli, congruences, harness, wz

    t = Tracer()

    def kind_span(case, *args, **kwargs):
        return "congruences.evaluate_case." + _KIND[congruences.get_case(case).kind]

    # a sum's terms are counted, as its cap + 1, only when its lru_cache missed
    def terms_pre(cache):
        return lambda *a, **k: cache.cache_info().misses

    def terms_post(metric, cache):
        def post(misses, result, case, params, *args):
            if cache.cache_info().misses > misses:   # the sum was computed
                case = congruences.get_case(case)
                upper = (params.upper_override if params.upper_override is not None
                         else case.upper(params.p, params.r, params.delta or 1))
                t.counts[metric + ".terms"] += upper + 1
            if isinstance(result, Fraction):
                t.peak(metric + ".max_bits", _bits(result))
        return post

    def vp_post(state, result, x, p):
        t.peak("exactnum.vp.max_bits", _bits(x))

    def cells_post(state, result, *args):
        t.counts["wz.check_telescoping.cells"] += result.cells_checked

    def bytes_post(state, result, *args, **kwargs):
        t.counts["harness.write_report.bytes"] += Path(result).stat().st_size

    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "run_sweep", "harness.run_sweep")
    t.wrap(cli, "write_report", "harness.write_report", post=bytes_post)
    t.wrap(harness, "evaluate_case", kind_span)
    t.wrap(cli, "evaluate_case", kind_span)
    for fn, cache in (("series_sum_exact", congruences._series_exact),
                      ("series_sum_residue", congruences._series_residue)):
        metric = "congruences." + fn
        t.wrap(congruences, fn, metric, pre=terms_pre(cache),
               post=terms_post(metric, cache))
    t.wrap(congruences, "vp", "exactnum.vp", post=vp_post)
    t.wrap(congruences, "residue", "exactnum.residue")
    t.wrap(congruences, "binomial", "combinat.binomial")
    t.wrap(congruences, "central_binomial", "combinat.central_binomial")
    t.wrap(wz, "eval_F", "wz.eval_F")
    t.wrap(wz, "eval_G", "wz.eval_G")
    t.wrap(wz, "check_telescoping", "wz.check_telescoping", post=cells_post)
    t.wrap(wz, "check_summand", "wz.check_summand")
    t.wrap(wz, "boundary_identity", "wz.boundary_identity")
    return t


# span names whose calls and self time are reported
_SPANS = ("congruences.series_sum_exact", "congruences.series_sum_residue",
          "combinat.binomial", "combinat.central_binomial", "exactnum.vp",
          "exactnum.residue", "wz.eval_F", "wz.eval_G", "wz.check_telescoping",
          "wz.check_summand", "wz.boundary_identity", "harness.run_sweep",
          "harness.write_report", "cli.main")
_COUNTS = ("congruences.series_sum_exact.terms", "congruences.series_sum_exact.max_bits",
           "congruences.series_sum_residue.terms", "exactnum.vp.max_bits",
           "wz.check_telescoping.cells", "harness.write_report.bytes")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Flat per-layer metrics from one traced run (spans never called read 0)."""
    stats = t.span_stats()
    empty = {"calls": 0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name in _SPANS:
        s = stats.get(name, empty)
        out[name + ".calls"] = s["calls"]
        out[name + ".self_s"] = s["self_s"]
    calls = 0
    for kind in ("series", "scalar", "family"):
        s = stats.get("congruences.evaluate_case." + kind, empty)
        out[f"congruences.evaluate_case.{kind}.self_s"] = s["self_s"]
        calls += s["calls"]
    out["congruences.evaluate_case.calls"] = calls
    for name in _COUNTS:
        out[name] = t.counts.get(name, 0)
    return out
