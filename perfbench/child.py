"""One cold workload process: import supercong, run CLI commands, report.

usage: python3 child.py SPEC_JSON OUT_JSON

SPEC_JSON holds {"commands": [[argv, ...], ...], "trace": bool,
"spans": path or null}. Each command is passed to `supercong.cli.main`, as
the `supercong` entry point does, with its standard output captured. With no
commands the process only times the import, as a set-up probe.

OUT_JSON receives the import time (`setup_s`), the wall and CPU time of the
work after import, the peak RSS of this process and its pool workers, each
command's exit code, output and wall time, and, when traced, the per-layer
metrics.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    # pool workers are joined before run_sweep returns, so RUSAGE_CHILDREN
    # already holds their time when a command ends
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    t0 = time.perf_counter()
    from supercong import cli             # importing builds the case catalog
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.trace_supercong()

    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    commands = []
    for argv in spec["commands"]:
        buf = io.StringIO()
        c0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            error = None
        except Exception:                  # a crash fails this command only
            code, error = None, traceback.format_exc()
        commands.append({"argv": argv, "exit": code, "stdout": buf.getvalue(),
                         "error": error, "wall_s": time.perf_counter() - c0})
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_s() - cpu0
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "peak_rss_mb": rss_kb / 1024.0, "commands": commands}
    if tracer is not None:
        tracer.restore()
        out["layers"] = tracing.layer_metrics(tracer)
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    with open(out_path, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
