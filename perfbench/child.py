"""One benchmark process: set-up, two timed passes, checks.

Started by ``run.py`` with ``src`` and ``perfbench`` on ``PYTHONPATH``:

    python3 perfbench/child.py WORKLOAD SEED FULL WORKDIR RESULT [TRACE]

It writes a JSON result to RESULT, including the time of a fixed
calibration loop run before, between and after the passes.  FULL=1 adds the checks that need
extra work beyond the outputs.  With TRACE, the passes run traced and the
spans are written to that file.  The set-up ends when the inputs are
made; ``ready`` records that moment on the monotonic clock, which the
parent compares with the moment it started this process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def calibrate() -> float:
    """Seconds taken by a fixed loop of the interpreter work the program
    does: dict updates keyed by tuples, Fraction and mpmath arithmetic."""
    from fractions import Fraction

    import mpmath as mp

    t0 = time.perf_counter()
    d = {}
    x = Fraction(1, 3)
    with mp.workdps(40):
        y = mp.mpf(1) / 3
        for i in range(12000):
            k = (i % 997, i % 7)
            d[k] = d.get(k, 0) + i * i
            f = Fraction(i % 5 + 1, i % 3 + 1)
            x = x * f / f
            y = y * (1 + y) / (1 + y)
    return time.perf_counter() - t0


def main(argv) -> int:
    workload, seed, full, workdir, result_path, *trace_path = argv
    workdir = Path(workdir)
    import workloads  # imports mplparity

    wl = workloads.WORKLOADS[workload](int(seed), workdir)
    ready = time.monotonic()

    tracer = None
    if trace_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        workloads.probe(workdir)
        mark = tracer.snapshot()
    passes, calib = [], [calibrate()]
    for k in range(2):
        if tracer is not None:
            tracer.epoch = k + 1
        passes.append(wl.run_pass(k))
        calib.append(calibrate())
    result = {"ready": ready, "calib_s": calib,
              "passes": [{"wall_s": p.wall_s, "ops": p.ops, "failed": p.failed} for p in passes]}
    if tracer is not None:
        tracer.uninstall()
        served = tracing.layer_metrics(tracer, since=mark)
        served.update(wl.extra_layer_metrics())
        layers = tracing.layer_metrics(tracer)
        layers.update(wl.extra_layer_metrics())
        result["layers"] = layers
        result["unserved"] = tracing.unserved(workload, served)
        tracer.write(trace_path[0])
    t0 = time.monotonic()
    result["errors"], result["margin_digits"] = wl.check(passes, full == "1")
    result["check_s"] = time.monotonic() - t0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
