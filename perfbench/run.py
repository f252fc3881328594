"""Benchmark command for mplparity.

    python3 perfbench/run.py --workload {table,verify,reduce,czv} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (it imports ``src/mplparity``).
Each round is one fresh child process with no threads: set-up, a timed
pass, the same pass again in the same process, and checks of the outputs.
Rounds run one after another (a closed loop with one client) until they
have taken ``--seconds``, not counting the time spent checking outputs, and
at least ``MIN_ROUNDS`` of them have run; the run always finishes its last
round.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
rounds alternate between untraced and traced children, and the metrics are
the per-layer ones from the traced children plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("table", "verify", "reduce", "czv")
# Fewest rounds per run: enough samples for each median to be steady from
# run to run, within what a run may cost (a verify round takes about 10 s).
MIN_ROUNDS = {"table": 3, "verify": 5, "reduce": 6, "czv": 4}
RUN_LIMIT_S = 170  # a run must end within 180 s
STATE_DIR = ".perfbench"
# Seconds the calibration loop of child.py takes on the reference machine
# (2 cores, Python 3.11.7, mpmath 1.3.0) when it is not slowed down.
REF_CALIB_S = 0.16


def run_child(root: Path, run_dir: Path, i: int, args, full: bool, traced: bool,
              deadline: float) -> dict:
    workdir = run_dir / f"child-{i}"
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
           "1" if full else "0", str(workdir), str(result_path)]
    if traced:
        cmd.append(str(root / STATE_DIR / f"trace-{args.workload}.json"))
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{HERE}",
               PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args.workload} run did not finish in {RUN_LIMIT_S} s")
    if code != 0 or not result_path.is_file():
        raise RuntimeError(f"{args.workload} child exited with code {code}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - start
    result["measured_s"] = time.monotonic() - start - result["check_s"]
    result["traced"] = traced
    shutil.rmtree(workdir)
    print(f"perfbench: round {i}{' traced' if traced else ''}: set-up {result['setup_s']:.3f} s, "
          + ", ".join(f"pass {k} {p['wall_s']:.3f} s" for k, p in enumerate(result["passes"]))
          + ", calibration " + " ".join(f"{c:.3f}" for c in result["calib_s"]) + " s",
          file=sys.stderr)
    return result


def ref_seconds(r: dict, k: int) -> float:
    """Pass k's wall time scaled to the reference speed, by the mean time of
    the calibration loops run just before and just after it."""
    return r["passes"][k]["wall_s"] * REF_CALIB_S / ((r["calib_s"][k] + r["calib_s"][k + 1]) / 2)


def end_to_end(results: list[dict]) -> dict:
    first = results[0]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    margins = [r["margin_digits"] for r in results if r["margin_digits"] is not None]
    metrics = {
        "setup_s": (first["setup_s"], "s"),
        "wall_s": (statistics.median(ref_seconds(r, 0) for r in results), "s"),
        "warm_s": (statistics.median(ref_seconds(r, 1) for r in results), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "margin_digits": (min(margins) if margins else 0.0, "digits"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(results: list[dict]) -> dict:
    import tracer

    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]

    def both(r):
        return ref_seconds(r, 0) + ref_seconds(r, 1)

    values = {m: statistics.median(r["layers"][m] for r in traced)
              for m in tracer.PER_LAYER if m != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(map(both, traced))
                                  - statistics.median(map(both, plain)))
    return {m: {"value": values[m], "unit": tracer.PER_LAYER[m][0]} for m in tracer.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mplparity" / "__init__.py").is_file():
        print("perfbench: run from a checkout of the repository (src/mplparity is missing)",
              file=sys.stderr)
        return 2
    run_dir = root / STATE_DIR / f"run-{os.getpid()}"
    deadline = time.monotonic() + RUN_LIMIT_S
    results = []
    try:
        while True:
            traced = args.trace == 1 and len(results) % 2 == 1
            results.append(run_child(root, run_dir, len(results), args,
                                     full=not results, traced=traced, deadline=deadline))
            if (len(results) >= MIN_ROUNDS[args.workload]
                    and sum(r["measured_s"] for r in results) >= args.seconds):
                break
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    errors = [e for r in results for e in r["errors"]]
    unserved = sorted({m for r in results if r["traced"] for m in r["unserved"]})
    if unserved:
        print(f"perfbench: traced {args.workload} run left at zero: {', '.join(unserved)}",
              file=sys.stderr)
        return 1
    for e in errors[:20]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    passes = [p for r in results for p in r["passes"]]
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": per_layer(results) if args.trace else end_to_end(results),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
