"""One fresh benchmark process: set up a workload, then run or trace it.

Started by run.py with BLAS pinned to one thread through the environment,
which must be in place before numpy is imported.  Modes:

  setup   set up only (one more set-up sample)
  run     set up, then run rounds until --seconds have passed and at
          least MIN_ROUNDS ran (or 3 x --seconds passed), without any
          wrappers installed
  trace   set up with the span tracer installed, then run round 0 three
          times: wrappers paused (a warm-up that absorbs first-use costs),
          traced, and paused again; the last two have the same inputs and
          the same warmth, so their ratio is the tracing overhead

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import resource
import sys
import time

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_ROUNDS = 3


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    unpinned = [v for v in BLAS_THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned or "numpy" in sys.modules:
        print(f"BLAS threads not pinned before numpy import: {unpinned}", file=sys.stderr)
        return 2

    from tracer import IMPORT_SPAN, Tracer, layer_metrics, loop_counts_by_op

    tracer = Tracer() if args.mode == "trace" else None
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.span(IMPORT_SPAN):
            importlib.import_module("rotwave.cli")
    else:
        importlib.import_module("rotwave.cli")
    import workloads

    outcome = workloads.Outcome()
    workload = workloads.WORKLOADS[args.workload]()
    if tracer is not None:
        tracer.install()
    try:
        for i, verdict in enumerate(workload.setup(args.seed)):
            outcome.record(f"setup:{i}", verdict)
        setup_s = time.perf_counter() - t0

        rounds = []  # per round: (label, wall seconds) of each operation call
        if args.mode == "run":
            start = time.perf_counter()
            while True:
                rounds.append(workloads.run_round(workload, len(rounds), outcome))
                elapsed = time.perf_counter() - start
                if elapsed >= args.seconds and len(rounds) >= MIN_ROUNDS:
                    break
                if elapsed >= 3 * args.seconds:  # very slow rounds: stop early
                    break
        elif args.mode == "trace":
            with tracer.paused():
                rounds.append(workloads.run_round(workload, 0, outcome))
            rounds.append(workloads.run_round(workload, 0, outcome, tracer))
            with tracer.paused():
                rounds.append(workloads.run_round(workload, 0, outcome))
    finally:
        if tracer is not None:
            tracer.restore()

    report = {
        "mode": args.mode,
        "setup_s": setup_s,
        "rounds": rounds,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], **{
            name: _version(name) for name in ("numpy", "scipy", "sympy")
        }},
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer.spans, tracer.missing)
        report["loop_counts_by_op"] = loop_counts_by_op(tracer.spans)
        report["missing"] = tracer.missing
        report["spans"] = len(tracer.spans)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
