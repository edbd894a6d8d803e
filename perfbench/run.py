"""rotwave benchmark: one command, three workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload recon-clean-n100 --seed 1 --seconds 25 --trace 0

Every workload runs in fresh single-threaded worker processes (worker.py);
BLAS is pinned to one thread through environment variables set here, before
any worker imports numpy.

--trace 0  end-to-end metrics.  Set-up-only workers, then one run worker;
           setup_s is the median of their set-up times (at least three,
           more while they add up to under SETUP_SAMPLE_S), run_s the
           best-of-k round time of the run worker (`best_round_s`), which
           installs no wrappers.
--trace 1  per-layer metrics from one traced worker: set-up and one round
           recorded as spans; the ratio of that round's time to the same
           round run untraced right after is the tracing overhead.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the environment, is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402  (no numpy: safe before pinning)
from worker import BLAS_THREAD_VARS  # noqa: E402

WORKLOADS = ("recon-clean-n100", "sweep-noise-n100", "forward-n1600")
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ok_ops_share": "share"}
TRACE_UNITS = {"trace.overhead_ratio": "ratio", "trace.missing_boundaries": "count", "trace.spans": "count"}
PER_LAYER_UNITS = {**{k: unit for k, (unit, _) in LAYER_METRICS.items()}, **TRACE_UNITS}
SETUP_SAMPLES = (3, 7)  # fewest and most fresh-process set-ups per run
SETUP_SAMPLE_S = 5.0  # a cheap set-up is sampled more often, up to this total
TIME_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(mode, args, env, deadline, spans_out=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before all workers ran")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def best_round_s(rounds: list[list]) -> float:
    """Round time from the best of k: for each operation label, its fastest
    call over the whole run times the number of calls one round makes."""
    best: dict[str, float] = {}
    for round_times in rounds:
        for label, seconds in round_times:
            best[label] = min(seconds, best.get(label, seconds))
    return sum(best[label] for label, _ in rounds[0])


def _total(round_times: list) -> float:
    return sum(seconds for _, seconds in round_times)


def _git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "rotwave", "__init__.py")):
        print("no rotwave sources under ./src: run from the repository root", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({v: "1" for v in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    deadline = time.monotonic() + TIME_BUDGET_S
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    try:
        if args.trace == 0:
            reports = []
            fewest, most = SETUP_SAMPLES
            while len(reports) < most - 1 and (
                len(reports) < fewest - 1 or sum(r["setup_s"] for r in reports) < SETUP_SAMPLE_S
            ):
                reports.append(_worker("setup", args, env, deadline))
            report = _worker("run", args, env, deadline)
            reports.append(report)
        else:
            spans_out = os.path.join(out_dir, f"spans-{args.workload}.json")
            report = _worker("trace", args, env, deadline, spans_out)
            reports = [report]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "run_s": best_round_s(report["rounds"]),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_ops_share": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END_UNITS
    else:
        _, traced, plain = report["rounds"]
        values = dict(report["layers"])
        values["trace.overhead_ratio"] = _total(traced) / _total(plain)
        values["trace.missing_boundaries"] = len(report["missing"])
        values["trace.spans"] = report["spans"]
        units = PER_LAYER_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    environment = {
        "nproc": os.cpu_count(),
        "blas_env": report["blas_env"],
        "versions": report["versions"],
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(f"environment {json.dumps(environment)}")
    totals = [_total(r) for r in report["rounds"]]
    print(f"rounds {len(totals)}: " + " ".join(f"{t:.4f}" for t in totals) + " s")
    if args.trace == 1:
        for op, counts in report["loop_counts_by_op"].items():
            print(f"loop {op}: {counts['state_calls']} states / {counts['iterations']} iterations")
        for name in report["missing"]:
            print(f"missing boundary {name}: dependent metrics read -1")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ops_share':32s} {len(failures) / attempted:.6g} share ({len(failures)}/{attempted})")
    for failure in failures:
        print(f"FAILED {failure}")

    record = {"environment": environment, "metrics": metrics, "attempted": attempted,
              "failures": failures, "workers": reports}
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
