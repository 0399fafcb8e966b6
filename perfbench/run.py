"""Benchmark of exindep's public entry points at acceptance-criteria scale.

    python3 perfbench/run.py --workload codegree --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
Each sample runs in a fresh interpreter (``bench.py worker``), one at a
time, so set-up time, the first call and peak memory belong to one workload.
BLAS and OpenMP threads are capped (``THREAD_CAP``, at most the number of
usable CPUs) before numpy loads in any worker.

``--trace 0`` prints the end-to-end metrics:

* ``items_per_s``  audited systems or trials per second, from the median
  wall time of the warm calls of a closed-loop caller, pooled over the
  run's interpreters;
* ``cold_call_s``  the first call in a fresh interpreter (median of samples);
* ``setup_s``  interpreter start until the inputs are built (median);
* ``peak_rss_mb``  the largest peak resident memory of the run's processes.

``--trace 1`` prints the per-layer metrics of a traced run instead (see
``README.md``).  Both print ``failed_frac`` on a summary line: the share of
end-to-end calls that raised or whose output digest differed from the one
expected.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import DIGESTS, ROOT, SIZES, WORKLOADS, BenchError, finite

BENCH = Path(__file__).resolve().with_name("bench.py")
# Measured interpreters per run.  Warm calls are pooled over all of them:
# on a shared 2-core machine the speed of one interpreter's calls drifts by
# up to 20%, so one long-lived interpreter makes a noisy run.
SAMPLES = 7
RUN_BUDGET_S = 170.0  # a run must end within 180 s, workers included
STARTED = time.monotonic()
# BLAS and OpenMP threads per worker, never more than the usable CPUs.  One
# thread, because on the 2-core reference box two threads made graph-clique's
# run medians spread by 0.10-0.20 of their median, one thread by 0.06.
THREAD_CAP = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def worker(
    mode: str,
    args: argparse.Namespace,
    env: dict,
    out_dir: Path,
    seconds: float = 0.0,
    gate_seeds: tuple[int, ...] = (),
) -> dict:
    """Run one ``bench.py worker`` sample in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH), "worker", mode]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    cmd += ["--seconds", str(seconds), "--out", str(out_dir)]
    cmd += ["--gate-seeds", *map(str, gate_seeds)]
    timeout = RUN_BUDGET_S - (time.monotonic() - STARTED)
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, timeout)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker ran past the {RUN_BUDGET_S:g}s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(recorded: dict, seed: int, docs: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)`` over every end-to-end call in ``docs``.

    Calls at the run's seed must match the recorded digest for that seed,
    or, for a seed without one, the first digest of the run.  Calls at the
    recorded seeds must match their recorded digests.  A call that raised
    has no digest and fails.
    """
    own = [d for doc in docs for d in doc["digests"] + doc.get("digests_traced", [])]
    expected = recorded.get(str(seed)) or next((d for d in own if d), None)
    attempted = len(own)
    failed = sum(d is None or d != expected for d in own)
    for doc in docs:
        for gate_seed, digest in doc["gate"].items():
            attempted += 1
            failed += digest is None or digest != recorded[gate_seed]
    return attempted, failed


def timed_run(args, env, out_dir, gate_seeds) -> tuple[list[dict], dict]:
    worker("cold", args, env, out_dir)  # warm the file cache and bytecode; not measured
    share = args.seconds / SAMPLES
    docs = [
        worker("timed", args, env, out_dir, seconds=share, gate_seeds=gate_seeds if i == 0 else ())
        for i in range(SAMPLES)
    ]
    warm = [t for d in docs for t in d["warm_call_s"]]
    items = docs[0]["items_per_call"]
    metrics = {
        "items_per_s": (items / statistics.median(warm), "1/s"),
        "cold_call_s": (statistics.median(finite(d["cold_call_s"] for d in docs)), "s"),
        "setup_s": (statistics.median(d["setup_s"] for d in docs), "s"),
        "peak_rss_mb": (max(d["peak_rss_mib"] for d in docs), "MiB"),
    }
    notes = {
        "items_per_s": f"median of {len(warm)} warm calls of {items} items",
        "cold_call_s": f"median of {len(docs)} fresh interpreters",
        "setup_s": f"median of {len(docs)} fresh interpreters",
        "peak_rss_mb": f"max of {len(docs)} processes",
    }
    return docs, {"metrics": metrics, "notes": notes, "facts": docs[0]["facts"]}


def traced_run(args, env, out_dir, gate_seeds) -> tuple[list[dict], dict]:
    warmup = worker("cold", args, env, out_dir)
    traced = worker("trace", args, env, out_dir, seconds=args.seconds, gate_seeds=gate_seeds)
    recount = worker("counts", args, env, out_dir)
    metrics = {name: tuple(value) for name, value in traced["metrics"].items()}
    notes = {f"{name}.ms_tail": where for name, where in traced["tails"].items()}
    counts_ok = traced["counts_repeat"] and recount["counts_repeat"]
    counts_ok = counts_ok and traced["counts"] == recount["counts"]
    summary = {
        "metrics": metrics,
        "notes": notes,
        "facts": traced["facts"],
        "counts_repeat": counts_ok,
        "trace_file": traced["trace_file"],
    }
    return [warmup, traced, recount], summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="exindep benchmark")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=tuple(SIZES), default="full", help="tiny is for the self-test"
    )
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps the worker it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "exindep" / "__init__.py").is_file():
        print(f"error: no exindep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded = recorded[args.size][args.workload]
    gate_seeds = tuple(sorted(int(s) for s in recorded))
    nproc = len(os.sched_getaffinity(0))
    cap = min(THREAD_CAP, nproc)
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: str(cap) for var in THREAD_VARS})
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"

    try:
        run = traced_run if args.trace else timed_run
        docs, summary = run(args, env, out_dir, gate_seeds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed = gate(recorded, args.seed, docs)
    correct = failed == 0 and summary.get("counts_repeat", True)
    facts = dict(summary["facts"], nproc=nproc, thread_cap=cap)
    print(f"exindep benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in summary["metrics"].items():
        note = summary["notes"].get(name, "")
        print(f"  {name:<52} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_frac':<52} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} calls")
    if "counts_repeat" in summary:
        print(f"counts repeat across two runs at seed {args.seed}: {summary['counts_repeat']}")
        print(f"spans written to {summary['trace_file']}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in summary["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
