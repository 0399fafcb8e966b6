"""Worker side of the exindep benchmark: workloads, output digests, tracing.

``run.py`` starts this file in a fresh interpreter for every sample, so that
set-up time, the first (cold) call and peak memory belong to one workload
alone.  A worker imports ``exindep`` from the ``src`` directory of the
checkout it sits in, builds the workload's inputs, runs end-to-end calls
back to back (a closed loop with one caller) and prints one JSON line.  The
verdict on digests is left to ``run.py``.

One end-to-end call is one library entry point followed by the report a
user of the matching ``exindep`` subcommand receives:

* ``audit-mixed``  ``bound_audit_run`` + ``emit_report`` (``audit-bounds``)
* ``codegree`` and ``graph-clique``  ``run_max_experiment`` + ``emit_report``
  (``simulate``)
* ``gaussian-ar1``  ``gaussian_max_rate`` + the ``gaussian simulate`` JSON

Every call of a run uses the same inputs, drawn from the run's seed, so
every call must reproduce the same digest.

``python3 perfbench/bench.py record`` recomputes ``digests.json``; run it
only when a change is meant to alter the emitted bytes, and say which.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Seeds whose digests ``digests.json`` records: the default and a held-out one.
RECORDED_SEEDS = (1, 2718)

#: Per-call sizes.  ``full`` is the acceptance-criteria scale; ``tiny`` only
#: serves the self-test.
SIZES = {
    "full": {
        "audit-mixed": {"count": 2000},
        "codegree": {"n": 100, "trials": 4},
        "graph-clique": {"n": 500, "trials": 100},
        "gaussian-ar1": {"d": 2000, "trials": 4096},
    },
    "tiny": {
        "audit-mixed": {"count": 20},
        "codegree": {"n": 16, "trials": 2},
        "graph-clique": {"n": 40, "trials": 5},
        "gaussian-ar1": {"d": 50, "trials": 64},
    },
}


def import_library() -> None:
    """Import ``exindep`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import exindep

    if Path(exindep.__file__).resolve().parent != (src / "exindep").resolve():
        raise ImportError(f"exindep was imported from {exindep.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Inputs, the library call, and the bytes its user receives."""

    setup: Callable[[dict], dict]
    call: Callable[[dict, int], object]
    emit: Callable[[dict, object, Path], bytes]
    items: Callable[[dict], int]


def _report_bytes(inputs: dict, result, out_dir: Path) -> bytes:
    from exindep.experiments_cli import emit_report

    csv_path, json_path = emit_report(result, out_dir)
    return csv_path.read_bytes() + json_path.read_bytes()


def _audit_setup(size: dict) -> dict:
    from exindep.experiments_cli import SystemGenSpec

    return {"spec": SystemGenSpec(), "count": size["count"]}


def _audit_call(inputs: dict, seed: int):
    from exindep.experiments_cli import bound_audit_run

    return bound_audit_run(inputs["spec"], inputs["count"], seed)


def _experiment_setup(**fixed) -> Callable[[dict], dict]:
    def setup(size: dict) -> dict:
        from exindep.experiments_cli import ExperimentConfig

        cfg = ExperimentConfig(n=size["n"], trials=size["trials"], seed=0, **fixed)
        return {"cfg": cfg}

    return setup


def _experiment_call(inputs: dict, seed: int):
    from exindep.experiments_cli import run_max_experiment

    return run_max_experiment(replace(inputs["cfg"], seed=seed))


def _gaussian_setup(size: dict) -> dict:
    from exindep import stationary_system

    d = size["d"]
    start = time.perf_counter()
    system = stationary_system(d, "ar1", rho=0.3)
    built = time.perf_counter() - start
    return {
        "system": system,
        "d": d,
        "u": math.sqrt(2.0 * math.log(d)),
        "trials": size["trials"],
        "stationary_system_s": built,
    }


def _gaussian_call(inputs: dict, seed: int):
    from exindep.experiments_cli import gaussian_max_rate

    return seed, gaussian_max_rate(inputs["system"], inputs["u"], inputs["trials"], seed)


def _gaussian_emit(inputs: dict, result, out_dir: Path) -> bytes:
    # the document ``exindep gaussian simulate --family ar1`` prints
    seed, rate = result
    d, level = inputs["d"], inputs["u"]
    phi = 0.5 * math.erfc(-level / math.sqrt(2.0))
    independent = math.exp(d * math.log(phi)) if phi > 0.0 else 0.0
    doc = {
        "family": "ar1",
        "d": d,
        "u": level,
        "trials": inputs["trials"],
        "seed": seed,
        "empirical_rate": rate,
        "independent_reference": independent,
        "abs_error": abs(rate - independent),
    }
    return (json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n").encode()


WORKLOADS = {
    "audit-mixed": Workload(
        _audit_setup, _audit_call, _report_bytes, lambda inputs: inputs["count"]
    ),
    "codegree": Workload(
        _experiment_setup(kind="hypergraph-codegree", p=0.5, k=4, s=2),
        _experiment_call,
        _report_bytes,
        lambda inputs: inputs["cfg"].trials,
    ),
    "graph-clique": Workload(
        _experiment_setup(kind="clique-ext", p=0.5, k=3, reference="gumbel"),
        _experiment_call,
        _report_bytes,
        lambda inputs: inputs["cfg"].trials,
    ),
    "gaussian-ar1": Workload(
        _gaussian_setup, _gaussian_call, _gaussian_emit, lambda inputs: inputs["trials"]
    ),
}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, item, call]``.

    ``parent`` is the index of the enclosing span (-1 at the root), ``item``
    the system or trial index last seen at a layer boundary, ``call`` the
    end-to-end call the span belongs to.  ``counts`` accumulates work counts
    computed from each layer's public outputs.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = -1
        self.call = -1
        self.counts: dict[str, int | float] = defaultdict(int)
        self.systems: list[tuple] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.item, self.call]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, hook, item_arg: int | None):
        def traced(*args, **kwargs):
            if item_arg is not None and len(args) > item_arg:
                self.item = int(args[item_arg])
            record = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(record)
            if hook is not None:
                hook(self, args, out)
            return out

        return traced


KEPT_SYSTEMS = 200  # drawn systems kept for the separate coefficient probes


def _count_system(tr: Tracer, args, out) -> None:
    tr.counts["generators.events"] += out.system.d
    tr.counts["generators.atoms"] += out.system.space.n_atoms
    if len(tr.systems) < KEPT_SYSTEMS:
        tr.systems.append((out.system, out.dep))


def _count_audit(tr: Tracer, args, out) -> None:
    system = args[0]
    tr.counts["coefficients.indicator_cells"] += system.d * system.space.n_atoms


def _count_hypergraph(tr: Tracer, args, hg) -> None:
    candidates = math.comb(hg.n, hg.k)
    tr.counts["random_structures.gen_hypergraph.candidates"] += candidates
    tr.counts["random_structures.gen_hypergraph.edges"] += hg.edge_count
    # float64 uniform per candidate plus the int64 edge matrix
    tr.counts["random_structures.gen_hypergraph.bytes_computed"] += (
        8 * candidates + 8 * hg.k * hg.edge_count
    )


def _count_codegrees(tr: Tracer, args, out) -> None:
    hg, s = args[0], args[1]
    tr.counts["random_structures.codegrees.inspections"] += (
        math.comb(hg.n, s) + hg.edge_count * math.comb(hg.k, s)
    )


def _count_graph(tr: Tracer, args, g) -> None:
    tr.counts["random_structures.gen_graph.candidates"] += math.comb(g.n, 2)
    tr.counts["random_structures.gen_graph.edges"] += g.edge_count


def _count_cliques(tr: Tracer, args, out) -> None:
    if out.param == 3:  # one n×n matmul plus the masked row sums
        tr.counts["random_structures.clique_counts.flops_computed"] += (
            2 * out.n**3 + 2 * out.n**2
        )


def _count_sample(tr: Tracer, args, out) -> None:
    rows, d = out.shape
    # Cholesky (d³/3) plus the rows × d × d product
    tr.counts["gaussian_evt.sample.gflops_computed"] += (d**3 / 3 + 2 * rows * d * d) / 1e9
    # covariance read, factor written, normals and samples written
    tr.counts["gaussian_evt.sample.bytes_computed"] += 8 * (2 * d * d + 2 * rows * d)


_RUNNER = "exindep.experiments_cli.runner"

#: (module, attribute as that module sees it, span name, count hook, item arg)
PATCHES = (
    (_RUNNER, "child_seed", "rng.child_seed", None, 1),
    (_RUNNER, "generate_system", "generators.generate_system", _count_system, None),
    (_RUNNER, "audit", "coefficients.audit", _count_audit, None),
    (_RUNNER, "gen_hypergraph", "random_structures.gen_hypergraph", _count_hypergraph, None),
    (_RUNNER, "codegrees", "random_structures.codegrees", _count_codegrees, None),
    (_RUNNER, "gen_graph", "random_structures.gen_graph", _count_graph, None),
    (_RUNNER, "clique_counts", "random_structures.clique_counts", _count_cliques, None),
    (_RUNNER, "clique_cond_expectation", "random_structures.clique_cond_expectation", None, None),
    (_RUNNER, "two_sample_ks", "runner.two_sample_ks", None, None),
    (_RUNNER, "ks_distance", "runner.ks_distance", None, None),
    (_RUNNER, "product_max_cdf", "gumbel_limits.product_max_cdf", None, None),
    (_RUNNER, "sample", "gaussian_evt.sample", _count_sample, None),
    ("exindep.experiments_cli.generators", "stream", "rng.stream", None, None),
    ("exindep.random_structures", "stream", "rng.stream", None, None),
    ("exindep.gaussian_evt", "stream", "rng.stream", None, 1),
)

ENTRY_SPANS = {
    "audit-mixed": "runner.bound_audit_run",
    "codegree": "runner.run_max_experiment",
    "graph-clique": "runner.run_max_experiment",
    "gaussian-ar1": "runner.gaussian_max_rate",
}


class Layers:
    """Swaps traced wrappers in at each layer boundary and back out."""

    def __init__(self, tracer: Tracer) -> None:
        self.swaps = []
        for module_name, attr, name, hook, item_arg in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.swaps.append((module, attr, original, tracer.wrap(original, name, hook, item_arg)))

    def __enter__(self) -> "Layers":
        for module, attr, _, traced in self.swaps:
            setattr(module, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self.swaps:
            setattr(module, attr, original)


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it (≥ p50)."""
    n = len(values)
    pct = max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n >= 20 else 50
    ordered = sorted(values)
    return ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)], pct


TIMED_LAYERS = (
    "generators.generate_system",
    "coefficients.audit",
    "random_structures.gen_hypergraph",
    "random_structures.codegrees",
    "random_structures.gen_graph",
    "random_structures.clique_counts",
    "gaussian_evt.sample",
)
P50_LAYERS = (
    "random_structures.clique_cond_expectation",
    "runner.two_sample_ks",
    "rng.child_seed",
    "runner.ks_distance",
    "reports.emit_report",
)
COUNTS = (
    "generators.events",
    "generators.atoms",
    "coefficients.indicator_cells",
    "random_structures.gen_hypergraph.candidates",
    "random_structures.gen_hypergraph.edges",
    "random_structures.gen_hypergraph.bytes_computed",
    "random_structures.codegrees.inspections",
    "random_structures.gen_graph.candidates",
    "random_structures.gen_graph.edges",
    "random_structures.clique_counts.flops_computed",
    "gaussian_evt.sample.gflops_computed",
    "gaussian_evt.sample.bytes_computed",
)
COUNT_UNITS = {"bytes_computed": "B", "flops_computed": "FLOP", "gflops_computed": "GFLOP"}
PROBES = (
    "coefficients.mixing_phi",
    "coefficients.declustering",
    "coefficients.arratia_phi_tilde",
    "coefficients.arratia_union_form",
    "prob_core.none_occur",
)


def layer_metrics(spans: list[list], entry: str) -> tuple[dict, dict]:
    """Per-layer metrics from spans, plus the tail percentile behind each ``ms_tail``.

    A layer absent from the workload reads 0 (no spans, no time, no share).
    Shares are self time (span minus its children) over the time of the
    end-to-end calls (``op`` spans).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    per_call: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, _, _, call) in enumerate(spans):
        durations[name].append(end - start)
        self_time[name] += end - start - child_time[index]
        per_call[name][call] += end - start
    op_time = sum(durations["op"])

    def p50(name: str) -> float:
        return statistics.median(durations[name]) if durations[name] else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    tails: dict[str, str] = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.ms_p50"] = (1e3 * p50(name), "ms")
        if durations[name]:
            value, pct = tail(durations[name])
            tails[name] = f"p{pct} of {len(durations[name])} spans"
        else:
            value = 0.0
        metrics[f"{name}.ms_tail"] = (1e3 * value, "ms")
        metrics[f"{name}.share"] = (self_time[name] / op_time, "ratio")
    for name in P50_LAYERS:
        metrics[f"{name}.ms_p50"] = (1e3 * p50(name), "ms")
    metrics["rng.stream.us_p50"] = (1e6 * p50("rng.stream"), "us")
    rng_time = self_time["rng.child_seed"] + self_time["rng.stream"]
    metrics["rng.share"] = (rng_time / op_time, "ratio")
    calls = per_call["gumbel_limits.product_max_cdf"]
    metrics["gumbel_limits.product_max_cdf.ms_total"] = (
        1e3 * statistics.median(calls.values()) if calls else 0.0,
        "ms",
    )
    metrics["runner.self_share"] = (self_time[entry] / op_time, "ratio")
    metrics["reports.emit_report.share"] = (self_time["reports.emit_report"] / op_time, "ratio")
    return metrics, tails


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------

class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def finite(times) -> list[float]:
    """Wall times of the calls that returned (a call that raised reads NaN)."""
    ok = [t for t in times if not math.isnan(t)]
    if not ok:
        raise BenchError("every measured call raised")
    return ok


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """One workload in one interpreter: timed calls and their digests."""

    def __init__(self, workload: str, size: str, out_dir: Path) -> None:
        self.spec = WORKLOADS[workload]
        self.entry = ENTRY_SPANS[workload]
        self.inputs = self.spec.setup(SIZES[size][workload])
        self.items = self.spec.items(self.inputs)
        self.out_dir = out_dir
        self.calls = 0
        self.raised = 0

    def call(self, seed: int, tracer: Tracer | None = None) -> tuple[float, str | None]:
        """One end-to-end call; returns its wall time and output digest.

        A call that raises is reported (traceback on stderr) and yields no
        digest, which the gate counts as a failure.
        """
        # Each call writes into a new directory: truncating and rewriting the
        # previous call's files makes some filesystems flush them on close,
        # which would time the disk rather than the program.
        self.calls += 1
        out_dir = self.out_dir / f"call-{self.calls}"
        try:
            start = time.perf_counter()
            if tracer is None:
                result = self.spec.call(self.inputs, seed)
                emitted = self.spec.emit(self.inputs, result, out_dir)
            else:
                op = tracer.open("op")
                entry = tracer.open(self.entry)
                result = self.spec.call(self.inputs, seed)
                tracer.close(entry)
                report = tracer.open("reports.emit_report")
                emitted = self.spec.emit(self.inputs, result, out_dir)
                tracer.close(report)
                tracer.close(op)
            elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.raised += 1
            return math.nan, None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed, hashlib.sha256(emitted).hexdigest()


def _probe_ms(fn, args_list: list[tuple]) -> float:
    times = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times) if times else 0.0


def probes(workload: str, runner: Runner, tracer: Tracer, seed: int) -> dict:
    """Separate timed calls on inputs the traced calls used; 0 where idle."""
    from exindep import (
        arratia_phi_tilde,
        arratia_union_form,
        declustering,
        mixing_phi,
        none_occur,
        sample,
    )

    out = {f"{name}.ms_p50": (0.0, "ms") for name in PROBES}
    out["gaussian_evt.sample.fixed_ms"] = (0.0, "ms")
    out["gaussian_evt.stationary_system.ms"] = (0.0, "ms")
    if workload == "audit-mixed":
        pairs = tracer.systems
        coefficient_fns = (mixing_phi, declustering, arratia_phi_tilde, arratia_union_form)
        for name, fn in zip(PROBES, coefficient_fns):
            out[f"{name}.ms_p50"] = (_probe_ms(fn, pairs), "ms")
        systems = [(system,) for system, _ in pairs]
        out["prob_core.none_occur.ms_p50"] = (_probe_ms(none_occur, systems), "ms")
    if workload == "gaussian-ar1":
        system = runner.inputs["system"]
        out["gaussian_evt.sample.fixed_ms"] = (
            _probe_ms(sample, [(system, 1, seed)] * 5),
            "ms",
        )
        out["gaussian_evt.stationary_system.ms"] = (
            1e3 * runner.inputs["stationary_system_s"],
            "ms",
        )
    return out


# ---------------------------------------------------------------------------
# Worker modes
# ---------------------------------------------------------------------------

def run_worker(args: argparse.Namespace) -> dict:
    runner = Runner(args.workload, args.size, Path(args.out))
    ready = time.monotonic()
    doc: dict = {"setup_s": ready - args.spawned_at}

    cold_s, digest = runner.call(args.seed)
    doc["cold_call_s"] = cold_s
    doc["items_per_call"] = runner.items
    doc["digests"] = [digest]
    doc["gate"] = {}
    if args.mode != "cold":
        for seed in args.gate_seeds:
            doc["gate"][str(seed)] = runner.call(seed)[1]

    if args.mode == "timed":
        warm = []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(doc["digests"]) < 3:
            elapsed, digest = runner.call(args.seed)
            warm.append(elapsed)
            doc["digests"].append(digest)
        doc["warm_call_s"] = finite(warm)
    elif args.mode in ("trace", "counts"):
        doc.update(run_traced(args, runner))

    if args.mode != "cold":
        doc["facts"] = facts()
    doc["raised"] = runner.raised
    doc["peak_rss_mib"] = peak_rss_mib()
    return doc


def run_traced(args: argparse.Namespace, runner: Runner) -> dict:
    """Alternate untraced and traced calls; per-layer metrics and counts.

    In ``counts`` mode a single traced call gives the counts that ``run.py``
    compares with the traced run's.
    """
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    call_counts: list[dict] = []
    digests: list[str | None] = []
    layers = Layers(tracer)
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.mode == "trace":
            elapsed, digest = runner.call(args.seed)
            plain.append(elapsed)
            digests.append(digest)
        tracer.call += 1
        tracer.counts = defaultdict(int)
        with layers:
            elapsed, digest = runner.call(args.seed, tracer)
        traced.append(elapsed)
        digests.append(digest)
        call_counts.append(dict(tracer.counts))
        if args.mode == "counts" or (time.perf_counter() >= deadline and len(traced) >= 3):
            break

    counts = {name: call_counts[0].get(name, 0) for name in COUNTS}
    doc = {
        "digests_traced": digests,
        "counts": counts,
        "counts_repeat": all(c == call_counts[0] for c in call_counts),
    }
    if args.mode == "counts":
        return doc

    metrics, tails = layer_metrics(tracer.spans, ENTRY_SPANS[args.workload])
    metrics.update(probes(args.workload, runner, tracer, args.seed))
    for name, value in counts.items():
        metrics[name] = (value, COUNT_UNITS.get(name.rsplit(".", 1)[-1], "count"))
    candidates = counts["random_structures.gen_hypergraph.candidates"]
    metrics["random_structures.gen_hypergraph.present_frac"] = (
        counts["random_structures.gen_hypergraph.edges"] / candidates if candidates else 0.0,
        "ratio",
    )
    plain_rate = runner.items / statistics.median(finite(plain))
    traced_rate = runner.items / statistics.median(finite(traced))
    metrics["runner.trace_overhead"] = (traced_rate / plain_rate, "ratio")

    trace_path = Path(args.out).parent / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(
        json.dumps(
            {
                "fields": ["name", "start", "end", "parent", "item", "call"],
                "spans": tracer.spans,
            }
        ),
        encoding="utf-8",
    )
    doc.update(
        {
            "metrics": metrics,
            "tails": tails,
            "plain_items_per_s": plain_rate,
            "traced_items_per_s": traced_rate,
            "trace_file": str(trace_path.relative_to(ROOT)),
        }
    )
    return doc


def record() -> None:
    """Recompute the digests at the recorded seeds for every workload and size."""
    table: dict = {}
    out_dir = ROOT / ".perfbench_out" / "record"
    for size in SIZES:
        for workload in WORKLOADS:
            runner = Runner(workload, size, out_dir)
            table.setdefault(size, {})[workload] = {
                str(seed): runner.call(seed)[1] for seed in RECORDED_SEEDS
            }
            if runner.raised:
                raise SystemExit(f"{workload} ({size}) raised; digests not written")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    worker = sub.add_parser("worker", help="run one sample and print one JSON line")
    worker.add_argument("mode", choices=("cold", "timed", "trace", "counts"))
    worker.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--size", choices=tuple(SIZES), required=True)
    worker.add_argument("--seconds", type=float, required=True)
    worker.add_argument("--spawned-at", type=float, required=True)
    worker.add_argument("--gate-seeds", type=int, nargs="*", default=[])
    worker.add_argument("--out", required=True)
    sub.add_parser("record", help="rewrite digests.json at the recorded seeds")
    args = parser.parse_args(argv)

    import_library()
    if args.command == "record":
        record()
    else:
        print(json.dumps(run_worker(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
