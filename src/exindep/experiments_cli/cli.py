"""Command-line entry points.

Subcommands
-----------
``exindep audit-bounds --count N --seed S [--spec FILE | spec flags] [--out DIR]``
    Draw random event systems and audit every inequality on each; report
    violations (expected none) and worst residuals.

``exindep simulate KIND --n N --p P --trials T --seed S [--k/--s/--h ...]
[--ref {indep,gumbel}] [--out DIR]``
    Monte Carlo maxima experiment for one structure kind (a key of
    :data:`runner.KINDS <exindep.experiments_cli.runner.KINDS>`); reports
    the sup-grid distance between normalized maxima and the reference CDF.

``exindep gumbel-consts --family {binomial,clique,common-neighbour} ...``
    Print the normalizing constants as one CSV row
    (``family,d,N,p,k,h,a,b``).

``exindep gaussian check-conditions ...`` / ``exindep gaussian simulate ...``
    Correlation-decay diagnostics and empirical ``P(max ≤ u)`` for
    stationary Gaussian families.

Without ``--out`` the summary JSON goes to stdout; with ``--out`` the
CSV/JSON reports are written there and their paths printed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from ..errors import ExindepError, StructuralError
from ..gaussian_evt import ThresholdSet, check_conditions, stationary_system
from ..gumbel_limits import (
    NormConstants,
    clique_constants,
    common_neighbour_constants,
    norm_constants,
)
from ..prob_core import DependencyGraph
from .config import EVENT_FAMILIES, DEP_FAMILIES, ExperimentConfig, SystemGenSpec
from .reports import emit_report
from .runner import (
    EXPERIMENT_KINDS,
    bound_audit_run,
    gaussian_max_rate,
    run_max_experiment,
)

__all__ = ["main", "build_parser"]


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2, default=str))


# ---------------------------------------------------------------------------
# audit-bounds
# ---------------------------------------------------------------------------

def _spec_from_args(args: argparse.Namespace) -> SystemGenSpec:
    if args.spec is not None:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise StructuralError(f"spec file {args.spec} must hold a JSON object")
        known = {f.name for f in fields(SystemGenSpec)}
        unknown = sorted(doc.keys() - known)
        if unknown:
            raise StructuralError(
                f"unknown spec keys {unknown}; expected keys among {sorted(known)}"
            )
        for key in ("d_range", "atom_range"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return SystemGenSpec(**doc)
    return SystemGenSpec(
        d_range=(args.d_min, args.d_max),
        atom_range=(args.atoms_min, args.atoms_max),
        event_family=args.event_family,
        dep_family=args.dep_family,
        dep_edge_prob=args.dep_edge_prob,
        band_width=args.band_width,
    )


def _cmd_audit_bounds(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    summary = bound_audit_run(spec, args.count, args.seed)
    if args.out is not None:
        csv_path, json_path = emit_report(summary, args.out)
        print(csv_path)
        print(json_path)
    else:
        _print_json(
            {
                "count": summary.count,
                "seed": summary.seed,
                "all_pass": summary.all_pass,
                "violations": list(summary.violations[:20]),
                "worst_residuals": summary.worst_residuals,
                "family_counts": summary.family_counts,
            }
        )
    return 0 if summary.all_pass else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    reference = "gumbel" if args.ref == "gumbel" else "independent_product"
    cfg = ExperimentConfig(
        kind=args.kind,
        n=args.n,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        k=args.k,
        s=args.s,
        h=args.h,
        reference=reference,
    )
    result = run_max_experiment(cfg)
    if args.out is not None:
        csv_path, json_path = emit_report(result, args.out)
        print(csv_path)
        print(json_path)
    else:
        _print_json(
            {
                "kind": cfg.kind,
                "trials": cfg.trials,
                "seed": cfg.seed,
                "reference": cfg.reference,
                "ks_vs_reference": result.ks_vs_reference,
                "constants": {"a": result.constants.a, "b": result.constants.b},
                "aux_stats": result.aux_stats,
            }
        )
    return 0


# ---------------------------------------------------------------------------
# gumbel-consts
# ---------------------------------------------------------------------------

def _consts_row(consts: NormConstants) -> str:
    cells = (
        consts.family,
        repr(consts.d),
        str(consts.N),
        repr(consts.p),
        "" if consts.k is None else str(consts.k),
        "" if consts.h is None else str(consts.h),
        repr(consts.a),
        repr(consts.b),
    )
    return ",".join(cells)


def _cmd_gumbel_consts(args: argparse.Namespace) -> int:
    if args.family == "binomial":
        if args.d is None or args.N is None:
            raise ExindepError("binomial constants need --d and --N")
        consts = norm_constants(args.d, args.N, args.p)
    elif args.family == "clique":
        if args.n is None or args.k is None:
            raise ExindepError("clique constants need --n and --k")
        consts = clique_constants(args.n, args.p, args.k)
    else:  # common-neighbour
        if args.n is None or args.h is None:
            raise ExindepError("common-neighbour constants need --n and --h")
        consts = common_neighbour_constants(args.n, args.p, args.h)
    lines = ["family,d,N,p,k,h,a,b", _consts_row(consts)]
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# gaussian
# ---------------------------------------------------------------------------

def _gaussian_system(args: argparse.Namespace):
    return stationary_system(
        args.d,
        args.family.replace("-", "_"),
        rho=args.rho,
        gamma=args.gamma,
        radius=args.radius,
    )


def _default_level(args: argparse.Namespace) -> float:
    if args.u is not None:
        return args.u
    return math.sqrt(2.0 * math.log(args.d))


def _cmd_gaussian_check(args: argparse.Namespace) -> int:
    system = _gaussian_system(args)
    level = _default_level(args)
    thresholds = ThresholdSet(a=level, b=1.0, x=0.0)
    dep = DependencyGraph.distance_band(args.d, args.band)
    report = check_conditions(
        system, thresholds, dep, args.rho_bound, eps=args.eps
    )
    doc = asdict(report)
    doc.update({"family": args.family, "d": args.d, "u": level, "band": args.band})
    _print_json(doc)
    return 0 if (report.g2_ok and report.g4_ok) else 1


def _cmd_gaussian_simulate(args: argparse.Namespace) -> int:
    system = _gaussian_system(args)
    level = _default_level(args)
    rate = gaussian_max_rate(system, level, args.trials, args.seed, block=args.block)
    # the independent comparison: P(one standard component ≤ u)^d
    phi = 0.5 * math.erfc(-level / math.sqrt(2.0))
    independent = math.exp(args.d * math.log(phi)) if phi > 0.0 else 0.0
    doc = {
        "family": args.family,
        "d": args.d,
        "u": level,
        "trials": args.trials,
        "seed": args.seed,
        "empirical_rate": rate,
        "independent_reference": independent,
        "abs_error": abs(rate - independent),
    }
    _print_json(doc)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exindep",
        description=(
            "Extremal-independence toolkit: inequality audits on finite event "
            "systems and Monte Carlo maxima experiments on random structures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser(
        "audit-bounds", help="audit probability bounds on random event systems"
    )
    p_audit.add_argument("--count", type=int, required=True)
    p_audit.add_argument("--seed", type=int, required=True)
    p_audit.add_argument("--spec", type=str, default=None, help="JSON spec file")
    p_audit.add_argument("--out", type=str, default=None)
    p_audit.add_argument("--d-min", type=int, default=1)
    p_audit.add_argument("--d-max", type=int, default=8)
    p_audit.add_argument("--atoms-min", type=int, default=4)
    p_audit.add_argument("--atoms-max", type=int, default=256)
    p_audit.add_argument(
        "--event-family", choices=EVENT_FAMILIES, default="mixed"
    )
    p_audit.add_argument("--dep-family", choices=DEP_FAMILIES, default="mixed")
    p_audit.add_argument("--dep-edge-prob", type=float, default=0.5)
    p_audit.add_argument("--band-width", type=int, default=1)
    p_audit.set_defaults(func=_cmd_audit_bounds)

    p_sim = sub.add_parser("simulate", help="Monte Carlo maxima experiment")
    p_sim.add_argument("kind", choices=EXPERIMENT_KINDS)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--k", type=int, default=None)
    p_sim.add_argument("--s", type=int, default=None)
    p_sim.add_argument("--h", type=int, default=None)
    p_sim.add_argument("--ref", choices=("indep", "gumbel"), default="indep")
    p_sim.add_argument("--out", type=str, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_consts = sub.add_parser(
        "gumbel-consts", help="print normalizing constants as CSV"
    )
    p_consts.add_argument(
        "--family",
        choices=("binomial", "clique", "common-neighbour"),
        required=True,
    )
    p_consts.add_argument("--d", type=float, default=None)
    p_consts.add_argument("--N", type=int, default=None)
    p_consts.add_argument("--n", type=int, default=None)
    p_consts.add_argument("--p", type=float, required=True)
    p_consts.add_argument("--k", type=int, default=None)
    p_consts.add_argument("--h", type=int, default=None)
    p_consts.add_argument("--out", type=str, default=None)
    p_consts.set_defaults(func=_cmd_gumbel_consts)

    p_gauss = sub.add_parser("gaussian", help="Gaussian-vector diagnostics")
    gauss_sub = p_gauss.add_subparsers(dest="gaussian_command", required=True)

    def add_family_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--family", choices=("ar1", "log-decay", "truncated"), required=True
        )
        sp.add_argument("--d", type=int, required=True)
        sp.add_argument("--rho", type=float, default=None)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--radius", type=int, default=None)
        sp.add_argument("--u", type=float, default=None, help="default sqrt(2 log d)")

    p_check = gauss_sub.add_parser(
        "check-conditions", help="correlation-decay diagnostics"
    )
    add_family_args(p_check)
    p_check.add_argument("--band", type=int, default=0, help="dependency band width")
    p_check.add_argument("--eps", type=float, default=0.05)
    p_check.add_argument("--rho-bound", type=float, default=0.9)
    p_check.set_defaults(func=_cmd_gaussian_check)

    p_gsim = gauss_sub.add_parser("simulate", help="empirical P(max ≤ u)")
    add_family_args(p_gsim)
    p_gsim.add_argument("--trials", type=int, required=True)
    p_gsim.add_argument("--seed", type=int, required=True)
    p_gsim.add_argument("--block", type=int, default=2048)
    p_gsim.set_defaults(func=_cmd_gaussian_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExindepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
