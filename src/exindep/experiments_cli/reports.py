"""Byte-stable CSV/JSON report emission.

One entry point, :func:`emit_report`, accepts either an
:class:`~exindep.experiments_cli.config.EmpiricalResult` (writes
``trials.csv`` + ``summary.json``) or an
:class:`~exindep.experiments_cli.runner.AuditRunSummary` (writes
``audits.csv`` + ``summary.json``) into a target directory and returns the
two paths.

Stability contract: identical inputs produce byte-identical files.  Floats
are rendered with ``repr`` (shortest round-trip form), integral count
values as plain integers, JSON with sorted keys and a fixed indent, and all
rows end with ``\\n`` regardless of platform.

CSV schemas:

* trials file: ``trial,raw_max,normalized``
* audit file: ``system_id,d,atoms,gap,thm1_rhs,upper_rhs,lower_rhs,
  arratia_rhs,pass`` (``pass`` is ``true``/``false``)
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .config import EmpiricalResult, default_grid
from .runner import AuditRunSummary

__all__ = ["TRIALS_HEADER", "AUDIT_HEADER", "emit_report"]

TRIALS_HEADER = ("trial", "raw_max", "normalized")
AUDIT_HEADER = (
    "system_id",
    "d",
    "atoms",
    "gap",
    "thm1_rhs",
    "upper_rhs",
    "lower_rhs",
    "arratia_rhs",
    "pass",
)


def _csv_num(x: float) -> str:
    """Integral floats as integers, everything else as shortest repr."""
    value = float(x)
    if math.isfinite(value) and value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def _json_safe(x):
    """Recursively make a value JSON-encodable with ``allow_nan=False``."""
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    if hasattr(x, "item"):  # numpy scalar
        return _json_safe(x.item())
    return str(x)


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(_json_safe(doc), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _emit_empirical(result: EmpiricalResult, out_dir: Path) -> tuple[Path, Path]:
    csv_path = out_dir / "trials.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIALS_HEADER)
        for t, (raw, norm) in enumerate(zip(result.raw_max, result.normalized)):
            writer.writerow((t, _csv_num(raw), repr(float(norm))))

    cfg = result.config
    consts = result.constants
    grid = default_grid()
    summary = {
        "kind": cfg.kind,
        "n": cfg.n,
        "k": cfg.k,
        "s": cfg.s,
        "h": cfg.h,
        "p": cfg.p,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "reference": cfg.reference,
        "grid": {
            "points": int(grid.size),
            "min": float(grid[0]),
            "max": float(grid[-1]),
            "step": float(grid[1] - grid[0]),
        },
        "constants": {
            "a": consts.a,
            "b": consts.b,
            "d": consts.d,
            "N": consts.N,
            "p": consts.p,
            "log_d": consts.log_d,
            "family": consts.family,
            "k": consts.k,
            "h": consts.h,
        },
        "ks_vs_reference": result.ks_vs_reference,
        "aux_stats": dict(sorted(result.aux_stats.items())),
        "raw_max_min": float(result.raw_max.min()),
        "raw_max_max": float(result.raw_max.max()),
    }
    json_path = out_dir / "summary.json"
    _write_json(json_path, summary)
    return csv_path, json_path


def _emit_audit(summary: AuditRunSummary, out_dir: Path) -> tuple[Path, Path]:
    csv_path = out_dir / "audits.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AUDIT_HEADER)
        for row in summary.rows:
            a = row.audit
            writer.writerow(
                (
                    row.system_id,
                    row.d,
                    row.atoms,
                    repr(a.exact_gap),
                    repr(a.thm1_rhs),
                    repr(a.upper_rhs),
                    repr(a.lower_rhs),
                    repr(a.arratia_rhs),
                    "true" if row.all_pass else "false",
                )
            )

    spec = summary.spec
    doc = {
        "count": summary.count,
        "seed": summary.seed,
        "spec": {
            "d_range": list(spec.d_range),
            "atom_range": list(spec.atom_range),
            "event_family": spec.event_family,
            "dep_family": spec.dep_family,
            "dep_edge_prob": spec.dep_edge_prob,
            "band_width": spec.band_width,
        },
        "all_pass": summary.all_pass,
        "violations": list(summary.violations),
        "worst_residuals": dict(sorted(summary.worst_residuals.items())),
        "family_counts": dict(sorted(summary.family_counts.items())),
    }
    json_path = out_dir / "summary.json"
    _write_json(json_path, doc)
    return csv_path, json_path


def emit_report(
    result: EmpiricalResult | AuditRunSummary, path: str | Path
) -> tuple[Path, Path]:
    """Write the CSV + JSON pair for ``result`` into directory ``path``.

    Returns ``(csv_path, json_path)``.  The directory is created if needed;
    rewriting the same result produces byte-identical files.
    """
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(result, EmpiricalResult):
        return _emit_empirical(result, out_dir)
    if isinstance(result, AuditRunSummary):
        return _emit_audit(result, out_dir)
    raise TypeError(
        f"emit_report expects an EmpiricalResult or AuditRunSummary, "
        f"got {type(result).__name__}"
    )
