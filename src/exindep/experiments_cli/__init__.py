"""Experiment harness: system generation, audits at scale, maxima runs, reports."""
from .config import (
    DEP_FAMILIES,
    EVENT_FAMILIES,
    EmpiricalResult,
    ExperimentConfig,
    SystemGenSpec,
    default_grid,
)
from .generators import GeneratedSystem, generate_system
from .reports import AUDIT_HEADER, TRIALS_HEADER, emit_report
from .runner import (
    EXPERIMENT_KINDS,
    AuditRow,
    AuditRunSummary,
    bound_audit_run,
    gaussian_max_rate,
    ks_distance,
    run_max_experiment,
    two_sample_ks,
)

__all__ = [
    "DEP_FAMILIES",
    "EVENT_FAMILIES",
    "EXPERIMENT_KINDS",
    "EmpiricalResult",
    "ExperimentConfig",
    "SystemGenSpec",
    "default_grid",
    "GeneratedSystem",
    "generate_system",
    "AUDIT_HEADER",
    "TRIALS_HEADER",
    "emit_report",
    "AuditRow",
    "AuditRunSummary",
    "bound_audit_run",
    "gaussian_max_rate",
    "ks_distance",
    "run_max_experiment",
    "two_sample_ks",
]
