"""Experiment harness: dataset ingestion, sweeps, aggregation, reports."""

from .data import load_dataset, synth_dataset
from .experiment import (AggregateReport, Cell, ConfigError, ExperimentConfig,
                         RunRow, TOLERANCE_PRESETS, emit_report, read_report_csv,
                         render_markdown, run_experiment)

__all__ = [
    "load_dataset", "synth_dataset",
    "AggregateReport", "Cell", "ConfigError", "ExperimentConfig", "RunRow",
    "TOLERANCE_PRESETS", "emit_report", "read_report_csv", "render_markdown",
    "run_experiment",
]
