"""Benchmark support: reproduced-artifact reporting."""

from .reporting import format_matrix, write_report  # noqa: F401
