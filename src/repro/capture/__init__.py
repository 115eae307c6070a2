"""Workload capture and replay.

:class:`WorkloadRecorder` (wired via ``Database(capture_dir=...)``) appends
one durable JSONL record per executed statement — SQL, timings, status,
shape hash, and a result digest for queries.  :func:`replay_workload`
re-executes a captured file against the current build, verifies the
digests, checks error parity, and reports per-shape latency deltas
(``python -m repro replay``).
"""

from .recorder import WorkloadRecorder, result_digest  # noqa: F401
from .replay import ReplayReport, replay_workload  # noqa: F401
