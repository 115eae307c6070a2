"""Plan feedback: joining optimizer estimates against execution actuals.

The physical planner stamps every operator with its estimated output rows
(:attr:`repro.engine.physical.PhysicalOp.est_rows`); the execution
collector records the actual rows produced.  At statement end
``Database._finish`` joins the two on each operator's
:class:`~repro.observability.instrument.OperatorStats` — the engine's
measure of its own estimation quality, in the Q-error metric standard in
the cardinality-estimation literature:

    qerror = max(est, actual) / min(est, actual)

with both sides clamped to >= 1 row so empty results don't divide by
zero (an estimate of 0.3 rows against an actual of 0 rows is a perfect
prediction, not an infinite error).  A Q-error of 1.0 is a perfect
estimate; >= :data:`MISESTIMATE_QERROR` counts as a misestimate and bumps
the per-operator-kind ``optimizer.misestimates.<kind>`` counter.

The stamped records land in the
:class:`repro.observability.querylog.QueryLog` operator ring and are
queryable as ``sys.plan_feedback``.
"""

from __future__ import annotations

#: Q-error at or above which an operator counts as misestimated.  4x is the
#: conventional "the optimizer would likely have picked a different plan"
#: threshold; 1-2x is noise for the System-R style heuristics in cost.py.
MISESTIMATE_QERROR = 4.0


def qerror(est: float, actual: int | float) -> float:
    """Q-error of an estimate: ``max(est, actual) / min(est, actual)``.

    Both sides are clamped to >= 1.0 first (the standard zero-row
    convention), so the result is always >= 1.0 and finite.
    """
    est = max(float(est), 1.0)
    actual = max(float(actual), 1.0)
    return est / actual if est >= actual else actual / est
